"""Diagonal linearly degenerate rich systems with a common entropy density.

A system is specified by its family structure (one constant Lagrangian speed
per family), the common density N(w) > 0, the flux M(w) and an admissibility
predicate.  Eulerian eigenvalues are always derived from the structural
identity N(w) lambda_i(w) - speed_i = M(w), never entered independently, so
the identity holds by construction and the model closed forms become checks.
"""

from dataclasses import dataclass

import numpy as np

_DEGENERACY_TOL, _IDENTITY_TOL = 1e-12, 1e-14  # validate_system's relative bounds


class AdmissibilityError(ValueError):
    """State outside the admissible domain of the system."""


@dataclass(frozen=True)
class Family:
    """One characteristic family: its Lagrangian speed and carried components."""

    speed: float
    components: tuple


@dataclass(frozen=True)
class BIStructure:
    """Marker for Born-Infeld-like systems: N = 2a/(w_mu - w_lam), M/N = (w_mu + w_lam)/2.

    Enables the closed-form coordinate map (an oracle of the position map),
    the translated-gap check and the model shapes; ``mu``/``lam`` are the
    component indices of the extreme-family invariants.
    """

    a: float
    mu: int
    lam: int


class RichSystem:
    """Rich system with common density; states are arrays of shape (..., n)."""

    def __init__(self, name, families, density, flux, admissible,
                 admissibility_note="admissibility predicate", bi_structure=None):
        self.name = name
        self.families = tuple(families)
        # Per-family Lagrangian speed, in family order.
        self.family_speeds = np.array([f.speed for f in self.families])
        if np.any(np.diff(self.family_speeds) <= 0.0):
            raise ValueError("family Lagrangian speeds must strictly increase")
        comps = [c for f in self.families for c in f.components]
        self.n = len(comps)
        if sorted(comps) != list(range(self.n)):
            raise ValueError("families must partition the component indices")
        self.family_of = tuple(
            next(p for p, f in enumerate(self.families) if c in f.components)
            for c in range(self.n)
        )
        # Per-component Lagrangian speed (constant within a family).
        self.lagrangian_speeds = self.family_speeds[list(self.family_of)]
        self._density = density
        self._flux = flux
        self._admissible = admissible
        self.admissibility_note = admissibility_note
        self.bi_structure = bi_structure

    def mixed_state(self, left, right, p):
        """State with ``right`` values on the components of families below
        ``p`` and ``left`` values elsewhere."""
        return np.where(np.asarray(self.family_of) < p, right, left)

    # -- state functionals ---------------------------------------------------

    def admissible(self, w):
        return np.asarray(self._admissible(np.asarray(w, dtype=float)), dtype=bool)

    def check_admissible(self, w):
        ok = self.admissible(w)
        if not np.all(ok):
            raise AdmissibilityError(
                "%s: inadmissible state (violates: %s)"
                % (self.name, self.admissibility_note)
            )

    def density(self, w):
        return np.asarray(self._density(np.asarray(w, dtype=float)), dtype=float)

    def flux(self, w):
        return np.asarray(self._flux(np.asarray(w, dtype=float)), dtype=float)

    def eigenvalue(self, i, w):
        """Eulerian speed of component i: (M(w) + speed_i) / N(w)."""
        w = np.asarray(w, dtype=float)
        self.check_admissible(w)
        return (self.flux(w) + self.lagrangian_speeds[i]) / self.density(w)

    def eigenvalues(self, w):
        """All component speeds; shape (..., n)."""
        w = np.asarray(w, dtype=float)
        self.check_admissible(w)
        n = self.density(w)[..., None]
        return self.flux(w)[..., None] / n + self.lagrangian_speeds / n


def _born_infeld_system(name, families, bi):
    """Born-Infeld-like rich system with the density and flux ``bi`` states."""
    a, mu, lam = bi.a, bi.mu, bi.lam

    def density(w):
        return 2.0 * a / (w[..., mu] - w[..., lam])

    def flux(w):
        return a * (w[..., mu] + w[..., lam]) / (w[..., mu] - w[..., lam])

    def admissible(w):
        return w[..., mu] > w[..., lam]

    return RichSystem(name, families, density, flux, admissible,
                      admissibility_note="mu > lam", bi_structure=bi)


def born_infeld(a=1.0):
    """Reduced Born-Infeld system: w = (mu, lam), mu > lam.

    The invariant mu rides the slow family (Lagrangian speed -a) and lam the
    fast one (+a); derived eigenvalues come out as lambda_1 = lam and
    lambda_2 = mu, which the tests check against the closed forms.
    """
    if a < 1.0:
        raise ValueError("Born-Infeld parameter a = sqrt(1 + B1^2 + D1^2) >= 1")
    return _born_infeld_system("born-infeld(a=%g)" % a, (Family(-a, (0,)), Family(+a, (1,))),
                               BIStructure(a=a, mu=0, lam=1))


def augmented_born_infeld(a=1.0):
    """Three-family augmented Born-Infeld skeleton: w = (mu, q, lam).

    q is a passive middle-family invariant (Lagrangian speed 0); the middle
    eigenvalue (mu + lam)/2 is independent of it, exercising every
    zero-speed code path.
    """
    if a < 1.0:
        raise ValueError("Born-Infeld parameter a >= 1")
    families = (Family(-a, (0,)), Family(0.0, (1,)), Family(+a, (2,)))
    return _born_infeld_system("augmented-born-infeld(a=%g)" % a, families,
                               BIStructure(a=a, mu=0, lam=2))


@dataclass
class CheckResult:
    name: str
    passed: bool
    worst: float
    detail: str


@dataclass
class SystemDiagnostics:
    system: str
    checks: list

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]


def validate_system(system, probes):
    """Sample-based diagnostics of the structural invariants.

    Failures are recorded in the report, never raised.  Inadmissible probes
    are reported and excluded from the remaining checks.
    """
    probes = np.asarray(probes, dtype=float)
    probes = probes.reshape(-1, probes.shape[-1])
    if probes.shape[1] != system.n:
        raise ValueError("probe states must have %d components" % system.n)
    checks = []
    ok = system.admissible(probes)
    checks.append(
        CheckResult(
            "admissibility",
            bool(ok.all()),
            float(np.count_nonzero(~ok)),
            "%d of %d probe states violate %s"
            % (int(np.count_nonzero(~ok)), len(probes), system.admissibility_note),
        )
    )
    w = probes[ok]
    if len(w) == 0:
        checks.append(
            CheckResult("density-positivity", False, float("nan"), "no admissible probes")
        )
        return SystemDiagnostics(system.name, checks)

    dens = system.density(w)
    checks.append(
        CheckResult(
            "density-positivity",
            bool(np.all(dens > 0.0)),
            float(dens.min()),
            "min N over probes = %.6g" % dens.min(),
        )
    )

    lam = system.eigenvalues(w)
    gaps = np.diff(lam, axis=-1)
    same_family = np.array(
        [system.family_of[c] == system.family_of[c + 1] for c in range(system.n - 1)]
    )
    ordered = True
    worst_gap = np.inf
    for c in range(system.n - 1):
        g = gaps[..., c]
        if same_family[c]:
            ordered &= bool(np.all(np.abs(g) <= 1e-12 * np.maximum(1.0, np.abs(lam[..., c]))))
        else:
            ordered &= bool(np.all(g > 0.0))
            worst_gap = min(worst_gap, float(g.min()))
    checks.append(
        CheckResult(
            "eigenvalue-ordering",
            ordered,
            worst_gap if np.isfinite(worst_gap) else 0.0,
            "min cross-family eigenvalue gap = %.6g" % worst_gap,
        )
    )

    # Linear degeneracy: eigenvalue of i is invariant under finite
    # perturbation of any component its family carries.
    worst_rel = 0.0
    for i in range(system.n):
        base = system.eigenvalue(i, w)
        scale = np.maximum(1.0, np.abs(base))
        for c in system.families[system.family_of[i]].components:
            wp = w.copy()
            wp[:, c] += 0.1 * (1.0 + np.abs(wp[:, c]))
            keep = system.admissible(wp)
            if not keep.any():
                continue
            rel = np.abs(system.eigenvalue(i, wp[keep]) - base[keep]) / scale[keep]
            worst_rel = max(worst_rel, float(rel.max()))
    checks.append(
        CheckResult(
            "linear-degeneracy",
            worst_rel < _DEGENERACY_TOL,
            worst_rel,
            "max relative eigenvalue change under own-family perturbation = %.3e"
            % worst_rel,
        )
    )

    # Structural identity N * lambda_i - speed_i - M = 0.
    M = system.flux(w)
    worst_res = 0.0
    for i in range(system.n):
        res = np.abs(dens * system.eigenvalue(i, w) - system.lagrangian_speeds[i] - M)
        denom = np.maximum(1.0, np.abs(M) + np.abs(system.lagrangian_speeds[i]))
        worst_res = max(worst_res, float((res / denom).max()))
    checks.append(
        CheckResult(
            "lagrangian-identity",
            worst_res <= _IDENTITY_TOL,
            worst_res,
            "max relative residual of N*lambda_i - speed_i - M = %.3e" % worst_res,
        )
    )
    return SystemDiagnostics(system.name, checks)
