"""L1 stability experiments: solution-pair distances and coordinate-map bounds.

The vector L1 norm is the sum of component norms, so the initial distance
dominates each component.  Distances at t > 0 come from the solver's L1
integrator; sweeps measure the stability constant, never asserted a priori.
"""

import math
from dataclasses import dataclass

import numpy as np

from .profiles import add_bump, l1_distance
from .solver import _check_times, _l1_distances, _snapshot_side, solve
from .systems import AdmissibilityError

_MAP_POINTS = 2001  # per grid of coordinate_map_bounds


class ScenarioError(ValueError):
    """A sweep scenario produced an unusable profile (tails or admissibility)."""


def pair_distance(sol1, sol2, times, *, _snaps1=None):
    """L1 distances between two solutions: one (total, per-component) per time.

    Components whose tail states differ are infinitely far apart.  At t = 0
    the distance is by definition the exact piecewise-linear profile
    distance.  All ``(t > 0, component)`` owners share one
    :func:`integrate_abs` pass, which reads both solutions from their
    snapshots at each time ``t > 0``, kinks included; ``stability_sweep``
    passes its base solution's, built once for every amplitude, as ``_snaps1``.
    """
    p, q = sol1.initial, sol2.initial
    if p.n != q.n:
        raise ValueError("solutions have different component counts")
    times = _check_times(np.asarray(times, dtype=float))
    initial = [l1_distance(p, q, i) for i in range(p.n)]
    if all(d == 0.0 for d in initial):
        # identical initial data: by uniqueness the solutions coincide
        return [(0.0, tuple(initial)) for _ in times]
    comps = np.nonzero((p.values[0] == q.values[0]) & (p.values[-1] == q.values[-1]))[0]
    moving = times > 0.0
    ts = times[moving]
    per = np.full((len(moving), p.n), math.inf)
    per[np.ix_(~moving, comps)] = np.array(initial)[comps]
    if ts.size:
        snaps1 = _snaps1 or [sol1.snapshot(t) for t in ts]
        snaps2 = [sol2.snapshot(t) for t in ts]
        # owner k * len(comps) + c: time ts[k], component comps[c]
        which, comp = np.repeat(np.arange(len(ts)), len(comps)), np.tile(comps, len(ts))
        per[np.ix_(moving, comps)] = _l1_distances(
            _snapshot_side(snaps1, which, comp), _snapshot_side(snaps2, which, comp),
            min(sol1.quad_tol, sol2.quad_tol),
        ).reshape(len(ts), -1)
    return [(sum(row), tuple(row)) for row in per.tolist()]


@dataclass
class MapBounds:
    """Sup-norm gaps between the initial coordinate maps of two solutions."""

    r0: float
    sup_z: float  # sup |Z20 - Z10|
    sup_x: float  # sup |X20 - X10|
    sup_roundtrip: float  # sup |X10(Z20(x)) - x|

    def ratios(self):
        """Sups divided by R0; zero by convention when R0 = 0."""
        if self.r0 == 0.0:
            return (0.0, 0.0, 0.0)
        return (self.sup_z / self.r0, self.sup_x / self.r0, self.sup_roundtrip / self.r0)


def coordinate_map_bounds(sol1, sol2):
    """Measured constants of the coordinate-map stability bounds.

    Sups are taken over dense grids covering both cores with margin; outside
    them the gaps are constant (affine maps with equal slopes), so a
    bounded grid captures the suprema.
    """
    p, q = sol1.initial, sol2.initial
    r0 = sum(l1_distance(p, q, i) for i in range(p.n))
    lo = min(p.breakpoints[0], q.breakpoints[0]) - 1.0
    hi = max(p.breakpoints[-1], q.breakpoints[-1]) + 1.0
    xs = np.linspace(lo, hi, _MAP_POINTS)
    z_lo = min(sol1.zeta[0], sol2.zeta[0]) - 1.0
    z_hi = max(sol1.zeta[-1], sol2.zeta[-1]) + 1.0
    zs = np.linspace(z_lo, z_hi, _MAP_POINTS)
    sup_z = float(
        np.max(np.abs(sol2.initial_coordinate(xs) - sol1.initial_coordinate(xs)))
    )
    sup_x = float(
        np.max(np.abs(sol2.initial_position(zs) - sol1.initial_position(zs)))
    )
    sup_rt = float(
        np.max(np.abs(sol1.initial_position(sol2.initial_coordinate(xs)) - xs))
    )
    return MapBounds(r0=r0, sup_z=sup_z, sup_x=sup_x, sup_roundtrip=sup_rt)


@dataclass
class StabilityReport:
    """One amplitude of a sweep: R0, R_t per time, and the measured constant."""

    amplitude: float
    r0: float
    times: tuple
    r_t: tuple
    per_component: tuple  # one tuple of component distances per time
    map_bounds: MapBounds

    @property
    def c_hat(self):
        if self.r0 == 0.0:
            return 0.0
        return max(self.r_t) / self.r0


def triangle_perturbation(component, center, half_width):
    """Perturbation descriptor: amplitude -> triangular bump on one component."""

    def perturb(profile, amplitude):
        return add_bump(profile, component, center, half_width, amplitude)

    return perturb


def stability_sweep(system, profile, perturb, amplitudes, times,
                    quad_tol=1e-10, inv_tol=1e-12):
    """One StabilityReport per amplitude, against the unperturbed solution.

    The perturbation must preserve tail states and admissibility for every
    amplitude; violations raise :class:`ScenarioError`.
    """
    base = solve(system, profile, quad_tol=quad_tol, inv_tol=inv_tol)
    # The base solution's snapshots serve every amplitude.
    base_snaps = [base.snapshot(t) for t in times if t > 0.0]
    reports = []
    for amp in amplitudes:
        pert = perturb(profile, amp)
        if not (
            np.array_equal(pert.values[0], profile.values[0])
            and np.array_equal(pert.values[-1], profile.values[-1])
        ):
            raise ScenarioError("perturbation changed the tail states")
        try:
            sol2 = solve(system, pert, quad_tol=quad_tol, inv_tol=inv_tol)
        except AdmissibilityError as exc:
            raise ScenarioError(
                "perturbed profile inadmissible at amplitude %g: %s" % (amp, exc)
            ) from exc
        r0 = sum(l1_distance(profile, pert, i) for i in range(profile.n))
        r_t, per = zip(*pair_distance(base, sol2, times, _snaps1=base_snaps))
        reports.append(
            StabilityReport(
                amplitude=float(amp),
                r0=r0,
                times=tuple(float(t) for t in times),
                r_t=r_t,
                per_component=per,
                map_bounds=coordinate_map_bounds(base, sol2),
            )
        )
    return reports
