"""Finite-time plateau / traveling-wave decomposition for Riemann-type data.

Once the family boundary characteristics issued from the edges of the
non-constant interval have all crossed (time ``settling_time``), the
solution is exactly constant plateaus separated by rigid traveling
profiles.  Crossing times come in closed form because, in Lagrangian
coordinates, every boundary characteristic is a straight line.
"""

from dataclasses import dataclass, field

import numpy as np

# verify_pattern's samples per domain and their inset, a fraction of its width.
_SAMPLES, _INSET = 7, 1e-3


class NotDecomposedError(RuntimeError):
    """Queried before the decomposition time: domains are not yet ordered."""


@dataclass
class WavePattern:
    """Boundary curves, crossing-time table and plateau states of a solution."""

    solution: object
    half_width: float
    z_edges: tuple  # (Z0(-L), Z0(+L))
    crossing_times: dict  # (p, q) -> time, for family pairs p < q
    settling_time: float  # None for single-family systems
    plateau_states: tuple = field(default=())

    @property
    def family_count(self):
        return len(self.solution.system.families)

    def boundaries(self, t):
        """Arrays (minus, plus) of all family boundary positions at time t,
        from one ``position`` call."""
        z = np.array(self.z_edges)[:, None] + self.solution.system.family_speeds * t
        return tuple(self.solution.position(t, z))

    def classify(self, t, x):
        """Domain label at (t, x) for t past the settling time.

        Wave domain D_p (1-based family p) is the half-open strip
        X_p^-(t) < x <= X_p^+(t); plateau D_{s+p} sits between X_p^+(t) and
        X_{p+1}^-(t); D_0 and D_{2s} are the constant far fields.
        """
        if self.settling_time is None:
            raise NotDecomposedError("single-family system has no decomposition")
        if not t > self.settling_time:
            raise NotDecomposedError(
                "t = %g is not past the settling time %g" % (t, self.settling_time)
            )
        minus, plus = self.boundaries(t)
        s = self.family_count
        if x <= minus[0]:
            return "D0"
        for p in range(s):
            if x <= plus[p]:
                return "D%d" % (p + 1)
            if p + 1 < s and x <= minus[p + 1]:
                return "D%d" % (s + p + 1)
        return "D%d" % (2 * s)

    def constant_state(self, label):
        """Predicted constant state on a plateau/far-field label."""
        s = self.family_count
        idx = int(label[1:])
        if idx == 0:
            return self.plateau_states[0]
        if idx == 2 * s:
            return self.plateau_states[s]
        if s < idx < 2 * s:
            return self.plateau_states[idx - s]
        raise ValueError("%s is a wave domain, not a constant one" % label)


def wave_pattern(solution):
    """Closed-form crossing times and plateau states for a solution.

    t_{p,q} = (Z0(L) - Z0(-L)) / (speed_q - speed_p) for family pairs p < q;
    the settling time is their maximum.  Plateau state number p takes
    right-tail values on components of families <= p and left-tail values on
    the rest.
    """
    sysm = solution.system
    prof = solution.initial
    L = prof.half_width
    z_minus = float(solution.initial_coordinate(-L))
    z_plus = float(solution.initial_coordinate(L))
    gap = z_plus - z_minus
    speeds = sysm.family_speeds.tolist()
    crossing = {}
    for p in range(len(speeds)):
        for q in range(p + 1, len(speeds)):
            crossing[(p, q)] = gap / (speeds[q] - speeds[p])
    settling = max(crossing.values()) if crossing else None

    states = tuple(sysm.mixed_state(prof.left_tail, prof.right_tail, p)
                   for p in range(len(speeds) + 1))
    return WavePattern(
        solution=solution,
        half_width=L,
        z_edges=(z_minus, z_plus),
        crossing_times=crossing,
        settling_time=settling,
        plateau_states=states,
    )


@dataclass
class PlateauCheck:
    domain: str
    kind: str  # "plateau" or "shift"
    worst: float
    tol: float

    @property
    def passed(self):
        return self.worst <= self.tol


@dataclass
class PlateauReport:
    time: float
    time2: float
    checks: list

    @property
    def passed(self):
        return all(c.passed for c in self.checks)


def verify_pattern(solution, pattern, t, t2=None, plateau_tol=1e-9, shift_tol=1e-8):
    """Check the decomposition at time t (and shift invariance against t2).

    (a) Sampled states on every constant domain match the predicted
    constants; (b) on each wave domain, the carried components at t2 shifted
    by the frozen eigenvalue speed reproduce their values at t.
    """
    if pattern.settling_time is None or not t > pattern.settling_time:
        raise NotDecomposedError("verification requires t past the settling time")
    if t2 is None:
        t2 = 1.5 * t
    if not t2 > t:
        raise ValueError("t2 must exceed t")
    sysm = solution.system
    s = pattern.family_count
    minus, plus = pattern.boundaries(t)

    # Constant domains (far fields and interior plateaus), then wave domains.
    spans = [("D0", minus[0] - 2.0, minus[0])]
    for p in range(s - 1):
        spans.append(("D%d" % (s + p + 1), plus[p], minus[p + 1]))
    spans.append(("D%d" % (2 * s), plus[-1], plus[-1] + 2.0))
    spans += [("D%d" % (p + 1), minus[p], plus[p]) for p in range(s)]
    xs = np.array([np.linspace(lo + _INSET * (hi - lo), hi - _INSET * (hi - lo), _SAMPLES)
                   for _, lo, hi in spans])
    # Frozen speed of wave domain p: eigenvalue of family p at the mixed
    # state with slower families on their right tails; family p's own slots
    # are irrelevant by linear degeneracy.
    speeds = np.array([float(sysm.eigenvalue(sysm.families[p].components[0],
                                             pattern.plateau_states[p]))
                       for p in range(s)])
    # One evaluate at t over every domain, one at t2 over the shifted waves.
    w1 = solution.evaluate(t, xs)
    w2 = solution.evaluate(t2, xs[s + 1:] + speeds[:, None] * (t2 - t))
    checks = [PlateauCheck(label, "plateau",
                           float(np.max(np.abs(w - pattern.constant_state(label)))),
                           plateau_tol)
              for (label, _, _), w in zip(spans[: s + 1], w1)]
    # Wave domains: rigid translation of carried components at the frozen speed.
    for p in range(s):
        cols = list(sysm.families[p].components)
        worst = float(np.max(np.abs(w2[p][..., cols] - w1[s + 1 + p][..., cols])))
        checks.append(PlateauCheck("D%d" % (p + 1), "shift", worst, shift_tol))
    return PlateauReport(time=t, time2=t2, checks=checks)
