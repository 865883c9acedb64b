"""Explicit traveling-wave limits and decay measurement.

Two construction routes are implemented for the limit shape map of each
component and cross-validated: the generic one (single-component
perturbation integrals with reciprocal-speed-gap weights for moving
families, a truncated time integral for zero-speed families) and the
Born-Infeld closed forms built from running primitives of the two extreme
invariants.  The generic route needs equal two-sided tails; the model route
only needs the one-sided limits every profile has, plus the gap condition.
"""

from dataclasses import dataclass

import numpy as np

from .cheb import fit_piecewise
from .maps import MonotoneMap
from .quadrature import integrate, integrate_abs
from .solver import UnsupportedModelError

# Constituent quadratures run well below the shape tabulation tolerance so
# the tabulated maps see a smooth function, not quadrature jitter.
_SHAPE_QUAD_TOL = 1e-12
_SHAPE_FIT_RTOL = 1e-11


class UnequalTailsError(ValueError):
    """The generic route requires identical constant states at both tails."""


class GapConditionError(ValueError):
    """inf mu0 > sup lam0 fails, so the model shape maps need not be increasing."""


class ShapeFloorError(RuntimeError):
    """The shape map's derivative floor is not positive (map not invertible)."""


@dataclass(frozen=True, eq=False)
class ShapeFunction:
    """Limit deformation of the coordinate map for one component.

    ``forward`` is the strictly increasing shape map; ``inverse`` evaluates
    its inverse.  ``limit_speed`` is the traveling speed of the asymptotic
    profile and ``derivative_floor`` the certified positive lower bound of
    the forward derivative.
    """

    component: int
    route: str
    forward: MonotoneMap
    limit_speed: float
    derivative_floor: float

    def __call__(self, x):
        return self.forward(x)

    def inverse(self, y):
        return self.forward.invert(y)


@dataclass
class DecayReport:
    """L1 distances between the solution and its traveling-wave prediction."""

    component: int
    route: str
    times: tuple
    distances: tuple

    @property
    def decreased(self):
        return self.distances[-1] < self.distances[0]

    @property
    def ratio(self):
        if self.distances[0] == 0.0:
            return 0.0
        return self.distances[-1] / self.distances[0]


# -- hypotheses ---------------------------------------------------------------


def _equal_tails_state(sol):
    if not sol.initial.equal_tails():
        raise UnequalTailsError(
            "generic shape construction requires equal constant tails"
        )
    return sol.initial.left_tail


def _default_ref(system, i):
    fam = system.family_of[i]
    for j in range(system.n):
        if system.family_of[j] != fam:
            return j
    raise ValueError("no component with a distinct eigenvalue exists")


def _check_ref(system, i, ref):
    if ref is None:
        return _default_ref(system, i)
    if system.family_of[ref] == system.family_of[i]:
        raise ValueError(
            "reference component %d rides the same family as %d" % (ref, i)
        )
    return ref


def limit_speed_mixed(sol, i):
    """Traveling speed of component i's asymptotic wave.

    Eigenvalue at the mixed state with right tails for slower families and
    left tails for faster ones; reduces to the eigenvalue at the common tail
    state when the tails are equal.
    """
    sysm = sol.system
    fam = sysm.family_of[i]
    w = np.where(
        np.asarray(sysm.family_of) < fam,
        sol.initial.right_tail,
        sol.initial.left_tail,
    )
    return float(sysm.eigenvalue(i, w))


# -- generic route (equal tails) ----------------------------------------------


def tail_term(sol, i, x):
    """Density part of the shape correction for component i at x.

    Integral of 1/N(translated initial data) - 1/N(tail state) from Z0(x)
    toward the family's escape direction; identically zero for zero-speed
    families.  The integrand vanishes outside the breakpoint images, so the
    improper integral is a finite kink-aware quadrature.
    """
    w_bar = _equal_tails_state(sol)
    s = sol.system.lagrangian_speeds[i]
    if s == 0.0:
        return 0.0
    zx = float(sol.initial_coordinate(x))
    target = float(sol.zeta[-1]) if s > 0 else float(sol.zeta[0])
    inv_bar = 1.0 / float(sol.system.density(w_bar))

    def f(xi):
        return 1.0 / sol.system.density(sol.state_lagrangian(0.0, xi)) - inv_bar

    kinks = [z for z in sol.zeta if min(zx, target) < z < max(zx, target)]
    return integrate(f, zx, target, kinks=kinks, tol=_SHAPE_QUAD_TOL)


def _slot_eigenvalue(sol, eig_index, slot, values, w_bar):
    """Eigenvalue of ``eig_index`` at the tail state with one slot replaced."""
    values = np.asarray(values, dtype=float)
    states = np.broadcast_to(w_bar, values.shape + w_bar.shape).copy()
    states[..., slot] = values
    return sol.system.eigenvalue(eig_index, states)


def coupling_term(sol, i, x, ref=None):
    """Interaction part of the shape correction for component i at x.

    For a moving family: perturbation integrals of eigenvalues with one
    component excursion, weighted by reciprocal Lagrangian speed gaps, the
    whole-line ones over strictly faster (slower) components plus half-line
    ones for every component carried by i's own family, read through any
    reference component with a distinct eigenvalue.  For a zero-speed
    family: the time integral of the component's own eigenvalue along its
    fiber, truncated at the exact horizon past which all moving arguments
    have left the core.
    """
    w_bar = _equal_tails_state(sol)
    sysm = sol.system
    s_i = float(sysm.lagrangian_speeds[i])
    zx = float(sol.initial_coordinate(x))
    z_lo, z_hi = float(sol.zeta[0]), float(sol.zeta[-1])
    inner = [z for z in sol.zeta[1:-1]]

    if s_i == 0.0:
        lam_bar = float(sysm.eigenvalue(i, w_bar))
        moving = [f.speed for f in sysm.families if f.speed != 0.0]
        z_max = max(abs(z_lo), abs(z_hi))
        tau_star = max((abs(zx) + z_max) / abs(s) for s in moving)

        def f(tau):
            w = sol.state_lagrangian(tau, zx)
            return sol.system.eigenvalue(i, w) - lam_bar

        kinks = []
        for s in moving:
            taus = (zx - sol.zeta) / s
            kinks.extend(taus[(taus > 0.0) & (taus < tau_star)])
        return integrate(f, 0.0, tau_star, kinks=kinks, tol=_SHAPE_QUAD_TOL)

    ref = _check_ref(sysm, i, ref)
    total = 0.0
    lam_bar_i = float(sysm.eigenvalue(i, w_bar))
    for j in range(sysm.n):
        s_j = float(sysm.lagrangian_speeds[j])
        if s_i > 0.0 and s_j > s_i:
            weight = 1.0 / (s_j - s_i)
        elif s_i < 0.0 and s_j < s_i:
            weight = 1.0 / (s_i - s_j)
        else:
            continue

        def f_j(xi, j=j):
            vals = sol.state_lagrangian(0.0, xi)[..., j]
            return _slot_eigenvalue(sol, i, j, vals, w_bar) - lam_bar_i

        total += weight * integrate(f_j, z_lo, z_hi, kinks=inner, tol=_SHAPE_QUAD_TOL)

    # Half-line terms: one single-slot perturbation integral per component
    # the family carries (they all translate at speed_i, so each window
    # freezes at Z0(x)); with one component per family this is the single
    # slot-i term of the strictly hyperbolic formula.
    s_ref = float(sysm.lagrangian_speeds[ref])
    lam_bar_ref = float(sysm.eigenvalue(ref, w_bar))
    target = z_hi if s_i > 0.0 else z_lo
    kinks = [z for z in sol.zeta if min(zx, target) < z < max(zx, target)]
    for j in sysm.families[sysm.family_of[i]].components:

        def f_slot(xi, j=j):
            vals = sol.state_lagrangian(0.0, xi)[..., j]
            return _slot_eigenvalue(sol, ref, j, vals, w_bar) - lam_bar_ref

        total += (1.0 / (s_i - s_ref)) * integrate(
            f_slot, zx, target, kinks=kinks, tol=_SHAPE_QUAD_TOL
        )
    return total


def shape_derivative(sol, i, x, ref=None):
    """Closed-form derivative of the generic shape map (moving families only).

    psi'(x) = 1 - N(w0(x)) * (f(w0(x)) - f(tail state)) with
    f(w) = 1/N(w) + sum over carried slots j of
    eigenvalue_ref(tail state with slot j = w_j) / speed gap.
    """
    w_bar = _equal_tails_state(sol)
    sysm = sol.system
    s_i = float(sysm.lagrangian_speeds[i])
    if s_i == 0.0:
        raise ValueError("closed-form derivative needs a nonzero Lagrangian speed")
    ref = _check_ref(sysm, i, ref)
    s_ref = float(sysm.lagrangian_speeds[ref])
    gap = s_i - s_ref
    w0x = sol.initial(x)
    lam_slot_bar = float(sysm.eigenvalue(ref, w_bar))
    f_x = 1.0 / sysm.density(w0x)
    f_bar = 1.0 / float(sysm.density(w_bar))
    for j in sysm.families[sysm.family_of[i]].components:
        f_x = f_x + _slot_eigenvalue(sol, ref, j, w0x[..., j], w_bar) / gap
        f_bar = f_bar + lam_slot_bar / gap
    return 1.0 - sysm.density(w0x) * (f_x - f_bar)


def build_shape(sol, i, ref=None):
    """Generic-route shape map for component i, as a MonotoneMap.

    The map is identity plus the coupling and density corrections, tabulated
    per profile segment with exact slope-one affine tails (the corrections
    freeze once Z0(x) leaves the breakpoint images).  Construction fails with
    :class:`ShapeFloorError` when the derivative floor is not positive.
    """
    _equal_tails_state(sol)
    sysm = sol.system
    ref = _check_ref(sysm, i, ref) if sysm.lagrangian_speeds[i] != 0.0 else ref

    def psi_scalar(x):
        return (
            float(x)
            + coupling_term(sol, i, float(x), ref)
            + tail_term(sol, i, float(x))
        )

    def psi_vec(xs):
        return np.array([psi_scalar(v) for v in np.atleast_1d(xs)])

    xs = sol.initial.breakpoints
    tab = fit_piecewise(psi_vec, xs, rtol=_SHAPE_FIT_RTOL, tail_slopes=(1.0, 1.0))

    s_i = float(sysm.lagrangian_speeds[i])
    dense = np.concatenate(
        [np.linspace(xs[k], xs[k + 1], 257)[:-1] for k in range(len(xs) - 1)]
        + [xs[-1:]]
    )
    if s_i != 0.0:
        deriv_vals = shape_derivative(sol, i, dense, ref)
    else:
        deriv_vals = tab.derivative()(dense)
    floor = min(1.0, float(np.min(deriv_vals)))
    if floor <= 0.0:
        raise ShapeFloorError(
            "shape map for component %d is not invertible: min derivative %.6g"
            % (i, floor)
        )
    d_max = max(1.0, float(np.max(deriv_vals)))
    forward = MonotoneMap(
        tab,
        x_lo=float(xs[0]),
        x_hi=float(xs[-1]),
        d_min=floor * 0.999,
        d_max=d_max * 1.001,
        left_slope=1.0,
        right_slope=1.0,
        deriv=tab.derivative(),
        tol=1e-11,
    )
    return ShapeFunction(
        component=i,
        route="generic",
        forward=forward,
        limit_speed=limit_speed_mixed(sol, i),
        derivative_floor=floor,
    )


# -- Born-Infeld closed forms ---------------------------------------------------


def _bi_pieces(sol):
    st = sol.system.bi_structure
    if st is None:
        raise UnsupportedModelError(
            "%s lacks the Born-Infeld structure" % sol.system.name
        )
    prof = sol.initial
    mu_vals = prof.values[:, st.mu]
    lam_vals = prof.values[:, st.lam]
    if float(mu_vals.min()) <= float(lam_vals.max()):
        raise GapConditionError(
            "gap condition violated: inf mu0 = %.6g <= sup lam0 = %.6g"
            % (float(mu_vals.min()), float(lam_vals.max()))
        )
    lam_minus = float(prof.left_tail[st.lam])
    mu_plus = float(prof.right_tail[st.mu])
    return st, lam_minus, mu_plus


def _slow_correction(sol, st, lam_minus):
    """x-dependent part of the slow shape: frozen-primitive form of the
    running integral of (lam in Lagrangian coordinates - its left limit)."""
    p_lam = sol._p_lam
    z_lo = float(sol.zeta[0])
    base = float(p_lam(z_lo))

    def corr(zx):
        return ((p_lam(zx) - base) - lam_minus * (zx - z_lo)) / (2.0 * st.a)

    return corr


def _fast_correction(sol, st, mu_plus):
    p_mu = sol._p_mu
    z_hi = float(sol.zeta[-1])
    top = float(p_mu(z_hi))

    def corr(zx):
        return ((top - p_mu(zx)) - mu_plus * (z_hi - zx)) / (2.0 * st.a)

    return corr


def _shape_from_correction(sol, corr, deriv_at, component, route, limit_speed):
    xs = sol.initial.breakpoints

    def forward(xv):
        zx = sol.initial_coordinate(np.asarray(xv, dtype=float))
        return np.asarray(xv, dtype=float) + corr(zx)

    # The derivative is a ratio of affine functions per segment, so its
    # extrema over the core sit at the breakpoints.
    dvals = np.asarray(deriv_at(xs), dtype=float)
    floor = float(np.min(dvals))
    if floor <= 0.0:
        raise GapConditionError(
            "shape derivative nonpositive (%.6g) despite gap check" % floor
        )
    left_slope = float(deriv_at(np.array([xs[0] - 1.0]))[0])
    right_slope = float(deriv_at(np.array([xs[-1] + 1.0]))[0])
    fmap = MonotoneMap(
        forward,
        x_lo=float(xs[0]),
        x_hi=float(xs[-1]),
        d_min=min(floor, left_slope, right_slope),
        d_max=max(float(np.max(dvals)), left_slope, right_slope),
        left_slope=left_slope,
        right_slope=right_slope,
        deriv=deriv_at,
        tol=1e-11,
    )
    return ShapeFunction(
        component=component,
        route=route,
        forward=fmap,
        limit_speed=limit_speed,
        derivative_floor=min(floor, left_slope, right_slope),
    )


def bi_shape(sol, side):
    """Born-Infeld shape map: ``side`` is "slow" (mu component) or "fast" (lam).

    Needs only the one-sided limits (left limit of lam, right limit of mu)
    and the gap condition; no smallness assumption.
    """
    st, lam_minus, mu_plus = _bi_pieces(sol)
    prof = sol.initial

    def mu0(xv):
        return prof.component(st.mu, xv)

    def lam0(xv):
        return prof.component(st.lam, xv)

    if side == "slow":
        corr = _slow_correction(sol, st, lam_minus)

        def deriv(xv):
            return (mu0(xv) - lam_minus) / (mu0(xv) - lam0(xv))

        return _shape_from_correction(sol, corr, deriv, st.mu, "bi-slow", lam_minus)
    if side == "fast":
        corr = _fast_correction(sol, st, mu_plus)

        def deriv(xv):
            return (mu_plus - lam0(xv)) / (mu0(xv) - lam0(xv))

        return _shape_from_correction(sol, corr, deriv, st.lam, "bi-fast", mu_plus)
    raise ValueError("side must be 'slow' or 'fast'")


def abi_middle_shape(sol):
    """Middle-family shape map of the augmented system: both corrections at once."""
    st, lam_minus, mu_plus = _bi_pieces(sol)
    zero_fams = [f for f in sol.system.families if f.speed == 0.0]
    if not zero_fams:
        raise UnsupportedModelError("system has no zero-speed family")
    comp = zero_fams[0].components[0]
    prof = sol.initial
    slow = _slow_correction(sol, st, lam_minus)
    fast = _fast_correction(sol, st, mu_plus)

    def corr(zx):
        return slow(zx) + fast(zx)

    def deriv(xv):
        return (mu_plus - lam_minus) / (
            prof.component(st.mu, xv) - prof.component(st.lam, xv)
        )

    return _shape_from_correction(
        sol, corr, deriv, comp, "abi-middle", 0.5 * (lam_minus + mu_plus)
    )


# -- convergence measurements ------------------------------------------------------


def traveling_frame_position(sol, i, x, t):
    """Position map along component i's fiber, recentred on the limit speed.

    X(t, Z0(x) + speed_i t) - limit_speed t; converges to the shape map at x
    (exactly, past a finite horizon, for compact-core profiles).
    """
    s = sol.system.lagrangian_speeds[i]
    zx = sol.initial_coordinate(np.asarray(x, dtype=float))
    return np.asarray(
        sol.position(t, zx + s * np.asarray(t, dtype=float)), dtype=float
    ) - limit_speed_mixed(sol, i) * np.asarray(t, dtype=float)


def decay_curve(sol, shape, times, margin=1.0):
    """L1 distance of component ``shape.component`` from its predicted wave.

    The prediction is the initial component composed with the inverse shape
    map in the frame moving at ``shape.limit_speed``; integration runs over
    the interval outside which both solution and prediction are exactly at
    their shared tail values.
    """
    times = [float(t) for t in times]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("times must be strictly increasing")
    i = shape.component
    prof = sol.initial
    speed = shape.limit_speed
    dists = []
    for t in times:
        lo1, hi1 = sol.support_interval(t, margin=margin)
        plo = float(shape.forward.f_lo) + speed * t - margin
        phi = float(shape.forward.f_hi) + speed * t + margin
        lo, hi = min(lo1, plo), max(hi1, phi)

        def diff(xv):
            pred = prof.component(i, shape.inverse(np.asarray(xv) - speed * t))
            return sol.evaluate(t, xv)[..., i] - pred

        kinks = list(sol.solution_kinks(t, lo=lo, hi=hi))
        kinks += [
            v + speed * t
            for v in np.asarray(shape.forward(prof.breakpoints), dtype=float)
        ]
        dists.append(integrate_abs(diff, lo, hi, kinks, tol=sol.quad_tol))
    return DecayReport(
        component=i, route=shape.route, times=tuple(times), distances=tuple(dists)
    )
