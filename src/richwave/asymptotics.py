"""Explicit traveling-wave limits, and decay measured by the solver's L1 integrator.

Every limit shape map is identity plus a correction read at Z0(x), and one
builder (:func:`_shape_from_correction`) turns any such correction into a
shape map.  Two routes supply the corrections and are cross-validated: the
generic one (single-component perturbation integrals with
reciprocal-speed-gap weights for moving families, a truncated time integral
for zero-speed families), tabulated once over the breakpoint images and
read from running primitives, and the Born-Infeld closed forms built from
running primitives of the two extreme invariants.  The generic route needs
equal two-sided tails; the model route only needs the one-sided limits
every profile has, plus the gap condition.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cheb import fit_piecewise
from .maps import MonotoneMap, _inverse_table
from .quadrature import integrate
from .solver import UnsupportedModelError, _check_times, _l1_distances, _snapshot_side

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

    ``forward`` is the strictly increasing shape map and ``inverse`` its
    inverse, a certified table built on first use.  ``limit_speed`` is the
    traveling speed of the asymptotic profile, ``derivative_floor`` the
    certified positive lower bound of the forward derivative.  The map is
    smooth between the profile ``breakpoints``.
    """

    component: int
    route: str
    forward: MonotoneMap
    limit_speed: float
    derivative_floor: float
    breakpoints: np.ndarray

    def __call__(self, x):
        return self.forward(x)

    @cached_property
    def inverse(self):
        """The inverse as a certified ``maps.InverseTable``, built on first use.

        Its breaks are the forward images of the breakpoints (bisected if
        need be), its tails have slopes ``1/left_slope`` and ``1/right_slope``
        and its certificate is ``|S(table(y)) - y| <= forward.tol``.
        """
        fmap = self.forward
        return _inverse_table(fmap._step, [(self.breakpoints, fmap(self.breakpoints))],
                              (fmap.left_slope, fmap.right_slope), fmap.tol,
                              ["S^-1 (route %s, component %d)" % (self.route, self.component)])[0]


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


def _check_ref(system, i, ref):
    fam = system.family_of[i]
    if ref is None:
        ref = next((j for j in range(system.n) if system.family_of[j] != fam), None)
        if ref is None:
            raise ValueError("no component with a distinct eigenvalue exists")
    elif system.family_of[ref] == fam:
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
    w = sysm.mixed_state(sol.initial.left_tail, sol.initial.right_tail, sysm.family_of[i])
    return float(sysm.eigenvalue(i, w))


# -- generic route (equal tails) ----------------------------------------------


def _slot_eigenvalue(sol, eig_index, slot, values, w_bar):
    """Eigenvalue of ``eig_index`` at the tail state with one slot replaced."""
    values = np.asarray(values, dtype=float)
    states = np.broadcast_to(w_bar, values.shape + w_bar.shape).copy()
    states[..., slot] = values
    return sol.system.eigenvalue(eig_index, states)


def _whole_line_sum(sol, i, w_bar):
    """The x-independent part C_i of moving family i's coupling correction:
    whole-line perturbation integrals of eigenvalue i with one strictly
    faster (slower, for speed_i < 0) component excursion, weighted by the
    reciprocal speed gaps, summed into one quadrature."""
    speeds = sol.system.lagrangian_speeds
    s_i = float(speeds[i])
    ahead = [j for j, s_j in enumerate(speeds) if s_j > s_i > 0.0 or s_j < s_i < 0.0]
    if not ahead:
        return 0.0
    lam_bar = float(sol.system.eigenvalue(i, w_bar))

    def f(xi):
        w = sol.state_lagrangian(0.0, xi)
        return sum(
            (_slot_eigenvalue(sol, i, j, w[..., j], w_bar) - lam_bar)
            / abs(speeds[j] - s_i)
            for j in ahead
        )

    return integrate(f, sol.zeta[0], sol.zeta[-1], sol.zeta, tol=_SHAPE_QUAD_TOL)


def _zero_speed_integrals(sol, i, zs, w_bar):
    """Zero-speed family i's correction at the fibers zs = Z0(x).

    The time integral of eigenvalue i minus its tail value, truncated at
    tau* = max_s (|z| + max |zeta|) / |s|, past which every moving argument
    has left the core; one ``integrate`` pass for all fibers, with the
    crossing times (z - zeta_k) / s as kinks.
    """
    lam_bar = float(sol.system.eigenvalue(i, w_bar))
    speeds = sol.system.family_speeds
    speeds = speeds[speeds != 0.0]
    zs = np.asarray(zs, dtype=float).reshape(-1)
    z_max = float(np.max(np.abs(sol.zeta)))
    tau_star = np.max((np.abs(zs)[:, None] + z_max) / np.abs(speeds), axis=1)
    kinks = sol._crossing_times(zs)

    def f(tau, owner):
        w = sol.state_lagrangian(tau, zs[owner])
        return sol.system.eigenvalue(i, w) - lam_bar

    return integrate(f, np.zeros_like(zs), tau_star, kinks, tol=_SHAPE_QUAD_TOL)


def _density_integrand(sol, i, ref, w_bar):
    """h(w) = 1/N(w) + sum over the slots j of i's family of
    eigenvalue_ref(tail state with slot j = w_j) / (speed_i - speed_ref)."""
    sysm = sol.system
    gap = float(sysm.lagrangian_speeds[i] - sysm.lagrangian_speeds[ref])

    def h(w):
        out = 1.0 / sysm.density(w)
        for j in sysm.families[sysm.family_of[i]].components:
            out = out + _slot_eigenvalue(sol, ref, j, w[..., j], w_bar) / gap
        return out

    return h


def build_shape(sol, i, ref=None):
    """Generic-route shape map x + corr(Z0(x)) for component i.

    corr is tabulated once over the breakpoint images ``zeta``.  A moving
    family's correction is the whole-line sum C_i plus the integral of
    h - h(tail state) from Z0(x) to the escape end (the sum of the
    coupling and tail perturbation integrals), read from the running
    primitive of the tabulated h (not of h - h(tail), which is zero to
    rounding on constant segments, where the fit's relative stopping test
    fails).  A zero-speed family's time integrals are tabulated directly.
    Raises :class:`ShapeFloorError` when the derivative floor is not positive.
    """
    w_bar = _equal_tails_state(sol)
    sysm = sol.system
    s_i = float(sysm.lagrangian_speeds[i])
    zeta = sol.zeta
    if s_i == 0.0:
        corr = fit_piecewise(
            lambda zs: _zero_speed_integrals(sol, i, zs, w_bar), zeta, _SHAPE_FIT_RTOL
        )
        dcorr = corr.derivative()
    else:
        h = _density_integrand(sol, i, _check_ref(sysm, i, ref), w_bar)
        h_tab = fit_piecewise(
            lambda zs: h(sol.state_lagrangian(0.0, zs)), zeta, _SHAPE_FIT_RTOL
        )
        prim = h_tab.antiderivative()
        h_bar = float(h(w_bar))
        target = float(zeta[-1]) if s_i > 0.0 else float(zeta[0])
        c_i = _whole_line_sum(sol, i, w_bar)
        p_target = float(prim(target))

        def corr(zx):
            return c_i + (p_target - prim(zx)) - h_bar * (target - zx)

        def dcorr(zx):
            return h_bar - h_tab(zx)

    def deriv(xv):
        n0 = sysm.density(sol.initial(xv))
        return 1.0 + dcorr(sol.initial_coordinate(xv)) * n0

    return _shape_from_correction(
        sol, corr, deriv, i, "generic", limit_speed_mixed(sol, i)
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


def _shape_from_correction(sol, corr, deriv_at, component, route, limit_speed):
    """Shape map x + corr(Z0(x)) with derivative ``deriv_at``: both routes.

    The correction freezes once Z0(x) leaves the breakpoint images, so the
    map is exactly affine outside the profile's core.  Raises
    :class:`ShapeFloorError` when the derivative floor is not positive.
    """
    xs = sol.initial.breakpoints

    def forward(xv):
        xv = np.asarray(xv, dtype=float)
        return xv + corr(sol.initial_coordinate(xv))

    # The floor is sampled on 257 points per profile segment: the model
    # derivatives are ratios of affine functions, monotone per segment, but
    # the generic ones need not be.
    dvals = np.asarray(deriv_at(sol.initial.segment_samples(257)), dtype=float)
    left_slope = float(deriv_at(np.array([xs[0] - 1.0]))[0])
    right_slope = float(deriv_at(np.array([xs[-1] + 1.0]))[0])
    floor = min(float(np.min(dvals)), left_slope, right_slope)
    if floor <= 0.0:
        raise ShapeFloorError(
            "shape map for component %d is not invertible: min derivative %.6g"
            % (component, floor)
        )
    fmap = MonotoneMap(
        forward, x_lo=float(xs[0]), x_hi=float(xs[-1]),
        left_slope=left_slope, right_slope=right_slope, deriv=deriv_at, tol=1e-11,
    )
    return ShapeFunction(component, route, fmap, limit_speed, derivative_floor=floor,
                         breakpoints=xs)


def _model_shape(sol, slow, fast, component, route, limit_speed):
    """Born-Infeld model shape map from the slow correction, the fast one or
    their sum (the middle map).

    Each correction is the frozen-primitive form of a running integral in
    Lagrangian coordinates: of lam minus its left limit from the left end
    (slow), of mu minus its right limit to the right end (fast).
    """
    st, lam_minus, mu_plus = _bi_pieces(sol)
    prof = sol.initial
    z_lo, z_hi = float(sol.zeta[0]), float(sol.zeta[-1])
    base, top = float(sol._p_lam(z_lo)), float(sol._p_mu(z_hi))

    def corr(zx):
        parts = []
        if slow:
            parts.append(((sol._p_lam(zx) - base) - lam_minus * (zx - z_lo)) / (2.0 * st.a))
        if fast:
            parts.append(((top - sol._p_mu(zx)) - mu_plus * (z_hi - zx)) / (2.0 * st.a))
        return sum(parts[1:], parts[0])

    def deriv(xv):
        mu0, lam0 = prof.component(st.mu, xv), prof.component(st.lam, xv)
        return ((mu_plus if fast else mu0) - (lam_minus if slow else lam0)) / (mu0 - lam0)

    return _shape_from_correction(sol, corr, deriv, component, route, limit_speed)


def bi_shape(sol, side):
    """Born-Infeld shape map: ``side`` is "slow" (mu component) or "fast" (lam).

    Needs only the one-sided limits (left limit of lam, right limit of mu)
    and the gap condition; no smallness assumption.
    """
    st, lam_minus, mu_plus = _bi_pieces(sol)
    if side == "slow":
        return _model_shape(sol, True, False, st.mu, "bi-slow", lam_minus)
    if side == "fast":
        return _model_shape(sol, False, True, st.lam, "bi-fast", mu_plus)
    raise ValueError("side must be 'slow' or 'fast'")


def abi_middle_shape(sol):
    """Middle-family shape map of the augmented system: the slow plus the
    fast correction."""
    _, lam_minus, mu_plus = _bi_pieces(sol)
    zero_fams = [f for f in sol.system.families if f.speed == 0.0]
    if not zero_fams:
        raise UnsupportedModelError("system has no zero-speed family")
    return _model_shape(sol, True, True, zero_fams[0].components[0], "abi-middle",
                        0.5 * (lam_minus + mu_plus))


# -- convergence measurements ------------------------------------------------------


def decay_curve(sol, shapes, times):
    """L1 distances of components ``shape.component`` from their predicted waves.

    Each prediction is the initial component composed with the inverse shape
    map in the frame moving at ``shape.limit_speed``, with the shape map's
    breakpoint images as kinks.  All ``(shape, time)`` pairs share one
    ``solver._l1_distances`` pass, which reads the solution from its
    snapshots, every time built by one ``snapshots`` call (kinks included),
    and each prediction from its shape's inverse; returns one
    :class:`DecayReport` per shape, none without shapes.
    """
    ts = _check_times(np.array([float(t) for t in times]))
    if ts.size == 0 or np.any(np.diff(ts) <= 0.0):
        raise ValueError("times must be non-empty and strictly increasing")
    if not shapes:
        return []
    prof, nt = sol.initial, len(ts)
    ct = np.outer([shape.limit_speed for shape in shapes], ts).ravel()
    fwd = np.array([shape.forward(prof.breakpoints) for shape in shapes])
    snaps = sol.snapshots(ts)

    def predicted(xv, owner):  # owner s * nt + k: shapes[s] at time ts[k]
        out = np.empty(len(xv))
        for s, shape in enumerate(shapes):
            on = owner // nt == s
            out[on] = prof.component(shape.component, shape.inverse(xv[on] - ct[owner[on]]))
        return out

    comp = np.repeat([shape.component for shape in shapes], nt)
    dists = _l1_distances(_snapshot_side(snaps, np.arange(comp.size) % nt, comp),
                          (np.repeat(fwd, nt, axis=0) + ct[:, None], predicted), sol.quad_tol)
    return [DecayReport(component=shape.component, route=shape.route,
                        times=tuple(ts.tolist()), distances=tuple(d.tolist()))
            for shape, d in zip(shapes, dists.reshape(len(shapes), nt))]
