"""Shared test fixtures and independent oracles.

The oracles here deliberately avoid the package's fast paths: the crossing
oracle integrates the boundary characteristics as Eulerian ODEs with RK4,
the Riemann-sum oracle is brute-force midpoint summation, the per-point
position quadrature integrates one (t, z) at a time, the per-law box
residual integrates each conservation law in its own quadrature pass, and
the per-time decay curve and per-component pair distance run one L1
integral each, plain bisection makes one integrand call per step, the
per-segment Chebyshev fit solves least squares (``chebfit``) once per
segment and rung instead of taking an FFT, and the per-domain plateau check
evaluates each domain on its own, the box time-side kink search bisects
the sign flips of its own 65-point grid, the sign-change scan probes each
panel on its own, and the three Born-Infeld model shapes are written out
one by one.  The
pointwise shape-correction quadratures (``tail_term``, ``coupling_term``),
the closed-form generic shape derivative and the traveling-frame position
are the oracles the asymptotics tables and criterion 7 are tested against.
"""

import math

import numpy as np

from numpy.polynomial import chebyshev as C

from richwave import Family, PiecewiseProfile, RichSystem, integrate, l1_distance, maps
from richwave.asymptotics import (
    _SHAPE_QUAD_TOL,
    _bi_pieces,
    _check_ref,
    _density_integrand,
    _equal_tails_state,
    _shape_from_correction,
    _slot_eigenvalue,
    _whole_line_sum,
    _zero_speed_integrals,
    limit_speed_mixed,
)
from richwave.cheb import _DEGREES, PiecewiseCheb, TabulationError
from richwave.plateau import PlateauCheck
from richwave.quadrature import (
    _SIGN_ITERS,
    _SIGN_SAMPLES,
    _feval,
    bisect_brackets,
    integrate_abs,
)


def bi_tworamp_profile():
    """Equal-tails two-bump Born-Infeld data with a wide small-gap interior."""
    x = [-1.0, -0.7, -0.35, 0.45, 0.7, 1.0]
    mu = [1.0, 0.3, 0.14, 0.1, 0.75, 1.0]
    lam = [-1.0, -1.0, -0.02, -0.04, -0.45, -1.0]
    return PiecewiseProfile(x, np.column_stack([mu, lam]))


def bi_simple_wave_profile():
    x = [-1.0, -0.5, 0.0, 0.5, 1.0]
    mu = [1.0, 1.0, 1.5, 1.0, 1.0]
    lam = [-1.0] * 5
    return PiecewiseProfile(x, np.column_stack([mu, lam]))


def bi_mixing_ramps_profile():
    """Unequal-tails data: both invariants step between distinct side states."""
    x = [-1.0, -0.4, 0.2, 1.0]
    mu = [1.2, 1.2, 1.0, 1.0]
    lam = [-1.2, -0.8, -0.8, -0.8]
    return PiecewiseProfile(x, np.column_stack([mu, lam]))


def abi_middle_profile():
    x = [-1.0, -0.5, 0.0, 0.5, 1.0]
    vals = np.array(
        [
            [1.0, 0.0, -1.0],
            [1.0, 0.0, -1.0],
            [1.3, 0.5, -0.7],
            [1.0, 0.0, -1.0],
            [1.0, 0.0, -1.0],
        ]
    )
    return PiecewiseProfile(x, vals)


def three_speed_system():
    """Rich system with speeds (-1, 0.5, 2): affine 1/N and M/N.

    With 1/N = b0 + b.w and M/N = g0 + g.w, linear degeneracy of every
    family forces g_i = -speed_i * b_i; any such pair gives a valid catalog
    entry.  Unlike the Born-Infeld models, the middle family here has a
    nonzero speed with a strictly faster family above it.
    """
    speeds = np.array([-1.0, 0.5, 2.0])
    b0 = 1.0
    b = np.array([0.10, 0.15, -0.08])
    g0 = 0.3
    g = -speeds * b

    def inv_density(w):
        return b0 + np.sum(w * b, axis=-1)

    def density(w):
        return 1.0 / inv_density(w)

    def flux(w):
        return (g0 + np.sum(w * g, axis=-1)) * density(w)

    def admissible(w):
        return inv_density(w) > 0.05

    return RichSystem(
        "three-speed-demo",
        (Family(-1.0, (0,)), Family(0.5, (1,)), Family(2.0, (2,))),
        density,
        flux,
        admissible,
        admissibility_note="1/N > 0.05",
    )


def bi_with_passenger(a=1.0):
    """Born-Infeld with a multiplicity-2 slow family: w = (mu, p, lam).

    The passenger p is carried by the slow family alongside mu; the
    eigenvalues stay the Born-Infeld ones (lam and mu), so the system keeps
    constant multiplicity (2, 1) and the closed-form coordinate map.
    """
    from richwave import BIStructure

    def density(w):
        return 2.0 * a / (w[..., 0] - w[..., 2])

    def flux(w):
        return a * (w[..., 0] + w[..., 2]) / (w[..., 0] - w[..., 2])

    def admissible(w):
        return w[..., 0] > w[..., 2]

    return RichSystem(
        "bi-with-passenger(a=%g)" % a,
        (Family(-a, (0, 1)), Family(+a, (2,))),
        density,
        flux,
        admissible,
        admissibility_note="mu > lam",
        bi_structure=BIStructure(a=a, mu=0, lam=2),
    )


def bi_passenger_profile():
    x = [-1.0, -0.5, 0.0, 0.5, 1.0]
    vals = np.array(
        [
            [1.1, 0.0, -1.0],
            [1.1, 0.4, -1.0],
            [1.4, 0.4, -0.8],
            [1.1, 0.0, -0.8],
            [1.1, 0.0, -0.8],
        ]
    )
    return PiecewiseProfile(x, vals)


def separable_two_speed_system():
    """Rich system with nonlinear separable reciprocal density.

    1/N = g1(w1) + g2(w2) with quadratic g_i bounded below by 0.2, and
    M/N = -sum speed_i g_i(w_i): then d(M/N) = -speed_i d(1/N) along each
    component, so the pair is linearly degenerate and rich by construction,
    and admissibility holds on the whole state space.
    """
    speeds = (-1.0, 1.0)

    def g1(v):
        return 0.2 + 0.5 * v * v

    def g2(v):
        return 0.2 + 0.1 * v * v

    def density(w):
        return 1.0 / (g1(w[..., 0]) + g2(w[..., 1]))

    def flux(w):
        u = -speeds[0] * g1(w[..., 0]) - speeds[1] * g2(w[..., 1])
        return u * density(w)

    def admissible(w):
        return np.full(np.asarray(w).shape[:-1], True)

    return RichSystem(
        "separable-two-speed",
        (Family(speeds[0], (0,)), Family(speeds[1], (1,))),
        density,
        flux,
        admissible,
        admissibility_note="none (globally admissible)",
    )


def bump_profile_2(amp0, amp1):
    x = [-1.0, -0.5, 0.0, 0.5, 1.0]
    vals = np.array(
        [
            [0.0, 0.0],
            [amp0, 0.0],
            [0.0, amp1],
            [0.0, 0.0],
            [0.0, 0.0],
        ]
    )
    return PiecewiseProfile(x, vals)


def three_speed_profile():
    x = [-1.0, -0.5, 0.0, 0.5, 1.0]
    vals = np.array(
        [
            [0.0, 0.0, 0.0],
            [0.4, 0.0, -0.3],
            [0.0, 0.5, 0.2],
            [-0.3, 0.0, 0.0],
            [0.0, 0.0, 0.0],
        ]
    )
    return PiecewiseProfile(x, vals)


def position_quadrature_reference(sol, t, z):
    """X(t, z) for one point: crossing-time kink list plus one ``integrate``.

    The per-point form of ``LagrangianSolution.position_quadrature``, kept
    as the reference for its shared multi-point pass.
    """
    t = float(t)
    z = float(z)
    base = float(sol.initial_position(z))
    if t == 0.0:
        return base
    kinks = []
    for fam in sol.system.families:
        if fam.speed != 0.0:
            taus = (z - sol.zeta) / fam.speed
            kinks.extend(taus[(taus > 0.0) & (taus < t)])

    def ratio(tau):
        w = sol.state_lagrangian(tau, z)
        return sol.system.flux(w) / sol.system.density(w)

    return base + integrate(ratio, 0.0, t, kinks=kinks, tol=sol.quad_tol)


def box_residuals_reference(sol, box):
    """(conservation, per-component entropy) residuals, one pass per law.

    The per-law form of ``LagrangianSolution.box_residuals``: each of the
    n + 1 laws integrates its own density over the two time sides and its
    own flux over the two space sides with scalar ``integrate`` calls, on
    the same kinks.  Kept as the reference for the shared vector pass.
    """
    t1, t2, A, B = box
    space1 = sol.solution_kinks(t1)[1]
    space2 = sol.solution_kinks(t2)[1]
    time_a = sol._time_kinks(A, t1, t2)
    time_b = sol._time_kinks(B, t1, t2)
    density, flux = sol.system.density, sol.system.flux

    def residual(point_density, point_flux):
        def space_integral(t, kk):
            return integrate(
                lambda xs: point_density(sol.evaluate(t, xs)),
                A, B, kinks=kk, tol=sol.quad_tol,
            )

        def time_integral(x_side, kk):
            return integrate(
                lambda taus: point_flux(sol.evaluate(taus, x_side)),
                t1, t2, kinks=kk, tol=sol.quad_tol,
            )

        return abs(
            space_integral(t2, space2) - space_integral(t1, space1)
            + time_integral(B, time_b) - time_integral(A, time_a)
        )

    cons = residual(density, flux)
    entropies = tuple(
        residual(
            lambda w, i=i: density(w) * w[..., i],
            lambda w, i=i, s=s: (flux(w) + s) * w[..., i],
        )
        for i, s in enumerate(sol.system.lagrangian_speeds)
    )
    return cons, entropies


def random_bi_states(rng, count, a=1.0):
    mu = rng.uniform(-3.0, 3.0, size=count)
    gap = rng.uniform(0.1, 5.0, size=count)
    return np.column_stack([mu, mu - gap])


def random_abi_states(rng, count, a=1.0):
    mu = rng.uniform(-3.0, 3.0, size=count)
    gap = rng.uniform(0.1, 5.0, size=count)
    q = rng.uniform(-2.0, 2.0, size=count)
    return np.column_stack([mu, q, mu - gap])


def riemann_l1(f, lo, hi, n=1_000_000):
    """Midpoint-rule L1 mass of f on [lo, hi]: the brute-force norm oracle."""
    xs = lo + (np.arange(n) + 0.5) * (hi - lo) / n
    return float(np.sum(np.abs(f(xs))) * (hi - lo) / n)


def rk4_crossing_time(sol, p, q, dt=0.02, max_steps=500_000):
    """Crossing time of family p's right and family q's left boundary curves.

    Integrates dX/dt = lambda(w(t, X)) for both characteristics with fixed-step
    RK4 (solution values from the engine, nothing from the closed-form
    crossing formula), then refines the bracketed crossing with a secant
    iteration on re-integration from the last pre-crossing state.
    """
    sysm = sol.system
    L = sol.initial.half_width
    cp = sysm.families[p].components[0]
    cq = sysm.families[q].components[0]

    def rhs(t, xs):
        w = sol.evaluate(t, np.asarray(xs))
        return np.array(
            [float(sysm.eigenvalue(cp, w[0])), float(sysm.eigenvalue(cq, w[1]))]
        )

    def rk4(t, xs, h, substeps=1):
        h = h / substeps
        for _ in range(substeps):
            k1 = rhs(t, xs)
            k2 = rhs(t + 0.5 * h, xs + 0.5 * h * k1)
            k3 = rhs(t + 0.5 * h, xs + 0.5 * h * k2)
            k4 = rhs(t + h, xs + h * k3)
            xs = xs + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += h
        return xs

    t = 0.0
    xs = np.array([L, -L])  # (X_p^+, X_q^-)
    gap = 2.0 * L
    for _ in range(max_steps):
        t0, xs0 = t, xs
        xs = rk4(t, xs, dt)
        t += dt
        gap = xs[0] - xs[1]
        if gap <= 0.0:
            break
    else:
        raise AssertionError("boundary curves never crossed")

    def gap_at(tau):
        ys = rk4(t0, xs0, tau - t0, substeps=8)
        return ys[0] - ys[1]

    lo_t, hi_t = t0, t
    g_lo = xs0[0] - xs0[1]
    g_hi = gap
    for _ in range(80):
        tau = hi_t - g_hi * (hi_t - lo_t) / (g_hi - g_lo)
        tau = min(max(tau, lo_t), hi_t)
        g = gap_at(tau)
        if abs(g) < 1e-13:
            return tau
        if g > 0.0:
            lo_t, g_lo = tau, g
        else:
            hi_t, g_hi = tau, g
        if hi_t - lo_t < 1e-13 * max(1.0, hi_t):
            break
    return 0.5 * (lo_t + hi_t)


def bisect_full_cap(f, lo, hi, vlo, iters):
    """Plain bisection: ``iters`` steps, one ``f(x, owner)`` call per step.

    The fixed-count loop of one step per call, kept as the reference for
    the early stop and the multilevel replay of
    ``quadrature.bisect_brackets``.
    """
    owner = np.arange(len(lo))
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        vm = np.asarray(f(mid, owner), dtype=float)
        left = vlo * vm <= 0.0
        hi = np.where(left, mid, hi)
        vlo = np.where(left, vlo, vm)
        lo = np.where(left, lo, mid)
    return 0.5 * (lo + hi)


def _l1_one(f, lo, hi, kinks, tol):
    """One-owner :func:`integrate_abs` over the kinks strictly inside (lo, hi)."""
    kinks = np.unique(np.asarray(kinks, dtype=float))
    kinks = kinks[(kinks > lo) & (kinks < hi)]
    return float(
        integrate_abs(lambda x, owner: f(x), [lo], [hi], kinks[None, :], tol)[0]
    )


def decay_curve_reference(sol, shape, times, margin=1.0):
    """Distances of ``asymptotics.decay_curve``, one L1 integral per time.

    The per-time loop ``decay_curve`` ran before all times shared one pass;
    kept as the reference for the batched call.
    """
    i = shape.component
    prof = sol.initial
    speed = shape.limit_speed
    dists = []
    for t in times:
        t = float(t)
        lo1, hi1 = sol.support_interval(t, margin=margin)
        plo = float(shape.forward.f_lo) + speed * t - margin
        phi = float(shape.forward.f_hi) + speed * t + margin
        lo, hi = min(lo1, plo), max(hi1, phi)

        def diff(xv, t=t):
            pred = prof.component(i, shape.inverse(np.asarray(xv) - speed * t))
            return sol.evaluate(t, xv)[..., i] - pred

        kinks = list(sol.solution_kinks(t)[1])
        kinks += [
            v + speed * t
            for v in np.asarray(shape.forward(prof.breakpoints), dtype=float)
        ]
        dists.append(_l1_one(diff, lo, hi, kinks, sol.quad_tol))
    return tuple(dists)


def pair_distance_reference(sol1, sol2, t):
    """``(total, per-component)`` of ``stability.pair_distance`` at one time,
    one L1 integral per component.

    The per-component loop ``pair_distance`` ran before every (time,
    component) pair shared one pass; kept as the reference for the batched
    call.
    """
    p, q = sol1.initial, sol2.initial
    t = float(t)
    initial = [l1_distance(p, q, i) for i in range(p.n)]
    if all(d == 0.0 for d in initial):
        return 0.0, tuple(initial)
    per = []
    for i in range(p.n):
        if (p.values[0, i] != q.values[0, i]) or (p.values[-1, i] != q.values[-1, i]):
            per.append(math.inf)
            continue
        if t == 0.0:
            per.append(initial[i])
            continue
        lo1, hi1 = sol1.support_interval(t)
        lo2, hi2 = sol2.support_interval(t)
        lo, hi = min(lo1, lo2), max(hi1, hi2)
        kinks = np.concatenate([sol1.solution_kinks(t)[1], sol2.solution_kinks(t)[1]])

        def diff(xv, i=i):
            return sol1.evaluate(t, xv)[..., i] - sol2.evaluate(t, xv)[..., i]

        per.append(
            _l1_one(diff, lo, hi, kinks, min(sol1.quad_tol, sol2.quad_tol))
        )
    return sum(per), tuple(per)


def fit_segment_reference(f, a, b, rtol=1e-13):
    """``(coefficients, degree)`` of ``f`` on ``[a, b]`` by least squares.

    Climbs the degree ladder of ``cheb.fit_piecewise`` with its tail test
    and trim, but takes each rung's coefficients from ``chebfit`` (an SVD
    solve on the second-kind points) instead of the FFT.  Returns the
    degree of the rung that resolved the segment.
    """
    for deg in _DEGREES:
        nodes = np.cos(np.pi * np.arange(deg + 1) / deg)
        x = 0.5 * (a + b) + 0.5 * (b - a) * nodes
        vals = np.asarray(f(x), dtype=float)
        coef = C.chebfit(nodes, vals, deg)
        scale = max(np.max(np.abs(coef)), 1e-300)
        tail = np.max(np.abs(coef[-3:]))
        if tail <= rtol * scale + 1e-300:
            cut = np.nonzero(np.abs(coef) > rtol * scale * 0.1)[0]
            return (coef[: cut[-1] + 1] if cut.size else coef[:1]), deg
    raise TabulationError("Chebyshev fit on [%g, %g] did not converge" % (a, b))


def fit_piecewise_reference(f, breaks, rtol=1e-13, tail_slopes=(0.0, 0.0)):
    """``cheb.fit_piecewise`` (without validation) by ``chebfit``, segment by segment.

    One ``f`` call per segment and rung, then one per edge.  An independent
    oracle for the FFT fit: least squares on the interpolation nodes is the
    same interpolant, so the two agree to rounding, not bit for bit.
    """
    breaks = np.asarray(breaks, dtype=float)
    coefs = [
        fit_segment_reference(f, breaks[k], breaks[k + 1], rtol)[0]
        for k in range(len(breaks) - 1)
    ]
    left = float(np.asarray(f(np.array([breaks[0]])))[0])
    right = float(np.asarray(f(np.array([breaks[-1]])))[0])
    return PiecewiseCheb(breaks, coefs, (left, tail_slopes[0]), (right, tail_slopes[1]))


def _escape_integral(sol, f, zx, s):
    """int of f from zx to the core end that a speed-s fiber escapes through
    (f vanishes beyond it, so the improper integral is a finite quadrature)."""
    target = float(sol.zeta[-1]) if s > 0 else float(sol.zeta[0])
    return integrate(f, zx, target, kinks=sol.zeta, tol=_SHAPE_QUAD_TOL)


def tail_term(sol, i, x):
    """Density part of the shape correction for component i at x.

    Integral of 1/N(translated initial data) - 1/N(tail state) from Z0(x)
    toward the family's escape direction; identically zero for zero-speed
    families.
    """
    w_bar = _equal_tails_state(sol)
    s = sol.system.lagrangian_speeds[i]
    if s == 0.0:
        return 0.0
    inv_bar = 1.0 / float(sol.system.density(w_bar))

    def f(xi):
        return 1.0 / sol.system.density(sol.state_lagrangian(0.0, xi)) - inv_bar

    return _escape_integral(sol, f, float(sol.initial_coordinate(x)), s)


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
    if s_i == 0.0:
        return float(_zero_speed_integrals(sol, i, zx, w_bar)[0])

    ref = _check_ref(sysm, i, ref)
    total = _whole_line_sum(sol, i, w_bar)
    # Half-line terms: one single-slot perturbation integral per component
    # the family carries (they all translate at speed_i, so each window
    # freezes at Z0(x)); with one component per family this is the single
    # slot-i term of the strictly hyperbolic formula.
    gap = s_i - float(sysm.lagrangian_speeds[ref])
    lam_bar_ref = float(sysm.eigenvalue(ref, w_bar))
    for j in sysm.families[sysm.family_of[i]].components:

        def f_slot(xi, j=j):
            vals = sol.state_lagrangian(0.0, xi)[..., j]
            return _slot_eigenvalue(sol, ref, j, vals, w_bar) - lam_bar_ref

        total += _escape_integral(sol, f_slot, zx, s_i) / gap
    return total


def shape_derivative(sol, i, x, ref=None):
    """Closed-form derivative of the generic shape map (moving families only).

    psi'(x) = 1 - N(w0(x)) * (h(w0(x)) - h(tail state)), with the integrand
    h of :func:`_density_integrand`.
    """
    w_bar = _equal_tails_state(sol)
    sysm = sol.system
    if sysm.lagrangian_speeds[i] == 0.0:
        raise ValueError("closed-form derivative needs a nonzero Lagrangian speed")
    h = _density_integrand(sol, i, _check_ref(sysm, i, ref), w_bar)
    w0x = sol.initial(x)
    return 1.0 - sysm.density(w0x) * (h(w0x) - float(h(w_bar)))


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


def count_position_points(sol, monkeypatch):
    """The point count of every ``sol.position`` call from now on."""
    calls = []
    real = sol.position

    def counting(t, z):
        calls.append(np.size(z))
        return real(t, z)

    monkeypatch.setattr(sol, "position", counting)
    return calls


def boundary_reference(pattern, family, side, t):
    """Eulerian position of one family boundary characteristic at time t,
    from its own ``position`` call: the per-family form of
    ``WavePattern.boundaries``.  In Lagrangian coordinates the curve from
    (0, +/-L) is the straight line Z0(+/-L) + speed * t."""
    z0 = pattern.z_edges[1] if side == "+" else pattern.z_edges[0]
    speed = pattern.solution.system.families[family].speed
    t = np.asarray(t, dtype=float)
    return pattern.solution.position(t, z0 + speed * t)


def verify_pattern_reference(solution, pattern, t, t2=None, samples=7,
                             plateau_tol=1e-9, shift_tol=1e-8, inset=1e-3):
    """``plateau.verify_pattern``'s checks with one ``position`` call per
    family boundary and one ``evaluate`` per domain (two per wave domain).

    The per-domain loop ``verify_pattern`` ran before it batched every
    domain into one ``evaluate`` per time; kept as its bit-for-bit reference.
    """
    if t2 is None:
        t2 = 1.5 * t
    sysm = solution.system
    s = pattern.family_count
    minus = np.array([boundary_reference(pattern, p, "-", t) for p in range(s)])
    plus = np.array([boundary_reference(pattern, p, "+", t) for p in range(s)])
    checks = []
    spans = [("D0", minus[0] - 2.0, minus[0])]
    for p in range(s - 1):
        spans.append(("D%d" % (s + p + 1), plus[p], minus[p + 1]))
    spans.append(("D%d" % (2 * s), plus[-1], plus[-1] + 2.0))
    for label, lo, hi in spans:
        width = hi - lo
        xs = np.linspace(lo + inset * width, hi - inset * width, samples)
        got = solution.evaluate(t, xs)
        want = pattern.constant_state(label)
        worst = float(np.max(np.abs(got - want)))
        checks.append(PlateauCheck(label, "plateau", worst, plateau_tol))
    for p in range(s):
        label = "D%d" % (p + 1)
        comp = sysm.families[p].components[0]
        speed = float(sysm.eigenvalue(comp, pattern.plateau_states[p]))
        width = plus[p] - minus[p]
        xs = np.linspace(
            minus[p] + inset * width, plus[p] - inset * width, samples
        )
        w1 = solution.evaluate(t, xs)
        w2 = solution.evaluate(t2, xs + speed * (t2 - t))
        cols = list(sysm.families[p].components)
        worst = float(np.max(np.abs(w2[..., cols] - w1[..., cols])))
        checks.append(PlateauCheck(label, "shift", worst, shift_tol))
    return checks


def time_kinks_reference(sol, x_side, t1, t2):
    """``LagrangianSolution._time_kinks`` as its own search: the sign flips
    of every path on a 65-point grid of [t1, t2], then 60 steps of
    ``bisect_brackets``.  Kept as the bit-for-bit reference for the search
    through ``refine_sign_changes``; roots ordered by (family, breakpoint)."""
    taus = np.linspace(t1, t2, 65)
    speeds = np.array([f.speed for f in sol.system.families])
    zz = sol.zeta[None, None, :] + speeds[None, :, None] * taus[:, None, None]
    paths = np.asarray(sol.position(taus[:, None, None], zz), dtype=float) - x_side
    sgn = np.sign(paths)
    flips = np.nonzero(sgn[:-1] * sgn[1:] < 0)
    spd = speeds[flips[1]]
    zk = sol.zeta[flips[2]]

    def path(tau, k):
        return np.asarray(sol.position(tau, zk[k] + spd[k] * tau), dtype=float) - x_side

    roots = bisect_brackets(
        path, taus[flips[0]], taus[flips[0] + 1], paths[flips], 60
    )
    order = np.lexsort((roots, flips[2], flips[1]))
    return roots[order]


def refine_sign_changes_reference(f, edges):
    """``quadrature.refine_sign_changes`` as it scanned each panel on its own:
    ``_SIGN_SAMPLES`` probes per panel, the probe on an edge shared by two
    panels of one row copied from the previous panel, and a lone zero on a
    shared edge as its own case.  Kept as the bit-for-bit reference for the
    scan over one probe sequence per row; roots ordered by panel."""
    edges = np.asarray(edges, dtype=float)
    valid = ~np.isnan(edges)
    flat, owner = edges[valid], np.nonzero(valid)[0]
    panel = (owner[:-1] == owner[1:]) & (flat[:-1] < flat[1:])
    if not panel.any():
        return np.full((len(edges), 0), np.nan)
    xs = np.linspace(flat[:-1][panel], flat[1:][panel], _SIGN_SAMPLES, axis=1)
    own = owner[:-1][panel]
    shared = np.flatnonzero((own[1:] == own[:-1]) & (xs[1:, 0] == xs[:-1, -1])) + 1
    probe = np.ones(xs.shape, dtype=bool)
    probe[shared, 0] = False
    vals = np.empty(xs.shape)
    vals[probe] = _feval(f, xs[probe], np.repeat(own, probe.sum(axis=1)))
    vals[shared, 0] = vals[shared - 1, -1]
    sgn = np.sign(vals)
    k, j = np.nonzero(sgn[:, :-1] * sgn[:, 1:] < 0)
    roots = bisect_brackets(
        lambda x, b: f(x, own[k[b]]), xs[k, j], xs[k, j + 1], vals[k, j], _SIGN_ITERS
    )
    kz, jz = np.nonzero((sgn[:, 1:-1] == 0) & (sgn[:, :-2] * sgn[:, 2:] < 0))
    ke = shared[(sgn[shared, 0] == 0) & (sgn[shared - 1, -2] * sgn[shared, 1] < 0)] - 1
    pk = np.concatenate([k, kz, ke])
    order = np.argsort(pk, kind="stable")
    roots = np.concatenate([roots, xs[kz, jz + 1], xs[ke, -1]])[order]
    own = own[pk[order]]
    col = np.arange(len(own)) - np.searchsorted(own, own)
    out = np.full((len(edges), col.max(initial=-1) + 1), np.nan)
    out[own, col] = roots
    return out


def bi_shape_reference(sol, side):
    """The slow, fast or middle Born-Infeld model shape, each written out:
    its own correction and derivative closures, as ``bi_shape`` and
    ``abi_middle_shape`` built them before one builder made all three.
    ``side`` is "slow", "fast" or "middle"."""
    st, lam_minus, mu_plus = _bi_pieces(sol)
    prof = sol.initial
    z_lo, z_hi = float(sol.zeta[0]), float(sol.zeta[-1])
    base, top = float(sol._p_lam(z_lo)), float(sol._p_mu(z_hi))

    def slow(zx):
        return ((sol._p_lam(zx) - base) - lam_minus * (zx - z_lo)) / (2.0 * st.a)

    def fast(zx):
        return ((top - sol._p_mu(zx)) - mu_plus * (z_hi - zx)) / (2.0 * st.a)

    def mu0(xv):
        return prof.component(st.mu, xv)

    def lam0(xv):
        return prof.component(st.lam, xv)

    if side == "slow":
        return _shape_from_correction(
            sol, slow, lambda xv: (mu0(xv) - lam_minus) / (mu0(xv) - lam0(xv)),
            st.mu, "bi-slow", lam_minus,
        )
    if side == "fast":
        return _shape_from_correction(
            sol, fast, lambda xv: (mu_plus - lam0(xv)) / (mu0(xv) - lam0(xv)),
            st.lam, "bi-fast", mu_plus,
        )
    comp = next(f for f in sol.system.families if f.speed == 0.0).components[0]
    return _shape_from_correction(
        sol, lambda zx: slow(zx) + fast(zx),
        lambda xv: (mu_plus - lam_minus) / (mu0(xv) - lam0(xv)),
        comp, "abi-middle", 0.5 * (lam_minus + mu_plus),
    )


def coincidence_times(sol):
    """Rows ``(t-, t, t+)``: every t > 0 at which kink images
    zeta_j + speed_f t of two families meet, in increasing order, with its
    two neighbouring floats."""
    speeds, zeta = sol.system.family_speeds, sol.zeta
    ts = [(zeta[j] - zeta[k]) / (speeds[g] - speeds[f])
          for f in range(speeds.size) for g in range(f + 1, speeds.size)
          for j in range(zeta.size) for k in range(zeta.size)]
    ts = np.unique([t for t in ts if t > 0.0])
    return np.column_stack([np.nextafter(ts, 0.0), ts, np.nextafter(ts, np.inf)])


def check_merged_knots(sol, t, x):
    """The knot-bracket identities of ``Z(t, .)`` at a scalar ``t``.

    The merged kink images strictly increase and keep both core edges; a
    target on a knot's image inverts to that knot exactly; Newton meets its
    tolerance on the knot images and on ``x``; the snapshot at ``t`` is
    certified and inverts within ``inv_tol``.
    """
    zr, xr = sol.solution_kinks(t)
    zk, xk = maps._sorted_knots(zr, xr)
    assert np.all(np.diff(xk) > 0.0)
    assert (zk[0], zk[-1]) == (zr[0], zr[-1])  # family-major: the core edges
    x = np.concatenate([xk, x])
    z = sol.lagrangian_coordinate(t, x)
    eps = np.finfo(float).eps
    tol = np.maximum(sol.inv_tol, 1024.0 * eps * (np.abs(x) + 1.0))
    assert np.all(np.abs(sol.position(t, z) - x) <= tol)
    assert np.array_equal(z[: xk.size - 1], zk[:-1])
    snap = sol.snapshot(t)
    assert snap.certificate.splits == 0
    assert snap.certificate.segments == xk.size - 1
    assert np.max(np.abs(sol.position(t, snap.coordinate(x)) - x)) <= sol.inv_tol
