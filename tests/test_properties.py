"""Property tests: random admissible profiles pass the presets' identities.

Examples are derandomized and bounded so the suite stays deterministic, and
drawn without constants from the loaded modules, so they do not depend on
which other test files ran first.
"""

import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st
from hypothesis.internal.conjecture import providers
from numpy.polynomial import chebyshev as C

from helpers import (
    check_merged_knots,
    coincidence_times,
    refine_sign_changes_reference,
    three_speed_system,
)
from richwave import (
    PiecewiseProfile,
    abi_middle_shape,
    augmented_born_infeld,
    bi_shape,
    born_infeld,
    build_shape,
    solve,
)
from richwave import solver
from richwave.cheb import fit_piecewise
from richwave.maps import _sorted_knots
from richwave.quadrature import refine_sign_changes

# |w_i| <= 0.8 keeps 1/N = 1 + 0.1 w1 + 0.15 w2 - 0.08 w3 >= 0.74, well inside
# the three-speed system's admissible set 1/N > 0.05, for every mixture of
# component values that translation can bring together.
_VALUE = st.floats(-0.8, 0.8, allow_nan=False)


# Born-Infeld invariants mu in [0.6, 1.4] and lam in [-1.4, -0.6] keep
# mu - lam >= 1.2 however translation mixes them (the translated gap), and
# the augmented system's passive middle value q lies in between.
_MU = st.floats(0.6, 1.4)
_Q = st.floats(-0.6, 0.6)
_LAM = st.floats(-1.4, -0.6)


@st.composite
def profiles(draw, state):
    k = draw(st.integers(2, 6))
    left = draw(st.floats(-2.0, 0.0))
    widths = draw(st.lists(st.floats(0.1, 1.0), min_size=k - 1, max_size=k - 1))
    xs = left + np.concatenate([[0.0], np.cumsum(widths)])
    vals = draw(st.lists(state, min_size=k, max_size=k))
    return PiecewiseProfile(xs, np.array(vals))


_EXAMPLES = settings(
    max_examples=25,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.fixture(scope="module", autouse=True)
def _global_constants_only():
    """Draw from Hypothesis's own constants, not the loaded modules'.

    Hypothesis (6.155) also draws the literal constants of every loaded
    local module that is not a test file, so the same derandomized test drew
    other examples after ``perfbench/`` had been imported
    (``pytest perfbench tests/test_properties.py``) than alone.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(providers, "_get_local_constants", providers.Constants)
        providers.CONSTANTS_CACHE.cache.clear()
        yield
    providers.CONSTANTS_CACHE.cache.clear()


def _drawn_profiles():
    drawn = []

    @_EXAMPLES
    @given(profile=profiles(st.tuples(_MU, _Q, _LAM)))
    def record(profile):
        drawn.append((profile.breakpoints.tolist(), profile.values.tolist()))

    record()
    return drawn


def test_draws_do_not_depend_on_loaded_modules(tmp_path, monkeypatch):
    # a newly loaded local module full of constants the strategies accept
    before = _drawn_profiles()
    values = ", ".join(repr(float(v)) for v in np.linspace(-1.95, 1.95, 40).round(3))
    (tmp_path / "constants_probe.py").write_text(
        "VALUES = (%s)\nCOUNTS = (2, 3, 4, 5, 6)\n" % values)
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.delitem(sys.modules, "constants_probe", raising=False)
    __import__("constants_probe")
    assert len(before) == 25
    assert _drawn_profiles() == before


def _check_initial_values_and_far_tails(sol):
    # evaluate(0, .) reproduces the profile at every breakpoint and 3 units
    # into both tails
    xs = sol.initial.breakpoints
    pts = np.concatenate([xs, [xs[0] - 3.0, xs[-1] + 3.0]])
    assert np.max(np.abs(sol.evaluate(0.0, pts) - sol.initial(pts))) <= 1e-10
    # far inside both tails Z(t, .) is the affine tail formula
    far = np.array([xs[0] - 1e3, xs[-1] + 1e3])
    for t in (0.4, 1.7, 5.0):
        back = sol.position(t, sol.lagrangian_coordinate(t, far))
        assert np.max(np.abs(back - far)) <= 1e-9


@seed(20120417)
@_EXAMPLES
@given(profile=profiles(st.tuples(_VALUE, _VALUE, _VALUE)))
def test_three_speed_position_map_identities(profile):
    sol = solve(three_speed_system(), profile)
    zs = np.linspace(-6.0, 6.0, 41)
    # the per-family tables at t = 0 reproduce X0 up to their rounding
    assert np.max(np.abs(sol.position(0.0, zs) - sol.initial_position(zs))) <= 1e-12
    for t in (0.4, 1.7, 5.0):
        xs = sol.position(t, zs)
        assert np.all(np.diff(xs) > 0.0)
        back = sol.lagrangian_coordinate(t, xs)
        assert np.max(np.abs(back - zs)) <= 1e-9
        # and meet the time quadrature within criterion 3's bound
        assert np.max(np.abs(xs[::8] - sol.position_quadrature(t, zs[::8]))) <= 1e-9
    _check_initial_values_and_far_tails(sol)


@seed(20120421)
@_EXAMPLES
@given(profile=profiles(st.tuples(_VALUE, _VALUE, _VALUE)))
def test_three_speed_box_residuals(profile):
    # moving kinks cross the box sides, so _time_kinks has brackets to bisect
    sol = solve(three_speed_system(), profile)
    cons, entropies = sol.box_residuals((0.2, 1.4, -1.5, 1.5))
    assert max(cons, *entropies) <= 1e-8


def _check_born_infeld_identities(sol):
    zs = np.linspace(-6.0, 6.0, 41)
    # the closed form at t = 0 reproduces X0 up to its table rounding
    assert np.max(np.abs(sol.position(0.0, zs) - sol.initial_position(zs))) <= 1e-12
    for t in (0.4, 1.7, 5.0):
        xs = sol.position(t, zs)
        assert np.all(np.diff(xs) > 0.0)
        back = sol.lagrangian_coordinate(t, xs)
        assert np.max(np.abs(back - zs)) <= 1e-9
    cons, entropies = sol.box_residuals((0.2, 1.4, -1.5, 1.5))
    assert max(cons, *entropies) <= 1e-8
    _check_initial_values_and_far_tails(sol)


@seed(20120425)
@_EXAMPLES
@given(
    case=st.one_of(st.tuples(st.just("bi"), profiles(st.tuples(_MU, _LAM))),
                   st.tuples(st.just("three"), profiles(st.tuples(_VALUE, _VALUE, _VALUE)))),
    pick=st.integers(0, 1000),
)
def test_coincident_kink_images_keep_knot_brackets(case, pick):
    # one time at which two families' kink images meet, and the floats
    # either side: merged knots, exact knots, round trips, certified snapshot
    kind, profile = case
    sol = solve(born_infeld(1.0) if kind == "bi" else three_speed_system(), profile)
    times = coincidence_times(sol)
    for t in times[pick % len(times)]:
        lo, hi = sol.support_interval(t)
        check_merged_knots(sol, t, np.linspace(lo, hi, 17))


@seed(20120426)
@_EXAMPLES
@given(
    case=st.one_of(st.tuples(st.just("bi"), profiles(st.tuples(_MU, _LAM))),
                   st.tuples(st.just("three"), profiles(st.tuples(_VALUE, _VALUE, _VALUE)))),
    pick=st.integers(0, 1000),
    t=st.floats(0.0, 10.0),
    spots=st.lists(st.floats(-0.2, 1.2), min_size=4, max_size=4),
)
def test_one_point_evaluate_has_the_bits_of_a_batch(case, pick, t, spots):
    # one-point calls run on Python floats, a batch above the small-call
    # size on numpy: at a coincidence time, the floats either side and a
    # drawn time, at drawn points, the merged kink images, the midpoints
    # between them and both tails
    kind, profile = case
    sol = solve(born_infeld(1.0) if kind == "bi" else three_speed_system(), profile)
    times = coincidence_times(sol)
    for tv in (*times[pick % len(times)], t):
        xk = _sorted_knots(*sol.solution_kinks(tv))[1]
        lo, hi = xk[0], xk[-1]
        x = np.concatenate([lo + (hi - lo) * np.array(spots), xk, 0.5 * (xk[1:] + xk[:-1]),
                            [lo - 1.0, hi + 1.0]])
        x = np.resize(x, solver._SCALAR_POINT_ROWS + 1)
        whole = sol.evaluate(tv, x)
        one = np.concatenate([sol.evaluate(tv, x[k:k + 1]) for k in range(x.size)])
        assert np.array_equal(one.view(np.int64), whole.view(np.int64))


@seed(20120418)
@_EXAMPLES
@given(profile=profiles(st.tuples(_MU, _LAM)))
def test_born_infeld_identities(profile):
    _check_born_infeld_identities(solve(born_infeld(1.0), profile))


@seed(20120419)
@_EXAMPLES
@given(profile=profiles(st.tuples(_MU, _Q, _LAM)))
def test_augmented_born_infeld_identities(profile):
    _check_born_infeld_identities(solve(augmented_born_infeld(1.0), profile))


def _check_shape_inverses(shapes):
    # a model shape inverse certifies and meets |S(inv(y)) - y| <= tol on a
    # grid through both affine tails
    for shape in shapes:
        fmap, inv = shape.forward, shape.inverse
        assert inv.certificate.residual <= fmap.tol
        y = np.linspace(fmap.f_lo - 2.0, fmap.f_hi + 2.0, 97)
        assert np.max(np.abs(fmap(inv(y)) - y)) <= fmap.tol


@seed(20120421)
@_EXAMPLES
@given(profile=profiles(st.tuples(_MU, _LAM)))
def test_born_infeld_snapshots_match_newton(profile):
    # every snapshot certifies, meets |X(t, Z_tab(x)) - x| <= inv_tol
    # everywhere and agrees with Newton
    sol = solve(born_infeld(1.0), profile)
    for t in (0.0, 0.7, 3.0, 20.0):
        snap = sol.snapshot(t)
        lo, hi = sol.support_interval(t, margin=2.0)
        xs = np.linspace(lo, hi, 97)
        assert snap.certificate.residual <= sol.inv_tol
        back = sol.position(t, snap.coordinate(xs))
        assert np.max(np.abs(back - xs)) <= sol.inv_tol
        assert np.max(np.abs(snap.evaluate(xs) - sol.evaluate(t, xs))) <= 1e-10
    _check_shape_inverses([bi_shape(sol, "slow"), bi_shape(sol, "fast")])


@seed(20120427)
@_EXAMPLES
@given(profile=profiles(st.tuples(_MU, _Q, _LAM)))
def test_augmented_born_infeld_shape_inverses_are_certified(profile):
    sol = solve(augmented_born_infeld(1.0), profile)
    _check_shape_inverses([bi_shape(sol, "slow"), abi_middle_shape(sol), bi_shape(sol, "fast")])


@st.composite
def equal_tail_profiles(draw, state):
    profile = draw(profiles(state))
    values = profile.values.copy()
    values[-1] = values[0]
    return profile.with_values(values)


@seed(20120420)
@_EXAMPLES
@given(
    profile=st.one_of(
        equal_tail_profiles(st.tuples(_MU, _LAM)),
        equal_tail_profiles(st.tuples(_MU, _Q, _LAM)),
    )
)
def test_generic_shapes_match_model_shapes(profile):
    system = born_infeld(1.0) if profile.n == 2 else augmented_born_infeld(1.0)
    sol = solve(system, profile)
    xs = np.linspace(profile.breakpoints[0] - 1.0, profile.breakpoints[-1] + 1.0, 101)
    for i, speed in enumerate(system.lagrangian_speeds):
        if speed == 0.0:
            model = abi_middle_shape(sol)
        else:
            model = bi_shape(sol, "slow" if speed < 0 else "fast")
        # criterion 7's bound on the gap between the two routes
        assert np.max(np.abs(build_shape(sol, i)(xs) - model(xs))) <= 1e-8


@st.composite
def zero_anchored_profiles(draw, state):
    # some profiles are shifted so that one breakpoint is exactly 0, where
    # the Z0 anchor then sits on a segment edge
    profile = draw(profiles(state))
    xs = profile.breakpoints
    if draw(st.booleans()):
        xs = xs - xs[draw(st.integers(0, len(xs) - 1))]
    return PiecewiseProfile(xs, profile.values)


@seed(20120422)
@_EXAMPLES
@given(profile=zero_anchored_profiles(st.tuples(_MU, _LAM)))
def test_initial_coordinate_anchored_at_zero(profile):
    # Z0 is anchored at 0 to the rounding of one table evaluation
    sol = solve(born_infeld(1.0), profile)
    eps = np.finfo(float).eps
    assert abs(sol.initial_coordinate(0.0)) <= 4.0 * eps * (1.0 + np.max(np.abs(sol.zeta)))


@st.composite
def polynomial_pieces(draw):
    """Breaks and a continuous function that is a polynomial on each segment:
    Chebyshev coefficients of magnitude [0.5, 1] up to a degree <= 15, with
    the constant term moved so each piece starts where the last one ended.

    The breaks are points of the grid ``k / 4`` in [-1, 1]: the fit samples
    ``f`` at rounded nodes, which ``f`` maps back to its piece's variable
    with an error of about ``ulp(x) / width``, and on a narrow segment far
    from 0 that error times a degree-15 derivative exceeds the 1e-13 the
    test asks of the fit (the least-squares oracle misses it the same way).
    The first piece starts at a value of magnitude [0.5, 1], so no piece is
    identically zero: such a piece is the next piece's rounding at the shared
    break, which only the fit's absolute tail floor resolves (pinned in
    ``test_cheb.py``)."""
    count = draw(st.integers(1, 6))
    grid = draw(st.lists(st.integers(-4, 4), min_size=count + 1, max_size=count + 1,
                         unique=True))
    breaks = np.sort(grid) / 4.0
    degrees = draw(st.lists(st.integers(0, 15), min_size=count, max_size=count))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pieces, end = [], rng.uniform(0.5, 1.0) * rng.choice([-1.0, 1.0])
    for d in degrees:
        c = rng.uniform(0.5, 1.0, d + 1) * rng.choice([-1.0, 1.0], d + 1)
        c[0] += end - C.chebval(-1.0, c)
        pieces.append(c)
        end = C.chebval(1.0, c)
    return breaks, pieces


def _piecewise_polynomial(breaks, pieces):
    def f(x):
        seg = np.clip(np.searchsorted(breaks, x, side="right") - 1, 0, len(pieces) - 1)
        tt = (2.0 * x - breaks[seg] - breaks[seg + 1]) / (breaks[seg + 1] - breaks[seg])
        out = np.empty_like(x)
        for k, c in enumerate(pieces):
            out[seg == k] = C.chebval(tt[seg == k], c)
        return out

    return f


@seed(20120423)
@_EXAMPLES
@given(case=polynomial_pieces())
def test_fit_piecewise_reproduces_polynomial_pieces(case):
    breaks, pieces = case
    f = _piecewise_polynomial(breaks, pieces)
    calls = []

    def counting(x):
        calls.append(len(x))
        return f(x)

    table = fit_piecewise(counting, breaks)
    # The tail test reads the last three of a rung's coefficients, so a piece
    # of degree <= 13 resolves on rung 16 and one of degree 14 or 15 (whose
    # top coefficient is at least 0.5) on rung 32; one call per rung, then
    # one for the off-node check.
    rungs = [1 if len(c) <= 14 else 2 for c in pieces]
    assert len(calls) == max(rungs) + 1
    rng = np.random.default_rng(0)
    x = rng.uniform(breaks[0], breaks[-1], 200)
    seg = np.clip(np.searchsorted(breaks, x, side="right") - 1, 0, len(pieces) - 1)
    size = np.array([np.sum(np.abs(c)) for c in pieces])[seg]  # bounds |p| on its piece
    assert np.all(np.abs(table(x) - f(x)) <= 1e-13 * size)
    # a segment fitted alone climbs its own rungs and keeps the coefficient
    # bits it has among the other segments of each rung
    for k, c in enumerate(table.coefs):
        del calls[:]
        alone = fit_piecewise(counting, breaks[k: k + 2]).coefs[0]
        assert len(calls) == rungs[k] + 1
        assert np.array_equal(alone.view(np.int64), c.view(np.int64))


# Edges are multiples of 1/4, so every probe of a panel between them is a
# multiple of 1/32; the integrands' nodes are multiples of 1/8, so their
# zeros land on probes and on edges shared by two panels, and neighbouring
# zero nodes make plateaus.
_EDGE = st.integers(-6, 6).map(lambda k: k / 4.0)
_NODE_VALUE = st.sampled_from([-1.0, 0.0, 0.0, 1.0])


@st.composite
def scan_rows(draw):
    """NaN-padded edge rows, repeated edges allowed, and per row the nodes
    and values of a piecewise-linear integrand."""
    rows, width = draw(st.integers(1, 4)), draw(st.integers(2, 6))
    edges = np.full((rows, width), np.nan)
    nodes, values = [], []
    for p in range(rows):
        row = sorted(draw(st.lists(_EDGE, min_size=2, max_size=width)))
        slots = sorted(draw(st.permutations(range(width)))[:len(row)])
        edges[p, slots] = row
        xs = np.unique(draw(st.lists(st.integers(-14, 14), min_size=1, max_size=12)))
        nodes.append(xs / 8.0)
        values.append(draw(st.lists(_NODE_VALUE, min_size=xs.size, max_size=xs.size)))
    return edges, nodes, values


@seed(20120428)
@_EXAMPLES
@given(case=scan_rows())
def test_row_scan_matches_the_per_panel_scan(case):
    # one probe sequence per row finds the roots the per-panel scan found,
    # bit for bit; only their order within a row may differ
    edges, nodes, values = case

    def f(x, owner):
        out = np.empty(len(x))
        for p in range(len(nodes)):
            on = owner == p
            out[on] = np.interp(x[on], nodes[p], values[p])
        return out

    got = np.sort(refine_sign_changes(f, edges), axis=1)
    want = np.sort(refine_sign_changes_reference(f, edges), axis=1)
    assert got.shape == want.shape
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
