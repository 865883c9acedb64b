import numpy as np
import pytest

from helpers import (
    abi_middle_profile,
    bi_mixing_ramps_profile,
    bi_shape_reference,
    bi_simple_wave_profile,
    bi_tworamp_profile,
    bump_profile_2,
    coupling_term,
    separable_two_speed_system,
    shape_derivative,
    tail_term,
    three_speed_profile,
    three_speed_system,
    traveling_frame_position,
)
from richwave import (
    GapConditionError,
    PiecewiseProfile,
    ShapeFloorError,
    UnequalTailsError,
    abi_middle_shape,
    augmented_born_infeld,
    bi_shape,
    born_infeld,
    build_shape,
    decay_curve,
    solve,
)
from richwave import asymptotics, quadrature
from richwave.config import load_config


@pytest.fixture(scope="module")
def bi():
    return born_infeld(1.0)


@pytest.fixture(scope="module")
def tworamp_sol(bi):
    return solve(bi, bi_tworamp_profile())


@pytest.fixture(scope="module")
def abi_sol():
    return solve(augmented_born_infeld(1.0), abi_middle_profile())


@pytest.fixture(scope="module")
def constant_sol(bi):
    prof = PiecewiseProfile([-1.0, 1.0], np.array([[1.0, -1.0], [1.0, -1.0]]))
    return solve(bi, prof)


# -- correction terms ---------------------------------------------------------


def test_corrections_vanish_for_constant_data(constant_sol):
    for i in range(2):
        assert tail_term(constant_sol, i, 0.3) == pytest.approx(0.0, abs=1e-12)
        assert coupling_term(constant_sol, i, 0.3) == pytest.approx(0.0, abs=1e-12)


def test_tail_term_zero_for_zero_speed_family(abi_sol):
    assert tail_term(abi_sol, 1, 0.4) == 0.0


def test_tail_term_matches_riemann_sum(tworamp_sol):
    # fast family: signed integral of (1/N of translated data - 1/N at the
    # tail state) from Z0(x) up to the last breakpoint image
    x = 0.0
    zx = float(tworamp_sol.initial_coordinate(x))
    z_hi = float(tworamp_sol.zeta[-1])

    def f(xi):
        w = tworamp_sol.state_lagrangian(0.0, xi)
        return 1.0 / tworamp_sol.system.density(w) - 1.0

    n = 2_000_000
    xs = zx + (np.arange(n) + 0.5) * (z_hi - zx) / n
    want = float(np.sum(f(xs)) * (z_hi - zx) / n)
    got = tail_term(tworamp_sol, 1, x)
    assert got == pytest.approx(want, abs=1e-8)


def test_unequal_tails_rejected(bi):
    sol = solve(bi, bi_mixing_ramps_profile())
    with pytest.raises(UnequalTailsError):
        tail_term(sol, 0, 0.0)
    with pytest.raises(UnequalTailsError):
        build_shape(sol, 0)
    # the model route only needs one-sided limits
    shape = bi_shape(sol, "slow")
    assert shape.limit_speed == -1.2


def test_reference_component_must_differ(tworamp_sol):
    with pytest.raises(ValueError):
        coupling_term(tworamp_sol, 0, 0.0, ref=0)


def test_reference_independence_on_abi(abi_sol):
    for i, refs in ((0, (1, 2)), (2, (0, 1))):
        vals = [coupling_term(abi_sol, i, 0.37, ref=r) for r in refs]
        assert abs(vals[0] - vals[1]) < 1e-9


def test_reference_independence_with_active_faster_family():
    # middle family of the three-speed system has speed 0.5 > 0 and a
    # strictly faster family above it, so the whole-line sum contributes
    sol = solve(three_speed_system(), three_speed_profile())
    vals = [coupling_term(sol, 1, 0.21, ref=r) for r in (0, 2)]
    assert abs(vals[0] - vals[1]) < 1e-9
    assert abs(vals[0]) > 1e-4  # the term is genuinely nonzero


# -- shape construction -------------------------------------------------------


def test_identity_shapes_for_constant_data(constant_sol):
    for i in range(2):
        shape = build_shape(constant_sol, i)
        xs = np.linspace(-3.0, 3.0, 21)
        assert np.max(np.abs(shape(xs) - xs)) < 1e-11
        assert np.max(np.abs(shape.inverse(xs) - xs)) < 1e-10


def test_simple_wave_slow_shape_is_identity(bi):
    sol = solve(bi, bi_simple_wave_profile())
    xs = np.linspace(-2.0, 2.0, 41)
    model = bi_shape(sol, "slow")
    generic = build_shape(sol, 0)
    assert np.max(np.abs(model(xs) - xs)) < 1e-12
    assert np.max(np.abs(generic(xs) - xs)) < 1e-10


def test_fast_shape_identity_when_mu_constant(bi):
    prof = PiecewiseProfile(
        [-1.0, 0.0, 1.0], np.array([[1.0, -1.0], [1.0, -0.5], [1.0, -1.0]])
    )
    sol = solve(bi, prof)
    xs = np.linspace(-2.0, 2.0, 41)
    assert np.max(np.abs(bi_shape(sol, "fast")(xs) - xs)) < 1e-12


def test_generic_route_reproduces_bi_closed_forms(tworamp_sol):
    xs = np.linspace(-1.8, 1.8, 101)
    for i, side in ((0, "slow"), (1, "fast")):
        generic = build_shape(tworamp_sol, i)
        model = bi_shape(tworamp_sol, side)
        assert np.max(np.abs(generic(xs) - model(xs))) < 1e-8
        assert generic.limit_speed == pytest.approx(model.limit_speed, abs=1e-12)


def test_generic_route_reproduces_abi_middle(abi_sol):
    xs = np.linspace(-1.8, 1.8, 101)
    generic = build_shape(abi_sol, 1)
    model = abi_middle_shape(abi_sol)
    assert np.max(np.abs(generic(xs) - model(xs))) < 1e-8
    assert generic.limit_speed == pytest.approx(0.0, abs=1e-14)


def test_shape_inverse_round_trip(tworamp_sol, abi_sol):
    xs = np.linspace(-3.0, 3.0, 101)  # spans core and both affine tails
    shapes = [
        bi_shape(tworamp_sol, "slow"),
        bi_shape(tworamp_sol, "fast"),
        build_shape(tworamp_sol, 0),
        abi_middle_shape(abi_sol),
        build_shape(abi_sol, 1),
    ]
    for shape in shapes:
        assert np.max(np.abs(shape.inverse(shape(xs)) - xs)) < 1e-10
        ys = np.linspace(float(shape(-3.0)), float(shape(3.0)), 101)
        assert np.max(np.abs(shape(shape.inverse(ys)) - ys)) < 1e-10


def test_middle_shape_identity_for_constant_data():
    prof = PiecewiseProfile(
        [-1.0, 1.0], np.array([[1.0, 0.2, -1.0], [1.0, 0.2, -1.0]])
    )
    sol = solve(augmented_born_infeld(1.0), prof)
    omega = abi_middle_shape(sol)
    xs = np.linspace(-3.0, 3.0, 21)
    assert np.max(np.abs(omega(xs) - xs)) < 1e-12
    assert omega.limit_speed == 0.0


def test_middle_shape_is_sum_of_side_corrections(abi_sol):
    xs = np.linspace(-2.0, 2.0, 81)
    omega = abi_middle_shape(abi_sol)
    slow = bi_shape(abi_sol, "slow")
    fast = bi_shape(abi_sol, "fast")
    lhs = omega(xs) - xs
    rhs = (slow(xs) - xs) + (fast(xs) - xs)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


@pytest.mark.parametrize(
    "make_sol, sides",
    [
        (lambda: solve(born_infeld(1.0), bi_tworamp_profile()), ("slow", "fast")),
        (lambda: solve(born_infeld(1.0), bi_simple_wave_profile()), ("slow", "fast")),
        (lambda: solve(augmented_born_infeld(1.0), abi_middle_profile()),
         ("slow", "fast", "middle")),
    ],
    ids=["bi-two-ramp", "bi-simple-wave", "abi-middle"],
)
def test_model_shapes_keep_the_bits_of_their_reference(make_sol, sides):
    sol = make_sol()
    xs = np.concatenate([np.linspace(-6.0, 6.0, 241), sol.initial.breakpoints])
    for side in sides:
        got = abi_middle_shape(sol) if side == "middle" else bi_shape(sol, side)
        want = bi_shape_reference(sol, side)
        assert (got.component, got.route) == (want.component, want.route)
        assert _hex([got.limit_speed, got.derivative_floor]) == _hex(
            [want.limit_speed, want.derivative_floor]
        )
        assert _hex(got(xs)) == _hex(want(xs))
        ys = want(xs) + 0.01
        assert _hex(got.inverse(ys)) == _hex(want.inverse(ys))


def test_ramp_slow_derivative_value(bi):
    # mu ramps to 2 at x = 0 with lam fixed at -1: the slow shape derivative
    # there is (2 - (-1)) / (2 - (-1)) = 1
    prof = PiecewiseProfile(
        [-1.0, 0.0, 1.0], np.array([[1.0, -1.0], [2.0, -1.0], [1.0, -1.0]])
    )
    sol = solve(bi, prof)
    shape = bi_shape(sol, "slow")
    h = 1e-6
    fd = (shape(0.0 + h) - shape(0.0 - h)) / (2 * h)
    assert fd == pytest.approx(1.0, abs=1e-6)


def test_shape_derivative_closed_form_vs_finite_differences(tworamp_sol):
    xs = np.linspace(-0.95, 0.95, 31)
    h = 1e-5
    for i in range(2):
        shape = build_shape(tworamp_sol, i)
        closed = shape_derivative(tworamp_sol, i, xs)
        fd = (shape(xs + h) - shape(xs - h)) / (2 * h)
        rel = np.abs(closed - fd) / np.maximum(np.abs(closed), 1e-3)
        assert float(rel.max()) < 1e-4


def test_shape_derivative_requires_moving_family(abi_sol):
    with pytest.raises(ValueError):
        shape_derivative(abi_sol, 1, 0.0)


def test_gap_condition_error():
    # full gap condition fails (inf mu0 = 0.5 < sup lam0 = 0.7), but the
    # mu dip sits LEFT of the lam bump so the solution itself is fine
    bi1 = born_infeld(1.0)
    prof = PiecewiseProfile(
        [-1.0, -0.5, 0.0, 0.5, 1.0],
        np.array(
            [[1.0, -1.0], [0.5, -1.0], [1.0, -1.0], [1.0, 0.7], [1.0, -1.0]]
        ),
    )
    sol = solve(bi1, prof)
    with pytest.raises(GapConditionError):
        bi_shape(sol, "slow")


@pytest.mark.parametrize(
    "make_sol",
    [
        lambda: solve(born_infeld(1.0), bi_tworamp_profile()),
        lambda: solve(augmented_born_infeld(1.0), abi_middle_profile()),
        lambda: solve(three_speed_system(), three_speed_profile()),
    ],
    ids=["bi-two-ramp", "abi-middle", "three-speed"],
)
def test_primitive_form_matches_pointwise_terms(make_sol):
    # the tabulated primitive form against the pointwise quadratures of the
    # coupling and density terms, on every component
    sol = make_sol()
    xs = np.linspace(-1.3, 1.3, 11)  # core points and both frozen tails
    for i in range(sol.system.n):
        shape = build_shape(sol, i)
        want = [x + coupling_term(sol, i, x) + tail_term(sol, i, x) for x in xs]
        assert np.max(np.abs(shape(xs) - np.array(want))) <= 1e-12


def test_build_shape_on_presets_makes_no_integrate_call(monkeypatch):
    original = quadrature.integrate
    calls = []

    def counting_integrate(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(asymptotics, "integrate", counting_integrate)
    monkeypatch.setattr(quadrature, "integrate", counting_integrate)
    for name in ("bi-two-ramp", "abi-middle"):
        cfg = load_config(name)
        sol = solve(cfg.system, cfg.profile)
        for i in range(sol.system.n):
            build_shape(sol, i)
    assert calls == []


def test_shape_floor_error_guards_a_decreasing_map():
    # on the linearly degenerate separable system large data keep a positive
    # floor; a correction whose derivative goes negative reaches the guard
    sysm = separable_two_speed_system()
    for amps in ((-0.5, 0.3), (-4.0, 0.0), (8.0, -8.0)):
        sol = solve(sysm, bump_profile_2(*amps))
        assert min(build_shape(sol, i).derivative_floor for i in (0, 1)) > 0.0

    def deriv(xv):
        return 1.0 - 2.0 * sysm.density(sol.initial(xv))

    with pytest.raises(ShapeFloorError, match="component 0 is not invertible"):
        asymptotics._shape_from_correction(
            sol, lambda zx: -2.0 * zx, deriv, 0, "generic", 0.0)


# -- the limit itself ---------------------------------------------------------


def test_traveling_frame_position_constant_data(constant_sol):
    for t in (0.0, 3.0, 50.0):
        for i in range(2):
            assert traveling_frame_position(constant_sol, i, 0.7, t) == pytest.approx(
                0.7, abs=1e-11
            )


def test_traveling_frame_position_converges_to_shape(tworamp_sol):
    shape = bi_shape(tworamp_sol, "slow")
    target = shape(0.0)

    def err(t):
        return abs(float(traveling_frame_position(tworamp_sol, 0, 0.0, t)) - target)

    # monotone approach while the moving argument is still inside the core
    approach = [err(t) for t in (0.5, 1.0, 2.0)]
    assert approach[0] > approach[1] > approach[2] > 0.0
    # exact (to tolerance) once it has left: not merely asymptotic
    late = [err(t) for t in (10.0, 100.0, 1000.0)]
    assert max(late) < 1e-6
    assert max(late[:2]) < 1e-10


def test_traveling_frame_position_abi_middle(abi_sol):
    omega = abi_middle_shape(abi_sol)
    got = float(traveling_frame_position(abi_sol, 1, 0.0, 50.0))
    assert got == pytest.approx(float(omega(0.0)), abs=1e-9)


def test_multiplicity_two_family_shares_one_shape():
    # both components carried by the slow family converge in the same
    # coordinate fiber, so their shape maps coincide (and equal the model
    # route); checked against the engine's long-time limit as well
    from helpers import bi_with_passenger

    x = [-1.0, -0.5, 0.0, 0.5, 1.0]
    vals = np.array(
        [
            [1.1, 0.0, -1.0],
            [1.1, 0.4, -1.0],
            [1.4, 0.4, -0.8],
            [1.1, 0.0, -1.0],
            [1.1, 0.0, -1.0],
        ]
    )
    sol = solve(bi_with_passenger(), PiecewiseProfile(x, vals))
    xs = np.linspace(-1.5, 1.5, 41)
    slow = bi_shape(sol, "slow")
    for i in (0, 1):
        shape = build_shape(sol, i)
        assert np.max(np.abs(shape(xs) - slow(xs))) < 1e-10
    passenger = build_shape(sol, 1)
    for xq in (-0.4, 0.3):
        want = float(traveling_frame_position(sol, 1, xq, 200.0))
        assert float(passenger(xq)) == pytest.approx(want, abs=1e-10)


def test_three_speed_shapes_match_long_time_limit():
    # exercises the faster-family whole-line sums of the generic route on a
    # system where they are active, with the engine's long-time limit as the
    # independent oracle
    sol = solve(three_speed_system(), three_speed_profile())
    for i in range(3):
        shape = build_shape(sol, i)
        for x in (-0.6, 0.0, 0.8):
            want = float(traveling_frame_position(sol, i, x, 400.0))
            assert float(shape(x)) == pytest.approx(want, abs=1e-8)


# -- decay measurement ----------------------------------------------------------


def test_decay_zero_for_constant_data(constant_sol):
    shape = build_shape(constant_sol, 0)
    rep = decay_curve(constant_sol, [shape], [1.0, 5.0])[0]
    assert max(rep.distances) < 1e-10
    assert rep.ratio == 0.0 or rep.distances[0] < 1e-10


def test_decay_simple_wave_is_exact(bi):
    sol = solve(bi, bi_simple_wave_profile())
    for side in ("slow", "fast"):
        rep = decay_curve(sol, [bi_shape(sol, side)], [1.0, 5.0, 20.0])[0]
        assert max(rep.distances) <= 1e-8


def test_decay_two_ramp_interaction(tworamp_sol):
    rep = decay_curve(tworamp_sol, [bi_shape(tworamp_sol, "slow")], [5.0, 80.0])[0]
    assert rep.decreased
    assert rep.distances[-1] < 0.1 * rep.distances[0]


def test_decay_requires_increasing_times(tworamp_sol):
    with pytest.raises(ValueError):
        decay_curve(tworamp_sol, [bi_shape(tworamp_sol, "slow")], [5.0, 2.0])
