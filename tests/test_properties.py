"""Property tests: random admissible profiles pass the presets' identities.

Examples are derandomized and bounded so the suite stays deterministic.
"""

import numpy as np
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from helpers import three_speed_system
from richwave import (
    PiecewiseProfile,
    abi_middle_shape,
    augmented_born_infeld,
    bi_shape,
    born_infeld,
    build_shape,
    solve,
)

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
    assert np.array_equal(sol.position(0.0, zs), sol.initial_position(zs))
    for t in (0.4, 1.7, 5.0):
        xs = sol.position(t, zs)
        assert np.all(np.diff(xs) > 0.0)
        back = sol.lagrangian_coordinate(t, xs)
        assert np.max(np.abs(back - zs)) <= 1e-9
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


@seed(20120421)
@_EXAMPLES
@given(profile=profiles(st.tuples(_MU, _LAM)))
def test_born_infeld_snapshots_match_newton(profile):
    # a certified snapshot meets |X(t, Z_tab(x)) - x| <= inv_tol everywhere
    # and agrees with Newton; an uncertified one has Newton's bits
    sol = solve(born_infeld(1.0), profile)
    for t in (0.0, 0.7, 3.0, 20.0):
        snap = sol.snapshot(t)
        lo, hi = sol.support_interval(t, margin=2.0)
        xs = np.linspace(lo, hi, 97)
        want = sol.evaluate(t, xs)
        if snap.certificate.fell_back:
            assert np.array_equal(snap.evaluate(xs), want)
            continue
        assert snap.certificate.residual <= sol.inv_tol
        back = sol.position(t, snap.coordinate(xs))
        assert np.max(np.abs(back - xs)) <= sol.inv_tol
        assert np.max(np.abs(snap.evaluate(xs) - want)) <= 1e-10


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
