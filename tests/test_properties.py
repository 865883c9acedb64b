"""Property tests: random admissible profiles pass the presets' identities.

Examples are derandomized and bounded so the suite stays deterministic.
"""

import numpy as np
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from helpers import three_speed_system
from richwave import PiecewiseProfile, solve

# |w_i| <= 0.8 keeps 1/N = 1 + 0.1 w1 + 0.15 w2 - 0.08 w3 >= 0.74, well inside
# the three-speed system's admissible set 1/N > 0.05, for every mixture of
# component values that translation can bring together.
_VALUE = st.floats(-0.8, 0.8, allow_nan=False)


@st.composite
def three_speed_profiles(draw):
    k = draw(st.integers(2, 6))
    left = draw(st.floats(-2.0, 0.0))
    widths = draw(st.lists(st.floats(0.1, 1.0), min_size=k - 1, max_size=k - 1))
    xs = left + np.concatenate([[0.0], np.cumsum(widths)])
    vals = draw(st.lists(st.tuples(_VALUE, _VALUE, _VALUE), min_size=k, max_size=k))
    return PiecewiseProfile(xs, np.array(vals))


@seed(20120417)
@settings(
    max_examples=25,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(profile=three_speed_profiles())
def test_three_speed_position_map_identities(profile):
    sol = solve(three_speed_system(), profile)
    zs = np.linspace(-6.0, 6.0, 41)
    assert np.array_equal(sol.position(0.0, zs), sol.initial_position(zs))
    for t in (0.4, 1.7, 5.0):
        xs = sol.position(t, zs)
        assert np.all(np.diff(xs) > 0.0)
        back = sol.lagrangian_coordinate(t, xs)
        assert np.max(np.abs(back - zs)) <= 1e-9
