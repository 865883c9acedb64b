import math

import numpy as np
import pytest

from helpers import riemann_l1
from richwave import PiecewiseProfile, add_bump, l1_distance, read_profile, write_profile


def ramp(offset=0.0):
    return PiecewiseProfile(
        [-1.0, 0.0, 1.0],
        np.array([[1.0, -1.0], [2.0 + offset, -1.0], [1.0, -1.0]]),
    )


def test_interpolation_and_tails():
    p = ramp()
    xs = np.array([-5.0, -1.0, -0.5, 0.0, 0.25, 1.0, 9.0])
    mu = p.component(0, xs)
    assert np.allclose(mu, [1.0, 1.0, 1.5, 2.0, 1.75, 1.0, 1.0])
    assert np.array_equal(p.left_tail, [1.0, -1.0])
    assert p.half_width == 1.0
    assert p.equal_tails()


def test_validation_errors():
    with pytest.raises(ValueError):
        PiecewiseProfile([0.0, 0.0], [[1.0], [1.0]])
    with pytest.raises(ValueError):
        PiecewiseProfile([0.0], [[1.0]])
    with pytest.raises(ValueError):
        PiecewiseProfile([0.0, 1.0], [[1.0]])


def test_l1_distance_identical_is_zero():
    assert l1_distance(ramp(), ramp(), 0) == 0.0
    assert l1_distance(ramp(), ramp(), 1) == 0.0


def test_l1_distance_triangle_area():
    flat = PiecewiseProfile([-1.0, 1.0], np.array([[1.0, -1.0], [1.0, -1.0]]))
    bumped = add_bump(flat, 0, 0.0, 0.25, 0.8)
    assert l1_distance(bumped, flat, 0) == pytest.approx(0.8 * 0.25, abs=1e-15)
    assert l1_distance(bumped, flat, 1) == 0.0


def test_l1_distance_differing_tails_is_infinite():
    p = ramp()
    q = PiecewiseProfile([-1.0, 1.0], np.array([[1.5, -1.0], [1.5, -1.0]]))
    assert l1_distance(p, q, 0) == math.inf
    assert l1_distance(p, q, 1) == 0.0


def test_l1_distance_matches_riemann_sum():
    p = ramp()
    q = ramp(offset=0.37)
    got = l1_distance(p, q, 0)
    want = riemann_l1(lambda x: p.component(0, x) - q.component(0, x), -1.5, 1.5)
    assert got == pytest.approx(want, abs=1e-8)


def test_l1_distance_is_a_metric_on_samples():
    rng = np.random.default_rng(3)
    profiles = [ramp(o) for o in rng.uniform(-0.5, 0.5, size=3)]
    a, b, c = profiles
    dab = l1_distance(a, b, 0)
    dba = l1_distance(b, a, 0)
    assert dab == pytest.approx(dba, rel=1e-14)
    dac = l1_distance(a, c, 0)
    dcb = l1_distance(c, b, 0)
    assert dab <= dac + dcb + 1e-14


def test_add_bump_preserves_tails_even_past_core():
    p = ramp()
    wide = add_bump(p, 1, 0.9, 0.5, 0.2)  # feet extend past x = 1
    assert np.array_equal(wide.values[0], p.values[0])
    assert np.array_equal(wide.values[-1], p.values[-1])
    assert wide.component(1, np.array([2.5]))[0] == -1.0
    # bump value at its center
    assert wide.component(1, np.array([0.9]))[0] == pytest.approx(-0.8, abs=1e-15)


def test_profile_file_round_trip(tmp_path):
    p = ramp(0.123456789012345)
    path = tmp_path / "profile.txt"
    write_profile(path, p)
    q = read_profile(path)
    assert np.array_equal(p.breakpoints, q.breakpoints)
    assert np.array_equal(p.values, q.values)
    header = path.read_text().splitlines()[0]
    assert header == "# richwave-profile v1, n=2"


def test_profile_file_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# not a profile\n0 1\n")
    with pytest.raises(ValueError):
        read_profile(path)


def test_profile_file_rejects_bad_columns(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# richwave-profile v1, n=2\n0 1\n")
    with pytest.raises(ValueError):
        read_profile(path)


@pytest.mark.parametrize("count", [9, 129, 257])
def test_segment_samples_are_the_union_of_per_segment_grids(count):
    p = PiecewiseProfile([-1.0, -0.3, 0.1, 0.45, 2.0], np.zeros((5, 1)))
    xs = p.breakpoints
    want = np.unique(np.concatenate(
        [np.linspace(xs[k], xs[k + 1], count) for k in range(len(xs) - 1)]))
    got = p.segment_samples(count)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert got.size == (len(xs) - 1) * (count - 1) + 1


def test_range_mesh_spans_each_component_range():
    vals = np.array([[1.0, 0.0, -1.0], [1.3, 0.0, -0.7], [0.8, 0.0, -1.0]])
    p = PiecewiseProfile([-1.0, 0.0, 1.0], vals)
    mesh = p.range_mesh(5)
    assert mesh.shape == (5 * 1 * 5, 3)
    assert np.array_equal(mesh[:, 1], np.zeros(25))
    for i in (0, 2):
        axis = np.linspace(vals[:, i].min(), vals[:, i].max(), 5)
        assert np.array_equal(np.unique(mesh[:, i]), axis)
    assert p.range_mesh(7).shape == (49, 3)
