import numpy as np
import pytest
from numpy.polynomial import chebyshev as C

from helpers import three_speed_profile, three_speed_system
from richwave import solve
from richwave.cheb import PiecewiseCheb, fit_piecewise


def reference_call(f, x):
    """Per-segment np.unique/chebval evaluation: the loop the padded
    Clenshaw pass replaced, kept as the bit-for-bit reference."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    xv = np.atleast_1d(x).astype(float)
    out = np.empty_like(xv)
    b = f.breaks
    left = xv < b[0]
    right = xv > b[-1]
    if left.any():
        v, s = f.left_tail
        out[left] = v + s * (xv[left] - b[0])
    if right.any():
        v, s = f.right_tail
        out[right] = v + s * (xv[right] - b[-1])
    inner = ~(left | right)
    if inner.any():
        xi = xv[inner]
        seg = np.clip(np.searchsorted(b, xi, side="right") - 1, 0, len(b) - 2)
        res = np.empty_like(xi)
        for k in np.unique(seg):
            sel = seg == k
            a, c = b[k], b[k + 1]
            tt = (2.0 * xi[sel] - (a + c)) / (c - a)
            res[sel] = C.chebval(tt, f.coefs[k])
        out[inner] = res
    return float(out[0]) if scalar else out


def same_bits(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def mixed_table():
    rng = np.random.default_rng(7)
    lengths = (1, 2, 3, 7, 15, 2, 1, 9)
    breaks = np.cumsum(rng.uniform(0.05, 1.5, len(lengths) + 1)) - 3.0
    coefs = [rng.normal(size=m) * 0.5 ** np.arange(m) for m in lengths]
    return PiecewiseCheb(breaks, coefs, (0.7, -0.3), (-1.1, 2.5))


def fitted_tables():
    breaks = np.array([-1.0, -0.3, 0.0, 0.2, 1.0])
    f = fit_piecewise(lambda x: np.exp(np.sin(3.0 * x)) + np.abs(x), breaks)
    return [f, f.derivative(), f.derivative().antiderivative(anchor=0.0)]


def probe_points(f, seed):
    b = f.breaks
    rng = np.random.default_rng(seed)
    return np.concatenate(
        [
            b,
            np.nextafter(b, -np.inf),
            np.nextafter(b, np.inf),
            rng.uniform(b[0], b[-1], 400),
            b[0] - rng.uniform(0.0, 5.0, 20),
            b[-1] + rng.uniform(0.0, 5.0, 20),
        ]
    )


@pytest.mark.parametrize("f", [mixed_table()] + fitted_tables())
def test_padded_clenshaw_matches_per_segment_chebval(f):
    x = probe_points(f, seed=len(f.coefs))
    assert same_bits(f(x), reference_call(f, x))


def test_single_segment_of_one_coefficient():
    f = PiecewiseCheb([0.0, 1.0], [[2.5]], (2.5, 0.0), (2.5, 0.0))
    x = np.array([-1.0, 0.0, 0.25, 1.0, 2.0])
    assert same_bits(f(x), reference_call(f, x))


def test_shape_preserved_for_2d_input():
    f = mixed_table()
    x = probe_points(f, seed=3)[:460].reshape(23, 20)
    got = f(x)
    assert got.shape == x.shape
    assert same_bits(got, reference_call(f, x))


def test_zero_d_input_returns_python_float():
    f = mixed_table()
    for xv in (f.breaks[0] - 1.0, f.breaks[3], 0.5 * (f.breaks[4] + f.breaks[5]),
               f.breaks[-1], f.breaks[-1] + 2.0):
        got = f(np.float64(xv))
        assert type(got) is float
        assert same_bits(got, reference_call(f, xv))


def test_stacked_state_lagrangian_matches_per_component_loop():
    sol = solve(three_speed_system(), three_speed_profile())
    rng = np.random.default_rng(11)
    z = rng.uniform(-4.0, 4.0, (6, 7))
    t = rng.uniform(0.0, 3.0, (6, 1))
    want = np.empty((6, 7, sol.system.n))
    for i in range(sol.system.n):
        s = sol.system.lagrangian_speeds[i]
        want[..., i] = sol.initial.component(i, sol.initial_position(z - s * t))
    assert sol.system.n == 3
    assert same_bits(sol.state_lagrangian(t, z), want)
    point = [
        sol.initial.component(i, sol.initial_position(z[2, 3] - s * t[2, 0]))
        for i, s in enumerate(sol.system.lagrangian_speeds)
    ]
    assert same_bits(sol.state_lagrangian(t[2, 0], z[2, 3]), point)
