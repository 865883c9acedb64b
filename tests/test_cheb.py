import numpy as np
import pytest
from numpy.polynomial import chebyshev as C

from helpers import (
    abi_middle_profile,
    bi_tworamp_profile,
    fit_piecewise_reference,
    fit_segment_reference,
    three_speed_profile,
    three_speed_system,
)
from richwave import (
    asymptotics, augmented_born_infeld, born_infeld, cheb, maps, solve, solver,
)
from richwave.cheb import _DEGREES, PiecewiseCheb, StackedCheb, fit_piecewise
from richwave.config import load_config, preset_names


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


def table_on(breaks, seed):
    """Random table on given breaks: mixed lengths, random tails."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, 16, len(breaks) - 1)
    coefs = [rng.normal(size=m) * 0.5 ** np.arange(m) for m in lengths]
    return PiecewiseCheb(breaks, coefs, rng.normal(size=2), rng.normal(size=2))


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


@pytest.fixture
def paths(monkeypatch):
    """``paths()`` yields "numpy" then "scalar", first putting every
    StackedCheb call on numpy arrays (even an empty call), then on Python
    floats (the small-call path)."""
    def each():
        for name, limit in (("numpy", -1), ("scalar", 1 << 62)):
            monkeypatch.setattr(cheb, "_SCALAR_COLUMNS", limit)
            yield name

    return each


@pytest.mark.parametrize("f", [mixed_table()] + fitted_tables())
def test_padded_clenshaw_matches_per_segment_chebval(f, paths):
    x = probe_points(f, seed=len(f.coefs))
    for path in paths():
        assert same_bits(f(x), reference_call(f, x)), path


def kernel_inputs(f):
    """Inputs that take each path of the evaluator alone: inner points over
    several chunks, tails only, core only, and no points."""
    b = f.breaks
    rng = np.random.default_rng(5)
    core = rng.uniform(b[0], b[-1], 2 * cheb._STACK_CHUNK + 17)
    tails = np.concatenate([b[0] - rng.uniform(0.0, 5.0, 30),
                            b[-1] + rng.uniform(0.0, 5.0, 30)])
    return {"chunks": core, "tail-only": tails, "core-only": core[:50],
            "empty": np.empty(0)}


@pytest.mark.parametrize("kind", ["chunks", "tail-only", "core-only", "empty"])
@pytest.mark.parametrize("f", [mixed_table()] + fitted_tables())
def test_every_input_kind_matches_per_segment_chebval(f, kind, paths):
    x = kernel_inputs(f)[kind]
    for path in paths():
        assert same_bits(f(x), reference_call(f, x)), path


def test_single_segment_of_one_coefficient(paths):
    f = PiecewiseCheb([0.0, 1.0], [[2.5]], (2.5, 0.0), (2.5, 0.0))
    x = np.array([-1.0, 0.0, 0.25, 1.0, 2.0])
    for path in paths():
        assert same_bits(f(x), reference_call(f, x)), path


def test_one_point_calls_match_one_batch_call():
    # one-point calls take the Python-float path and a batch the numpy one:
    # breaks, one ulp either side, tails, the length-1 segments, NaN and
    # infinities all get the same bits
    f = mixed_table()
    b = f.breaks
    assert len(f.coefs[0]) == len(f.coefs[6]) == 1
    x = np.concatenate([probe_points(f, seed=4), 0.5 * (b[:-1] + b[1:]),
                        [np.nan, np.inf, -np.inf]])
    assert 1 <= cheb._SCALAR_COLUMNS < x.size
    batch = f(x)
    assert same_bits([f(x[k:k + 1])[0] for k in range(x.size)], batch)
    assert same_bits([f(v) for v in x], batch)


def test_negative_zero_top_coefficient_keeps_the_padded_bits(monkeypatch):
    # [-0.0, -0.0] padded by a zero gives +0.0 at tt >= 0 where its own
    # recurrence (chebval) gives -0.0: the small-call path keeps one pad
    f = PiecewiseCheb([0.0, 1.0, 2.0], [[-0.0, -0.0], [1.0, 0.5, 0.25]], (0.0, 0.0), (0.0, 0.0))
    x = np.array([0.25, 0.5, 0.75, 1.5])
    assert same_bits(C.chebval(2.0 * x[:3] - 1.0, [-0.0, -0.0]), [0.0, -0.0, -0.0])
    monkeypatch.setattr(cheb, "_SCALAR_COLUMNS", -1)
    want = f(x)
    assert same_bits(want[:3], [0.0, 0.0, 0.0])
    monkeypatch.setattr(cheb, "_SCALAR_COLUMNS", 1 << 62)
    assert same_bits(f(x), want)


def test_shape_preserved_for_2d_input():
    for f in [mixed_table()] + fitted_tables():
        x = probe_points(f, seed=3)
        x = x[: x.size - x.size % 5].reshape(-1, 5)
        got = f(x)
        assert got.shape == x.shape
        assert same_bits(got, reference_call(f, x))


def test_zero_d_input_returns_python_float():
    for f in [mixed_table()] + fitted_tables():
        b = f.breaks
        for xv in (b[0] - 1.0, b[0], np.nextafter(b[0], -np.inf), b[3],
                   0.5 * (b[2] + b[3]), b[-1], np.nextafter(b[-1], np.inf), b[-1] + 2.0):
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


@pytest.mark.parametrize("chunk", [None, 7], ids=["one-chunk", "many-chunks"])
def test_stacked_tables_match_each_table_bit_for_bit(chunk, monkeypatch, paths):
    if chunk is not None:
        monkeypatch.setattr(cheb, "_STACK_CHUNK", chunk)
    base = mixed_table()
    rows = [[base, table_on(base.breaks, 8), table_on(base.breaks, 9)],
            [table_on(base.breaks, 10), table_on(base.breaks, 11),
             table_on(base.breaks, 12)]]
    x = np.stack([probe_points(base, seed=1), probe_points(base, seed=2)])
    for path in paths():
        got = StackedCheb(rows)(x)
        assert got.shape == (3,) + x.shape
        for q, row in enumerate(rows):
            for j, tab in enumerate(row):
                assert same_bits(got[j, q], tab(x[q])), path
        assert StackedCheb(rows)(np.empty((2, 0))).shape == (3, 2, 0)


def _owner(f, p):
    """``f(x, owner)`` of a fit over several owners, as owner ``p``'s ``f(x)``."""
    return lambda x: f(x, np.full(np.shape(x), p))


def _recorded_fits(monkeypatch, build):
    """(fitted table, f, breaks, kwargs) of every table fit_piecewise fits in
    build(): one entry per owner of a fit over several, with that owner's f."""
    fits = []

    def recording(f, breaks, rtol=1e-13, tail_slopes=(0.0, 0.0)):
        out = fit_piecewise(f, breaks, rtol, tail_slopes)
        kw = dict(rtol=rtol, tail_slopes=tail_slopes)
        if np.ndim(breaks[0]) == 0:
            fits.append((out, f, np.asarray(breaks), kw))
        else:
            fits.extend((table, _owner(f, p), np.asarray(b), kw)
                        for p, (table, b) in enumerate(zip(out, breaks)))
        return out

    for module in (solver, maps, asymptotics):
        monkeypatch.setattr(module, "fit_piecewise", recording)
    build()
    monkeypatch.undo()
    return fits


def _with_closed_form(sol):
    return sol._p_mu, sol._p_lam


_FIT_CASES = {
    # _n0, _x0 (an inverse table), one tau table per family, and the mu/lam
    # integrand tables of the closed form's p_mu and p_lam
    "bi-two-ramp": (lambda: _with_closed_form(solve(born_infeld(1.0), bi_tworamp_profile())),
                    4 + 2),
    "abi-middle": (lambda: solve(augmented_born_infeld(1.0), abi_middle_profile()), 5),
    "three-speed": (lambda: solve(three_speed_system(), three_speed_profile()), 5),
    # the generic shape corrections: a moving and a zero-speed family
    "shape-moving": (
        lambda: asymptotics.build_shape(
            solve(born_infeld(1.0), bi_tworamp_profile()), 0), 4 + 1),
    "shape-zero-speed": (
        lambda: asymptotics.build_shape(
            solve(augmented_born_infeld(1.0), abi_middle_profile()), 1), 5 + 1),
}


def _fit_alone(f, a, b, rtol):
    """(coefficients, degree reached) of ``fit_piecewise`` on ``[a, b]`` alone."""
    calls = []

    def counting(x):
        calls.append(len(x))
        return f(x)

    table = fit_piecewise(counting, np.array([a, b]), rtol)
    return table.coefs[0], _DEGREES[len(calls) - 2]  # one rung per call, then the check


@pytest.mark.parametrize("case", sorted(_FIT_CASES))
def test_rung_batched_fit_matches_per_segment_reference(case, monkeypatch):
    # each segment gets the bits it gets when fitted alone: the FFT
    # transforms every row of a rung on its own
    build, count = _FIT_CASES[case]
    fits = _recorded_fits(monkeypatch, build)
    assert len(fits) == count
    for out, f, breaks, kw in fits:
        assert len(out.coefs) == len(breaks) - 1
        for k, got in enumerate(out.coefs):
            assert same_bits(got, _fit_alone(f, breaks[k], breaks[k + 1], kw["rtol"])[0])
        slopes = kw["tail_slopes"]
        left, right = np.asarray(f(breaks[[0, -1]]), dtype=float)
        assert same_bits(out.left_tail, (left, slopes[0]))
        assert same_bits(out.right_tail, (right, slopes[1]))


@pytest.mark.parametrize("case", sorted(_FIT_CASES))
def test_fft_fit_matches_least_squares_oracle(case, monkeypatch):
    # chebfit on the same nodes is the same interpolant by an SVD solve: the
    # same rung must resolve each segment, and the coefficients agree to
    # 1e-14 of the segment's coefficient scale on their common length (a
    # trim length may differ, as the last kept coefficients are noise)
    build, _ = _FIT_CASES[case]
    for out, f, breaks, kw in _recorded_fits(monkeypatch, build):
        for k, got in enumerate(out.coefs):
            a, b = breaks[k], breaks[k + 1]
            want, want_deg = fit_segment_reference(f, a, b, kw["rtol"])
            assert _fit_alone(f, a, b, kw["rtol"])[1] == want_deg
            m = min(len(got), len(want))
            assert np.max(np.abs(got[:m] - want[:m])) <= 1e-14 * np.max(np.abs(want))


def _rungs_used(f, breaks):
    """Rungs of the degree ladder the per-segment reference climbs."""
    sizes = []

    def sizing(x):
        sizes.append(len(x))
        return f(x)

    fit_piecewise_reference(sizing, breaks)
    return _DEGREES.index(max(sizes) - 1) + 1


def _x0_inversion():
    """The tight inverse of Z0 that a Born-Infeld solve fits X0 from."""
    fits = []
    real = maps.fit_piecewise

    def recording(f, breaks, *args):
        fits.append((_owner(f, 0), breaks[0]))  # the one map of an X0 table
        return real(f, breaks, *args)

    maps.fit_piecewise = recording
    try:
        solve(born_infeld(1.0), bi_tworamp_profile())
    finally:
        maps.fit_piecewise = real
    return fits[0]


@pytest.mark.parametrize(
    "make",
    [
        lambda: (np.exp, np.array([0.0, 0.5, 1.0])),
        lambda: (lambda x: np.exp(np.sin(9.0 * x)) + np.abs(x),
                 np.array([-1.0, -0.3, 0.0, 0.2, 1.0])),
        lambda: (lambda x: np.sin(40.0 * x), np.array([0.0, 0.1, 2.0])),
        _x0_inversion,
    ],
    ids=["one-rung", "mixed-rungs", "one-slow-segment", "x0-inversion"],
)
def test_fit_calls_f_once_per_rung_and_once_to_check(make):
    f, breaks = make()
    rungs = _rungs_used(f, breaks)
    calls = []

    def counting(x):
        calls.append(len(x))
        return f(x)

    fit_piecewise(counting, breaks)
    assert len(calls) == rungs + 1
    if make is _x0_inversion:
        assert rungs == 1  # so a Born-Infeld solve inverts Z0 twice for X0


def test_unresolved_segment_is_named_after_the_last_rung():
    # a jump inside the second and third segments: the ladder runs out there,
    # and the error names the first of them with its last rung's tail
    def f(x):
        return np.where(x < 0.3, -1.0, 1.0) + np.where(x < 1.5, 0.0, 1.0)

    with pytest.raises(cheb.TabulationError, match=r"on \[0\.1, 1\] did not converge "
                       r"\(tail \S+ of scale \S+\)"):
        fit_piecewise(f, np.array([0.0, 0.1, 1.0, 2.0]))


def test_noise_segment_resolves_on_the_absolute_tail_floor():
    # f is 0 on [0, 1] but for 1e-18 at the shared break: relative to its own
    # scale that segment is all tail, next to [1, 2] it is rounding noise
    def f(x):
        return np.where(x < 1.0, 0.0, 1e-18 + (x - 1.0))

    table = fit_piecewise(f, [0.0, 1.0, 2.0])
    x = np.linspace(0.0, 2.0, 101)
    assert np.max(np.abs(table(x) - f(x))) <= 1e-15


def _table_bits(table):
    if table is None:  # an uncertified snapshot keeps no table
        return None
    return ([np.asarray(c).view(np.int64).tolist() for c in table.coefs],
            table.breaks.tolist(), table.left_tail, table.right_tail)


@pytest.mark.parametrize("name", preset_names())
def test_tail_floor_keeps_every_preset_table(name, monkeypatch):
    # On the presets no segment resolves on the floor alone: with the floor
    # off, the purely relative test, every table keeps its bits
    def tables():
        cfg = load_config(name)
        sol = solve(cfg.system, cfg.profile, quad_tol=cfg.quad_tol, inv_tol=cfg.inv_tol)
        out = [sol._n0, sol._z0, sol._x0, sol._p_mu, sol._p_lam]
        out += [sol.snapshot(t).coordinate.table for t in (0.5, 2.0, 8.0)]
        # the per-family tables, as their stack's coefficients and tails
        stack = sol._tables
        return [_table_bits(table) for table in out] + [
            stack._table.view(np.int64).tolist(), [np.asarray(t).tolist() for t in stack._tails]]

    floored = tables()
    monkeypatch.setattr(cheb, "_TAIL_FLOOR", 0.0)
    assert tables() == floored


def test_owners_of_one_ladder_keep_their_own_scale():
    # scales 1e6 apart: the tail floor of owner 1 follows its own largest
    # scale, so each owner gets the table it gets alone
    fs = [lambda x: 1e6 * np.exp(x), lambda x: np.sin(7.0 * x) + x * x]
    breaks = [np.array([0.0, 1.0]), np.array([0.0, 0.4, 1.0])]
    both = fit_piecewise(lambda x, owner: np.where(owner == 0, fs[0](x), fs[1](x)), breaks)
    assert len(both) == 2
    for table, f, b in zip(both, fs, breaks):
        assert _table_bits(table) == _table_bits(fit_piecewise(f, b))


def test_failing_owner_is_named_and_the_others_fit():
    # a jump in owner 1's second segment: the ladder runs out there alone and
    # in a batch, with the same message, and owner 0 fits as it does alone
    fs = [np.exp, lambda x: np.where(x < 0.7, 0.0, 1.0)]
    breaks = [np.array([0.0, 1.0]), np.array([0.0, 0.5, 1.0])]
    with pytest.raises(cheb.TabulationError) as alone:
        fit_piecewise(fs[1], breaks[1])
    with pytest.raises(cheb.TabulationError) as batch:
        fit_piecewise(lambda x, owner: np.where(owner == 0, fs[0](x), fs[1](x)), breaks)
    assert str(batch.value) == str(alone.value)
    assert (alone.value.owner, batch.value.owner) == (0, 1)
