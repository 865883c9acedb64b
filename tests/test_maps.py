import numpy as np
import pytest

from richwave import InversionError, MonotoneMap, maps


def test_linear_map_inversion():
    m = MonotoneMap(lambda x: 2.0 * x, x_lo=-10.0, x_hi=10.0,
                    left_slope=2.0, right_slope=2.0)
    assert m.invert(5.0) == pytest.approx(2.5, abs=1e-12)


def test_affine_tail_is_exact():
    # F(x) = x + 7 everywhere; beyond the core the inverse is the closed form
    m = MonotoneMap(lambda x: x + 7.0, x_lo=0.0, x_hi=10.0,
                    left_slope=1.0, right_slope=1.0)
    assert m.invert(100.0) == 93.0
    assert m.invert(-50.0) == -57.0
    assert m(93.0) == 100.0


def test_round_trip_random_piecewise_affine():
    rng = np.random.default_rng(11)
    for trial in range(5):
        xp = np.sort(rng.uniform(-3.0, 3.0, size=6))
        slopes = rng.uniform(0.2, 4.0, size=5)
        fp = np.concatenate([[0.0], np.cumsum(slopes * np.diff(xp))])

        def fwd(x):
            return np.interp(x, xp, fp)

        m = MonotoneMap(fwd, x_lo=float(xp[0]), x_hi=float(xp[-1]),
                        left_slope=float(slopes[0]), right_slope=float(slopes[-1]),
                        tol=1e-13)
        xs = rng.uniform(xp[0] - 2.0, xp[-1] + 2.0, size=1000)
        assert np.max(np.abs(m.invert(m(xs)) - xs)) < 1e-10
        ys = rng.uniform(m(xp[0] - 2.0), m(xp[-1] + 2.0), size=1000)
        assert np.max(np.abs(m(m.invert(ys)) - ys)) < 1e-10


def test_newton_with_derivative_matches_bisection():
    fwd = lambda x: x + 0.2 * np.sin(x)
    kw = dict(x_lo=-6.0, x_hi=6.0,
              left_slope=1.2, right_slope=1.2, tol=1e-13)
    m_plain = MonotoneMap(fwd, **kw)
    m_newton = MonotoneMap(fwd, deriv=lambda x: 1.0 + 0.2 * np.cos(x), **kw)
    ys = np.linspace(-5.0, 5.0, 201)
    assert np.max(np.abs(m_plain.invert(ys) - m_newton.invert(ys))) < 1e-11


def test_unreachable_target_raises():
    # Jump map: F skips (0, 1), so y = 0.5 has no preimage and the residual
    # cannot reach the tolerance.
    def fwd(x):
        return np.where(np.asarray(x) < 0.0, np.asarray(x), np.asarray(x) + 1.0)

    m = MonotoneMap(fwd, x_lo=-5.0, x_hi=5.0,
                    left_slope=1.0, right_slope=1.0)
    with pytest.raises(InversionError):
        m.invert(0.5)


@pytest.mark.parametrize(
    "targets, worst, miss",
    [
        # F jumps over (0, 1) and (3, 13): 2 has a preimage, 0.5 misses by
        # at most 1 and 7 by at least 4, so 7 is named
        ([2.0, 0.5, 7.0], 7.0, 4.0),
        # both inside (0, 1): 0.9 misses by 0.1, 0.5 by 0.5, so 0.5 is named
        ([0.9, 0.5], 0.5, 0.5),
    ],
    ids=["two-jumps", "one-jump"],
)
def test_inversion_error_names_worst_target(targets, worst, miss):
    def fwd(x):
        x = np.asarray(x)
        return x + np.where(x < 0.0, 0.0, 1.0) + np.where(x < 2.0, 0.0, 10.0)

    m = MonotoneMap(fwd, x_lo=-5.0, x_hi=5.0, left_slope=1.0, right_slope=1.0)
    with pytest.raises(InversionError) as info:
        m.invert(np.array(targets))
    assert "F^-1(y=%.17g)" % worst in str(info.value)
    assert "stalled: worst miss %.3e" % miss in str(info.value)
    assert info.value.owner == worst


def test_rejects_bad_bounds():
    with pytest.raises(ValueError):
        MonotoneMap(lambda x: x, x_lo=0.0, x_hi=1.0, left_slope=0.0, right_slope=1.0)
    with pytest.raises(ValueError):
        MonotoneMap(lambda x: -x, x_lo=0.0, x_hi=1.0, left_slope=1.0, right_slope=1.0)


def _cubic_map():
    # F(x) = x + x^3 / 3 on [-1, 1], affine with slope 2 outside
    return MonotoneMap(lambda x: x + x**3 / 3.0, -1.0, 1.0, 2.0, 2.0,
                       deriv=lambda x: 1.0 + x * x, tol=1e-12)


def test_inverse_table_is_certified_against_the_forward_map():
    fmap = _cubic_map()
    knots = np.array([1.0, -1.0, 0.0, 0.0])  # any order, repeats allowed
    (inv,) = maps._inverse_table(fmap._step, [(knots, fmap(knots))], (2.0, 2.0), fmap.tol,
                                 ["F^-1"])
    cert = inv.certificate
    assert cert.splits == 0 and cert.segments == 2
    assert cert.residual <= fmap.tol
    assert inv.table.left_tail[1] == 0.5 and inv.table.right_tail[1] == 0.5
    y = np.linspace(-4.0, 4.0, 801)
    assert np.max(np.abs(fmap(inv(y)) - y)) <= fmap.tol
    assert np.max(np.abs(inv(y) - fmap.invert(y))) <= 2.0 * fmap.tol


def test_sorted_knots_merge_images_that_do_not_increase():
    # a knot is kept only above every image before it; the outermost knot is
    # always kept and replaces a predecessor with an equal image
    xk, yk = maps._sorted_knots([2.0, 0.0, 1.0, 3.0, 0.0], [5.0, 1.0, 1.0, 5.0, 1.0])
    assert xk.tolist() == [0.0, 3.0] and yk.tolist() == [1.0, 5.0]
    xk, yk = maps._sorted_knots([0.0, 1.0, 2.0, 3.0], [0.0, 2.0, 1.0, 3.0])
    assert xk.tolist() == [0.0, 1.0, 3.0] and yk.tolist() == [0.0, 2.0, 3.0]
    with pytest.raises(InversionError, match="not increasing across its core"):
        maps._sorted_knots([0.0, 1.0, 2.0], [4.0, 4.0, 4.0])
    with pytest.raises(InversionError, match="not increasing across its core"):
        maps._sorted_knots([0.0, 1.0], [1.0, 0.0])


def test_inverse_table_merges_knot_images_that_do_not_increase():
    # the images of 0 and 0.5 tie (as two distinct kink images can within an
    # ulp of a coincidence time): 0.5 is merged away, the table is certified
    fmap = _cubic_map()
    knots = np.array([-1.0, 0.0, 0.5, 1.0])
    images = fmap(knots)
    images[2] = images[1]
    (inv,) = maps._inverse_table(fmap._step, [(knots, images)], (2.0, 2.0), fmap.tol, ["F^-1"])
    assert inv.certificate.splits == 0 and inv.certificate.segments == 2
    assert inv.table.breaks.tolist() == fmap(np.array([-1.0, 0.0, 1.0])).tolist()
    y = np.linspace(-4.0, 4.0, 81)
    assert np.max(np.abs(fmap(inv(y)) - y)) <= fmap.tol
    assert np.max(np.abs(inv(y) - fmap.invert(y))) <= 2.0 * fmap.tol


def _cubic(x):
    return x * x * x + x, 3.0 * x * x + 1.0


# Synthetic (F, F') maps on the core [-2, 2], written in arithmetic alone so
# a float and a one-element array take the same IEEE operations; each steers
# the safeguarded Newton of invert_increasing down one of its branches.
_FLOAT_LOOP_MAPS = {
    # Newton from the secant converges in a few steps
    "newton": (_cubic, 1e-12),
    # a zero or negative slope bisects
    "zero-slope": (lambda x: (_cubic(x)[0], 0.0 * x), 1e-12),
    "negative-slope": (lambda x: (_cubic(x)[0], -1.0 - x * x), 1e-12),
    # a slope far too small throws the candidate out of the bracket
    "overshoot": (lambda x: (_cubic(x)[0], 1e-3 * _cubic(x)[1]), 1e-12),
    # with no tolerance a point stops when its bracket collapses within noise
    "collapse": (lambda x: (3.0 * x + 0.1, 3.0 + 0.0 * x), 0.0),
}


def _both_inversions(f, y, lo, hi, tol):
    """invert_increasing on arrays and invert_floats on lists, each as
    (result or None, error message or None, error owner)."""
    f_lo, f_hi = f(lo)[0], f(hi)[0]
    out = []
    for call, args in (
        (maps.invert_increasing,
         (lambda x, owner: f(x), np.asarray(y, dtype=float), lo, hi, f_lo, f_hi,
          0.5, 2.0, np.full(len(y), tol))),
        (maps.invert_floats,
         (lambda x, p: f(x), list(y), [lo] * len(y), [hi] * len(y), [f_lo] * len(y),
          [f_hi] * len(y), 0.5, 2.0, [tol] * len(y))),
    ):
        try:
            out.append((np.asarray(call(*args), dtype=float), None, None))
        except InversionError as exc:
            out.append((None, str(exc), exc.owner))
    return out


@pytest.mark.parametrize("name", sorted(_FLOAT_LOOP_MAPS))
def test_float_loop_has_the_bits_of_invert_increasing(name):
    f, tol = _FLOAT_LOOP_MAPS[name]
    lo, hi = -2.0, 2.0
    f_lo, f_hi = f(lo)[0], f(hi)[0]
    rng = np.random.default_rng(31)
    # core targets, both bracket ends, both tails and the infinities
    y = np.concatenate([rng.uniform(f_lo, f_hi, 40), [f_lo, f_hi, f_lo - 3.0, f_hi + 5.0,
                                                       -np.inf, np.inf]])
    (want, _, _), (got, _, _) = _both_inversions(f, y, lo, hi, tol)
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
    # each float target alone is the same one-point loop
    for k in (0, 7, 41, 44):
        assert maps.invert_floats(lambda x, p: f(x), [y[k]], [lo], [hi], [f_lo], [f_hi],
                                  0.5, 2.0, [tol]) == [got[k]]
    if name == "collapse":  # some point stopped short of an exact zero
        assert np.any(3.0 * got[:40] + 0.1 != y[:40])


@pytest.mark.parametrize("targets", [[0.5, -1.5, 0.3], [0.3, np.nan, 0.5], [np.nan]])
def test_float_loop_stalls_like_invert_increasing(targets):
    # F jumps over (0, 1): a target there stalls, and the batch names the
    # worst (a NaN miss first, else the largest) by its index
    def jump(x):
        return x + (x > 0.0), 1.0 + 0.0 * x

    (_, want, want_owner), (_, got, got_owner) = _both_inversions(
        jump, targets, -2.0, 2.0, 1e-12)
    assert want is not None and "stalled" in want
    assert (got, got_owner) == (want, want_owner)


def _jump_map():
    # increasing, with a unit jump at 0.3: Newton stalls on targets inside it
    return MonotoneMap(lambda x: x + (x > 0.3), -1.0, 1.0, 1.0, 1.0,
                       deriv=lambda x: np.ones_like(x), tol=1e-12)


def _steps(fmaps):
    """``step(x, owner)`` of the maps ``fmaps``, map ``owner[p]`` at ``x[p]``."""
    def step(x, owner):
        out = np.empty((2, x.size))
        for m, fmap in enumerate(fmaps):
            on = owner == m
            out[:, on] = fmap._step(x[on], None)
        return out[0], out[1]

    return step


def test_stalled_map_in_a_batch_raises_as_alone_and_spares_the_others(monkeypatch):
    # the jump map's tight inversion stalls mid-ladder at every split level:
    # its InversionError leaves the ladder, the cubic keeps its table
    cubic, jump = _cubic_map(), _jump_map()
    knots = np.array([-1.0, 0.0, 1.0])
    alone = []
    for fmap, name in ((cubic, "C^-1"), (jump, "J^-1")):
        try:
            alone.append(maps._inverse_table(_steps([fmap]), [(knots, fmap(knots))],
                                             (1.0, 1.0), 1e-12, [name])[0])
        except maps.TabulationError as exc:
            alone.append(exc)
    assert isinstance(alone[0], maps.InverseTable)
    assert str(alone[1]).startswith("J^-1 is not certified after 4 splits: inversion stalled")
    built = []
    real = maps.InverseTable

    def recording(table, certificate):
        built.append(real(table, certificate))
        return built[-1]

    monkeypatch.setattr(maps, "InverseTable", recording)
    for order in ((cubic, jump), (jump, cubic)):
        del built[:]
        names = ["C^-1" if fmap is cubic else "J^-1" for fmap in order]
        with pytest.raises(maps.TabulationError) as batch:
            maps._inverse_table(_steps(order), [(knots, fmap(knots)) for fmap in order],
                                (1.0, 1.0), 1e-12, names)
        assert str(batch.value) == str(alone[1])
        assert batch.value.owner == names.index("J^-1")
        (inv,) = built
        assert inv.certificate == alone[0].certificate
        for got, want in zip(inv.table.coefs, alone[0].table.coefs):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
