import math

import numpy as np
import pytest

from helpers import bisect_full_cap
from richwave import QuadratureError, integrate, quadrature
from richwave.quadrature import (
    bisect_brackets,
    integrate_abs,
    refine_sign_changes,
)


def test_constant_integrand():
    assert integrate(lambda x: 3.5 + 0.0 * x, 0.0, 1.0) == pytest.approx(3.5, abs=1e-14)


def test_rational_integrand_closed_form():
    # antiderivative of 2/(x+3) is 2 ln(x+3)
    val = integrate(lambda x: 2.0 / (x + 3.0), -1.0, 0.0)
    assert val == pytest.approx(2.0 * math.log(1.5), abs=1e-12)


def test_absolute_value_exact_once_split():
    val = integrate(np.abs, -1.0, 1.0, kinks=[0.0])
    assert val == 1.0


def test_reversed_limits_flip_sign():
    fwd = integrate(lambda x: x**2, 0.0, 2.0)
    rev = integrate(lambda x: x**2, 2.0, 0.0)
    assert fwd == pytest.approx(8.0 / 3.0, abs=1e-12)
    assert rev == pytest.approx(-fwd, abs=1e-14)


def test_empty_interval():
    assert integrate(lambda x: x, 1.3, 1.3) == 0.0


def test_piecewise_linear_exact_with_kinks():
    rng = np.random.default_rng(7)
    xp = np.sort(rng.uniform(-2.0, 2.0, size=9))
    fp = rng.uniform(-1.0, 1.0, size=9)

    def f(x):
        return np.interp(x, xp, fp)

    # trapezoid closed form on the kink grid is exact for this integrand
    exact = float(np.trapezoid(fp, xp))
    val = integrate(f, xp[0], xp[-1], kinks=xp[1:-1])
    assert val == pytest.approx(exact, abs=1e-13)


def test_kinks_outside_interval_are_ignored():
    val = integrate(lambda x: x, 0.0, 1.0, kinks=[-5.0, 7.0, 0.5])
    assert val == pytest.approx(0.5, abs=1e-14)


def test_depth_limit_raises_with_interval():
    # an unsplit jump never meets the per-panel budget: both the Simpson
    # error and the budget scale as 2^-depth on the straddling panel
    with pytest.raises(QuadratureError) as info:
        integrate(lambda x: np.sign(x - 1.0 / 3.0), 0.0, 1.0, tol=1e-6)
    lo, hi = info.value.interval
    assert lo < 1.0 / 3.0 < hi
    # in a shared pass the failing integral is named as well
    with pytest.raises(QuadratureError) as info:
        integrate(
            lambda x, owner: np.sign(x - 1.0 / 3.0) * owner, [0.0, 0.0], [1.0, 1.0],
            tol=1e-6,
        )
    assert info.value.owner == 1
    lo, hi = info.value.interval
    assert lo < 1.0 / 3.0 < hi


def test_scalar_returning_integrand_broadcasts():
    assert integrate(lambda x: 2.0, -1.0, 0.5) == pytest.approx(3.0, abs=1e-14)
    got = integrate(lambda x, owner: 2.0, [0.0, 1.0], [1.0, -1.0])
    assert np.allclose(got, [2.0, -4.0], atol=1e-14)


def _many_integrals_case():
    # per-owner integrands, kinks and reversed / empty intervals in one pass
    rng = np.random.default_rng(3)
    a = rng.uniform(-2.0, 0.0, size=12)
    b = rng.uniform(0.0, 3.0, size=12)
    a[3], b[3] = b[3], a[3]
    b[7] = a[7]
    shift = rng.uniform(-1.0, 1.0, size=12)
    kinks = np.column_stack([shift, np.full(12, np.nan), shift + 0.5])
    return a, b, shift, kinks


def test_many_integrals_in_one_pass_match_separate_calls():
    a, b, shift, kinks = _many_integrals_case()
    calls = []

    def f(x, owner):
        calls.append(len(x))
        return np.abs(x - shift[owner]) * np.cos(x + owner)

    got = integrate(f, a, b, kinks, tol=1e-11)
    for p in range(12):
        want = integrate(
            lambda x, p=p: np.abs(x - shift[p]) * np.cos(x + p),
            a[p], b[p], kinks=[shift[p], shift[p] + 0.5], tol=1e-11,
        )
        assert got[p] == want
    assert got[7] == 0.0
    # one call for the start and one per refinement level
    assert len(calls) <= quadrature.MAX_DEPTH + 2


def test_scalar_results_keep_their_bits():
    # values of the scalar-only pass that preceded vector integrands
    a, b, shift, kinks = _many_integrals_case()
    got = integrate(
        lambda x, owner: np.abs(x - shift[owner]) * np.cos(x + owner),
        a, b, kinks, tol=1e-11,
    )
    want = [
        "0x1.9e27afaa6077cp+0", "0x1.338ee4f11b13dp-1", "-0x1.0f0cb870899a2p+1",
        "-0x1.d0d3df1258af6p-4", "-0x1.dce2f31d3b3fep-1", "0x1.6f1851505a278p-1",
        "0x1.55220c440f180p+0", "0x0.0p+0", "0x1.8f2e673a7a1bbp-5",
        "-0x1.6b4c885b9b572p-3", "-0x1.8181ff08c26d8p-1", "-0x1.d5973ba3c74f6p-3",
    ]
    assert got.shape == (12,)
    assert [float(g).hex() for g in got] == want


def test_vector_integrand_columns_match_scalar_calls():
    a, b, shift, kinks = _many_integrals_case()
    columns = (
        lambda x, o: np.abs(x - shift[o]) * np.cos(x + o),
        lambda x, o: np.exp(0.3 * x) + o,
        lambda x, o: np.sin(3.0 * x) * np.abs(x - shift[o] - 0.5),
    )
    got = integrate(
        lambda x, o: np.column_stack([c(x, o) for c in columns]), a, b, kinks,
        tol=1e-11,
    )
    assert got.shape == (12, 3)
    for j, c in enumerate(columns):
        want = integrate(c, a, b, kinks, tol=1e-11)
        assert np.max(np.abs(got[:, j] - want)) <= 1e-11
    assert np.all(got[7] == 0.0)
    # integrate returns a length-m array for a vector integrand
    one = integrate(
        lambda x: np.column_stack([x, x**2]), 2.0, 0.0, kinks=[1.0], tol=1e-12
    )
    assert one.shape == (2,)
    assert np.allclose(one, [-2.0, -8.0 / 3.0], atol=1e-12)


def test_hard_column_refines_shared_panels():
    # Simpson is exact on x**2, so the easy column alone stops at once; next
    # to sin(40 x) it is evaluated on every panel the hard column refines
    points = {}

    def counted(name, f):
        def g(x):
            points[name] = points.get(name, 0) + len(x)
            return f(x)
        return g

    easy = integrate(counted("easy", lambda x: x**2), 0.0, 1.0, tol=1e-10)
    hard = integrate(counted("hard", lambda x: np.sin(40.0 * x)), 0.0, 1.0, tol=1e-10)
    both = integrate(
        counted("both", lambda x: np.column_stack([x**2, np.sin(40.0 * x)])),
        0.0, 1.0, tol=1e-10,
    )
    assert points["both"] == points["hard"] > points["easy"]
    assert both[1] == hard
    assert abs(both[0] - easy) <= 1e-10
    assert abs(both[0] - 1.0 / 3.0) <= 1e-10


def test_vector_failure_names_owner_and_interval():
    with pytest.raises(QuadratureError) as info:
        integrate(
            lambda x, owner: np.column_stack(
                [np.cos(x), np.sign(x - 1.0 / 3.0) * owner]
            ),
            [0.0, 0.0, 0.0], [1.0, 1.0, 1.0], tol=1e-6,
        )
    assert info.value.owner in (1, 2)
    lo, hi = info.value.interval
    assert lo < 1.0 / 3.0 < hi


@pytest.mark.parametrize("iters", [7, 20, 52, 53, 60, 61, 80])
def test_bisection_early_stop_is_bit_exact(iters):
    rng = np.random.default_rng(11)
    roots = rng.uniform(-50.0, 50.0, size=40)
    # roots at and near 0 need more bisections than any cap to reach one
    # ulp; the one at 0 sits exactly on the first midpoint
    near_zero = np.array([0.0, 2.0**-30])
    lo = roots - rng.uniform(1e-6, 3.0, size=40)
    hi = roots + rng.uniform(1e-6, 3.0, size=40)
    slope = np.where(rng.uniform(size=40) < 0.5, -1.0, 1.0)
    levels = quadrature._BISECT_LEVELS

    def run(roots, lo, hi, slope, bisect):
        calls = []

        def f(x, owner):
            calls.append(1)
            return slope[owner] * np.sinh(x - roots[owner])

        mids = bisect(f, lo, hi, slope * np.sinh(lo - roots), iters)
        return mids.view(np.int64).tolist(), len(calls)

    want, full = run(roots, lo, hi, slope, bisect_full_cap)
    got, early = run(roots, lo, hi, slope, bisect_brackets)
    assert got == want
    assert full == iters
    # every bracket reaches one ulp within 58 bisections, the first 60
    # levels of calls of _BISECT_LEVELS = 4
    assert early <= math.ceil(iters / levels)
    if iters > 60:
        assert early < math.ceil(iters / levels)

    args = (
        np.concatenate([roots, near_zero]),
        np.concatenate([lo, [-1.0, 0.0]]),
        np.concatenate([hi, [1.0, 1.0]]),
        np.concatenate([slope, [1.0, -1.0]]),
    )
    want, _ = run(*args, bisect_full_cap)
    got, early = run(*args, bisect_brackets)
    assert got == want
    # one call per _BISECT_LEVELS steps, the last one for the remainder
    assert early == math.ceil(iters / levels)


def test_bisection_of_no_brackets_calls_nothing():
    def f(x, owner):
        raise AssertionError("integrand called")

    empty = np.empty(0)
    assert bisect_brackets(f, empty, empty, empty, 52).shape == (0,)


def test_live_panel_cap_raises_a_named_error(monkeypatch):
    # sin(40 x) on [0, 10] needs hundreds of panels: it converges under the
    # default cap and names the limit and its worst panel under a low one
    def f(x):
        return np.sin(40.0 * x)

    assert integrate(f, 0.0, 10.0, tol=1e-10) == pytest.approx(
        (1.0 - math.cos(400.0)) / 40.0, abs=1e-10)
    monkeypatch.setattr(quadrature, "MAX_PANELS", 64)
    with pytest.raises(QuadratureError, match="64 live panels exceeded") as info:
        integrate(f, 0.0, 10.0, tol=1e-10)
    lo, hi = info.value.interval
    assert 0.0 <= lo < hi <= 10.0
    assert info.value.owner == 0


def test_refine_sign_changes_call_count():
    calls = []

    def f(x, owner):
        calls.append(1)
        return np.sin(x + owner)

    roots = refine_sign_changes(f, [[-4.0, 0.5, 4.0], [-4.0, 0.3, 4.0]])
    assert np.sum(~np.isnan(roots)) == 5
    # one probe call, then one call per _BISECT_LEVELS bisection steps
    levels = quadrature._BISECT_LEVELS
    assert len(calls) <= 1 + math.ceil(quadrature._SIGN_ITERS / levels)


@pytest.mark.parametrize("panels", [1, 2, 8])
def test_contiguous_panels_share_their_edge_probes(panels):
    sizes = []

    def f(x, owner):
        sizes.append(len(x))
        return 1.0 + x * x

    samples = quadrature._SIGN_SAMPLES
    refine_sign_changes(f, [np.linspace(0.0, 1.0, panels + 1)])
    assert sizes == [(samples - 1) * panels + 1]
    # owners never share: a row starting where the previous row ends, and
    # an empty panel between two panels of one row
    sizes.clear()
    refine_sign_changes(f, [[0.0, 1.0, 2.0, np.nan], [2.0, 3.0, 3.0, 4.0]])
    assert sizes == [2 * (2 * samples - 1)]


def test_shared_edge_value_brackets_the_next_panels_root():
    # roots just right (owner 0) and left (owner 1) of the shared edge 0.5:
    # owner 0's bracket starts at the copied value
    root = np.array([0.53, 0.47])
    roots = refine_sign_changes(lambda x, owner: x - root[owner], [[0.0, 0.5, 1.0]] * 2)
    assert roots.shape == (2, 1)
    assert roots[:, 0] == pytest.approx(root, abs=1e-15)


def test_refine_sign_changes_locates_roots():
    roots = refine_sign_changes(lambda x, owner: np.sin(x), [[-4.0, 0.5, 4.0]])
    roots = sorted(roots[0])
    assert len(roots) == 3
    assert roots[0] == pytest.approx(-math.pi, abs=1e-10)
    assert roots[1] == pytest.approx(0.0, abs=1e-10)
    assert roots[2] == pytest.approx(math.pi, abs=1e-10)


def test_root_on_a_probe_point_is_returned():
    # x = -1 is a probe point of the panel [-4, 0]: its value is exactly 0,
    # so neither neighbouring pair of probes changes sign
    roots = refine_sign_changes(lambda x, owner: np.sin(x + 1.0), [[-4.0, 0.0, 4.0]])
    assert roots.shape == (1, 2)
    assert -1.0 in roots[0]
    assert roots[0][roots[0] != -1.0][0] == pytest.approx(math.pi - 1.0, abs=1e-12)
    # per owner, next to a bisected root of another owner
    roots = refine_sign_changes(
        lambda x, owner: np.sin(x + 1.0 + 0.5 * owner),
        [[-4.0, 0.0, 4.0], [-4.0, 0.0, 4.0]],
    )
    assert -1.0 in roots[0] and -1.5 in roots[1]


def test_root_on_a_shared_panel_edge_is_returned():
    # the edge 0.5 is the last probe of one panel and the first of the next
    roots = refine_sign_changes(lambda x, owner: x - 0.5, [[0.0, 0.5, 1.0]])
    assert roots.shape == (1, 1) and roots[0, 0] == 0.5
    # per owner, next to a bisected root; a touching zero is no root
    roots = refine_sign_changes(
        lambda x, owner: (x - 0.5) * np.where(owner == 0, x - 0.8, x - 0.5),
        [[0.0, 0.5, 1.0], [0.0, 0.5, 1.0]],
    )
    assert roots.shape == (2, 2)
    assert roots[0, 0] == 0.5 and roots[0, 1] == pytest.approx(0.8, abs=1e-15)
    assert np.all(np.isnan(roots[1]))


def test_zero_runs_give_no_roots():
    # identically 0 on a plateau, as the L1 integrands are: no panel edges,
    # whatever the signs on either side
    def plateau(x, owner):
        return np.where(np.abs(x) <= 1.0, 0.0, np.sign(x) * (owner + 1.0))

    roots = refine_sign_changes(plateau, [[-4.0, 4.0, np.nan], [-2.0, 0.0, 2.0]])
    assert roots.shape == (2, 0)


def test_refine_sign_changes_none():
    roots = refine_sign_changes(lambda x, owner: 1.0 + 0.0 * x, [[0.0, 1.0]])
    assert roots.shape == (1, 0)


def test_integrate_abs_splits_at_kinks_and_sign_changes():
    # |sin| integrates exactly to 4 over [0, 2 pi] once its root at pi is a
    # panel edge; kinks outside (lo, hi) and duplicates are ignored
    val = integrate_abs(
        lambda x, owner: np.sin(x), [0.0], [2.0 * math.pi], [[0.0, 7.0, -1.0, 7.0]],
        tol=1e-12,
    )[0]
    assert val == pytest.approx(4.0, abs=1e-11)
    tent = integrate_abs(
        lambda x, owner: 1.0 - np.abs(x), [-2.0], [2.0], [[0.0, 0.0, 5.0]], tol=1e-13
    )[0]
    assert tent == pytest.approx(2.0, abs=1e-12)


def test_no_integrals_give_empty_results_without_calls():
    def f(x, owner):
        raise AssertionError("integrand called")

    assert integrate(f, [], []).shape == (0,)
    assert integrate(f, [], [], np.empty((0, 3))).shape == (0,)
    assert integrate_abs(f, [], [], np.empty((0, 4)), tol=1e-10).shape == (0,)
    assert refine_sign_changes(f, np.empty((0, 2))).shape == (0, 0)


def test_integrate_abs_owners_match_one_owner_calls():
    # owners with different intervals, kinks (NaN-padded, some outside or
    # repeated) and root counts give the bits of one call per owner
    shift = np.array([0.3, -1.1, 2.0, 0.0])
    freq = np.array([1.0, 3.0, 0.5, 7.0])
    lo = np.array([-2.0, -3.0, 1.0, -1.0])
    hi = np.array([2.5, 1.0, 6.0, 1.0])
    kinks = np.array(
        [[0.3, np.nan, 9.0], [-1.1, -1.1, np.nan], [2.0, 0.0, 6.0], [0.0, -1.0, 0.5]]
    )

    def f(x, owner):
        return np.abs(x - shift[owner]) - 0.4 + 0.3 * np.sin(freq[owner] * x)

    inside = np.sort(np.clip(kinks, lo[:, None], hi[:, None]), axis=1)
    roots = refine_sign_changes(f, np.column_stack([lo, inside, hi]))
    got = integrate_abs(f, lo, hi, kinks, tol=1e-11)
    for p in range(4):
        def one(x, owner, p=p):
            return f(x, np.full(len(x), p))

        want = integrate_abs(one, lo[p:p + 1], hi[p:p + 1], kinks[p:p + 1], tol=1e-11)
        assert got[p:p + 1].view(np.int64) == want.view(np.int64)
        assert np.sum(~np.isnan(roots[p])) >= 1
    assert len({int(np.sum(~np.isnan(r))) for r in roots}) > 1
