import math

import numpy as np
import pytest

from richwave import QuadratureError, integrate, quadrature
from richwave.quadrature import integrate_many, refine_sign_changes


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
        integrate_many(
            lambda x, owner: np.sign(x - 1.0 / 3.0) * owner, [0.0, 0.0], [1.0, 1.0],
            tol=1e-6,
        )
    assert info.value.owner == 1
    lo, hi = info.value.interval
    assert lo < 1.0 / 3.0 < hi


def test_scalar_returning_integrand_broadcasts():
    assert integrate(lambda x: 2.0, -1.0, 0.5) == pytest.approx(3.0, abs=1e-14)
    got = integrate_many(lambda x, owner: 2.0, [0.0, 1.0], [1.0, -1.0])
    assert np.allclose(got, [2.0, -4.0], atol=1e-14)


def test_many_integrals_in_one_pass_match_separate_calls():
    # per-owner integrands, kinks and reversed / empty intervals in one pass
    rng = np.random.default_rng(3)
    a = rng.uniform(-2.0, 0.0, size=12)
    b = rng.uniform(0.0, 3.0, size=12)
    a[3], b[3] = b[3], a[3]
    b[7] = a[7]
    shift = rng.uniform(-1.0, 1.0, size=12)
    kinks = np.column_stack([shift, np.full(12, np.nan), shift + 0.5])
    calls = []

    def f(x, owner):
        calls.append(len(x))
        return np.abs(x - shift[owner]) * np.cos(x + owner)

    got = integrate_many(f, a, b, kinks, tol=1e-11)
    for p in range(12):
        want = integrate(
            lambda x, p=p: np.abs(x - shift[p]) * np.cos(x + p),
            a[p], b[p], kinks=[shift[p], shift[p] + 0.5], tol=1e-11,
        )
        assert got[p] == want
    assert got[7] == 0.0
    # one call for the start and one per refinement level
    assert len(calls) <= quadrature.MAX_DEPTH + 2


def test_refine_sign_changes_locates_roots():
    roots = refine_sign_changes(lambda x: np.sin(x), [-4.0, 0.5, 4.0])
    roots = sorted(roots)
    assert len(roots) == 3
    assert roots[0] == pytest.approx(-math.pi, abs=1e-10)
    assert roots[1] == pytest.approx(0.0, abs=1e-10)
    assert roots[2] == pytest.approx(math.pi, abs=1e-10)


def test_refine_sign_changes_none():
    assert refine_sign_changes(lambda x: 1.0 + 0.0 * x, [0.0, 1.0]) == []
