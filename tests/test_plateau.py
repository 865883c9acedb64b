import numpy as np
import pytest

from helpers import (
    abi_middle_profile,
    bi_mixing_ramps_profile,
    bi_passenger_profile,
    bi_simple_wave_profile,
    bi_tworamp_profile,
    bi_with_passenger,
    boundary_reference,
    rk4_crossing_time,
    three_speed_profile,
    three_speed_system,
    verify_pattern_reference,
)
from richwave import (
    NotDecomposedError,
    PiecewiseProfile,
    augmented_born_infeld,
    born_infeld,
    solve,
    verify_pattern,
    wave_pattern,
)
from richwave.config import load_config


@pytest.fixture(scope="module")
def bi():
    return born_infeld(1.0)


@pytest.fixture(scope="module")
def abi():
    return augmented_born_infeld(1.0)


def unit_density_profile(n=2):
    if n == 2:
        vals = [[1.0, -1.0], [1.0, -1.0]]
    else:
        vals = [[1.0, 0.0, -1.0], [1.0, 0.0, -1.0]]
    return PiecewiseProfile([-1.0, 1.0], np.array(vals))


def test_extreme_boundaries_are_straight_lines(bi):
    sol = solve(bi, bi_tworamp_profile())
    pattern = wave_pattern(sol)
    L = pattern.half_width
    lam_minus = bi.eigenvalue(0, sol.initial.left_tail)
    mu_plus = bi.eigenvalue(1, sol.initial.right_tail)
    for t in (0.5, 3.0, 10.0):
        minus, plus = pattern.boundaries(t)
        assert minus[0] == pytest.approx(lam_minus * t - L, abs=1e-10)
        assert plus[1] == pytest.approx(mu_plus * t + L, abs=1e-10)


def test_symmetric_constant_slow_boundary(bi):
    sol = solve(bi, unit_density_profile())
    pattern = wave_pattern(sol)
    for t in (0.0, 1.0, 4.0):
        assert pattern.boundaries(t)[0][0] == pytest.approx(-t - 1.0, abs=1e-12)


def test_crossing_times_unit_density(bi, abi):
    sol = solve(bi, unit_density_profile())
    pattern = wave_pattern(sol)
    assert pattern.crossing_times[(0, 1)] == pytest.approx(1.0, abs=1e-12)
    assert pattern.settling_time == pytest.approx(1.0, abs=1e-12)

    sol3 = solve(abi, unit_density_profile(3))
    pattern3 = wave_pattern(sol3)
    assert pattern3.crossing_times[(0, 1)] == pytest.approx(2.0, abs=1e-12)
    assert pattern3.crossing_times[(0, 2)] == pytest.approx(1.0, abs=1e-12)
    assert pattern3.crossing_times[(1, 2)] == pytest.approx(2.0, abs=1e-12)
    assert pattern3.settling_time == pytest.approx(2.0, abs=1e-12)


def test_crossing_times_scale_with_half_width(bi):
    base = wave_pattern(solve(bi, unit_density_profile()))
    doubled_prof = PiecewiseProfile(
        [-2.0, 2.0], np.array([[1.0, -1.0], [1.0, -1.0]])
    )
    doubled = wave_pattern(solve(bi, doubled_prof))
    assert doubled.crossing_times[(0, 1)] == pytest.approx(
        2.0 * base.crossing_times[(0, 1)], rel=1e-12
    )


def test_crossing_time_matches_rk4_oracle(bi, abi):
    sol = solve(bi, unit_density_profile())
    want = wave_pattern(sol).crossing_times[(0, 1)]
    got = rk4_crossing_time(sol, 0, 1, dt=0.01)
    assert got == pytest.approx(want, rel=1e-6)

    sol3 = solve(abi, abi_middle_profile())
    pattern3 = wave_pattern(sol3)
    for (p, q), want in pattern3.crossing_times.items():
        got = rk4_crossing_time(sol3, p, q, dt=0.01)
        assert got == pytest.approx(want, rel=1e-6)


def test_classification_labels(bi):
    sol = solve(bi, bi_tworamp_profile())
    pattern = wave_pattern(sol)
    t = 1.3 * pattern.settling_time
    minus, plus = pattern.boundaries(t)
    assert pattern.classify(t, minus[0] - 5.0) == "D0"
    assert pattern.classify(t, 0.5 * (plus[0] + minus[1])) == "D3"
    assert pattern.classify(t, plus[1] + 5.0) == "D4"
    # boundary points belong to the wave domain on their left
    assert pattern.classify(t, float(plus[0])) == "D1"
    assert pattern.classify(t, float(minus[0])) == "D0"
    with pytest.raises(NotDecomposedError):
        pattern.classify(0.5 * pattern.settling_time, 0.0)


def test_boundary_ordering_chain(bi, abi):
    for sysm, prof in (
        (bi, bi_tworamp_profile()),
        (bi, bi_mixing_ramps_profile()),
        (abi, abi_middle_profile()),
    ):
        pattern = wave_pattern(solve(sysm, prof))
        for factor in (1.01, 2.0):
            t = factor * pattern.settling_time
            minus, plus = pattern.boundaries(t)
            chain = np.ravel(np.column_stack([minus, plus]))
            assert np.all(np.diff(chain) > 0)


def abi_mixing_profile():
    x = [-1.0, -0.4, 0.2, 1.0]
    vals = np.array(
        [
            [1.2, 0.0, -1.2],
            [1.2, 0.3, -0.8],
            [1.0, 0.3, -0.8],
            [1.0, 0.0, -0.8],
        ]
    )
    return PiecewiseProfile(x, vals)


def test_plateau_states_componentwise(abi):
    sol = solve(abi, abi_mixing_profile())
    pattern = wave_pattern(sol)
    left = sol.initial.left_tail
    right = sol.initial.right_tail
    assert np.array_equal(pattern.plateau_states[0], left)
    assert np.array_equal(pattern.plateau_states[3], right)
    assert np.array_equal(
        pattern.plateau_states[1], [right[0], left[1], left[2]]
    )
    assert np.array_equal(
        pattern.plateau_states[2], [right[0], right[1], left[2]]
    )


def test_verify_constant_data(bi):
    sol = solve(bi, unit_density_profile())
    pattern = wave_pattern(sol)
    report = verify_pattern(sol, pattern, 1.5 * pattern.settling_time)
    assert report.passed


def test_verify_simple_wave(bi):
    sol = solve(bi, bi_simple_wave_profile())
    pattern = wave_pattern(sol)
    report = verify_pattern(sol, pattern, 1.2 * pattern.settling_time)
    assert report.passed, [(c.domain, c.kind, c.worst) for c in report.checks]


def test_verify_mixing_ramps_middle_plateau(bi):
    # unequal tails: the middle plateau is the genuinely mixed state
    prof = bi_mixing_ramps_profile()
    sol = solve(bi, prof)
    pattern = wave_pattern(sol)
    assert np.array_equal(pattern.plateau_states[1], [1.0, -1.2])
    t = 1.4 * pattern.settling_time
    minus, plus = pattern.boundaries(t)
    mid = 0.5 * (plus[0] + minus[1])
    w = sol.evaluate(t, mid)
    assert np.max(np.abs(w - np.array([1.0, -1.2]))) < 1e-9
    report = verify_pattern(sol, pattern, t)
    assert report.passed, [(c.domain, c.kind, c.worst) for c in report.checks]


def test_verify_requires_late_time(bi):
    sol = solve(bi, unit_density_profile())
    pattern = wave_pattern(sol)
    with pytest.raises(NotDecomposedError):
        verify_pattern(sol, pattern, 0.5 * pattern.settling_time)


def test_single_family_has_no_decomposition():
    from richwave import Family, RichSystem

    sysm = RichSystem(
        "pure-advection",
        (Family(0.0, (0,)),),
        lambda w: np.ones(np.asarray(w).shape[:-1]),
        lambda w: np.full(np.asarray(w).shape[:-1], 0.5),
        lambda w: np.full(np.asarray(w).shape[:-1], True),
    )
    prof = PiecewiseProfile([-1.0, 0.0, 1.0], np.array([[0.0], [1.0], [0.0]]))
    pattern = wave_pattern(solve(sysm, prof))
    assert pattern.crossing_times == {}
    assert pattern.settling_time is None
    with pytest.raises(NotDecomposedError):
        pattern.classify(10.0, 0.0)


def test_constant_multiplicity_family():
    # two families, the slow one carrying two components: the domain count
    # stays 2s + 1 = 5 and both carried components ride the same wave
    sol = solve(bi_with_passenger(), bi_passenger_profile())
    pattern = wave_pattern(sol)
    assert pattern.family_count == 2
    assert len(pattern.crossing_times) == 1
    t = 1.3 * pattern.settling_time
    minus, plus = pattern.boundaries(t)
    labels = {
        pattern.classify(t, float(v))
        for v in [minus[0] - 1.0, 0.5 * (minus[0] + plus[0]),
                  0.5 * (plus[0] + minus[1]), 0.5 * (minus[1] + plus[1]),
                  plus[1] + 1.0]
    }
    assert labels == {"D0", "D1", "D2", "D3", "D4"}
    # middle plateau mixes the right tail of both slow components with the
    # left tail of the fast one
    left, right = sol.initial.left_tail, sol.initial.right_tail
    assert np.array_equal(
        pattern.plateau_states[1], [right[0], right[1], left[2]]
    )
    report = verify_pattern(sol, pattern, t)
    assert report.passed, [(c.domain, c.kind, c.worst) for c in report.checks]


def _preset_solution(name):
    cfg = load_config(name)
    return solve(cfg.system, cfg.profile)


_PATTERN_CASES = {
    "three-speed": lambda: solve(three_speed_system(), three_speed_profile()),
    "bi-two-ramp": lambda: _preset_solution("bi-two-ramp"),
    "abi-middle": lambda: _preset_solution("abi-middle"),
    "stability-sweep": lambda: _preset_solution("stability-sweep"),
}


@pytest.mark.parametrize("factor", [1.1, 2.0])
@pytest.mark.parametrize("case", sorted(_PATTERN_CASES))
def test_batched_verify_matches_per_domain_reference(case, factor):
    sol = _PATTERN_CASES[case]()
    pattern = wave_pattern(sol)
    t = factor * pattern.settling_time
    s = pattern.family_count
    per_family = [[boundary_reference(pattern, p, side, t) for p in range(s)]
                  for side in "-+"]
    assert np.array_equal(np.array(pattern.boundaries(t)).view(np.int64),
                          np.array(per_family).view(np.int64))
    got = verify_pattern(sol, pattern, t).checks
    want = verify_pattern_reference(sol, pattern, t)
    assert [(c.domain, c.kind, c.tol) for c in got] == [
        (c.domain, c.kind, c.tol) for c in want]
    assert [c.worst.hex() for c in got] == [c.worst.hex() for c in want]
