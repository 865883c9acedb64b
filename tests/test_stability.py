import math

import numpy as np
import pytest

from helpers import bi_tworamp_profile
from richwave import (
    PiecewiseProfile,
    ScenarioError,
    add_bump,
    born_infeld,
    coordinate_map_bounds,
    l1_distance,
    pair_distance,
    solve,
    stability_sweep,
    triangle_perturbation,
)
from richwave import fv


@pytest.fixture(scope="module")
def bi():
    return born_infeld(1.0)


@pytest.fixture(scope="module")
def base_sol(bi):
    return solve(bi, bi_tworamp_profile())


@pytest.fixture(scope="module")
def bumped_sol(bi):
    return solve(bi, add_bump(bi_tworamp_profile(), 0, 0.05, 0.3, 0.1))


def test_identical_solutions_distance_zero(base_sol):
    for t in (0.0, 1.0, 4.0):
        total, per = pair_distance(base_sol, base_sol, [t])[0]
        assert total == 0.0
        assert per == (0.0, 0.0)


def test_distance_at_zero_time_is_profile_distance(base_sol, bumped_sol):
    total, per = pair_distance(base_sol, bumped_sol, [0.0])[0]
    want = [
        l1_distance(base_sol.initial, bumped_sol.initial, i) for i in range(2)
    ]
    assert per == tuple(want)
    assert total == sum(want)
    # exact triangle area of the perturbation bump
    assert total == pytest.approx(0.1 * 0.3, abs=1e-15)


def test_differing_tails_give_infinite_sentinel(bi, base_sol):
    other = solve(
        bi,
        PiecewiseProfile([-1.0, 1.0], np.array([[1.5, -1.0], [1.5, -1.0]])),
    )
    total, per = pair_distance(base_sol, other, [1.0])[0]
    assert math.isinf(total)
    assert math.isinf(per[0])
    assert per[1] < math.inf


def test_distance_symmetry_and_triangle(bi, base_sol, bumped_sol):
    third = solve(bi, add_bump(bi_tworamp_profile(), 1, -0.5, 0.2, 0.05))
    t = 2.0
    dab = pair_distance(base_sol, bumped_sol, [t])[0][0]
    dba = pair_distance(bumped_sol, base_sol, [t])[0][0]
    assert dab == pytest.approx(dba, rel=1e-10)
    dac = pair_distance(base_sol, third, [t])[0][0]
    dcb = pair_distance(third, bumped_sol, [t])[0][0]
    assert dab <= dac + dcb + 1e-9


def test_pair_distance_against_fv_oracle(bi, base_sol, bumped_sol):
    # the upwind scheme measures the same separation up to its own
    # discretization error, estimated from one refinement
    t = 5.0
    exact = pair_distance(base_sol, bumped_sol, [t])[0][0]
    lo, hi = base_sol.support_interval(t, margin=1.0)
    vals = []
    for cells in (1600, 3200):
        g1 = fv.run(bi, base_sol.initial, t, lo, hi, cells)
        g2 = fv.run(bi, bumped_sol.initial, t, lo, hi, cells)
        vals.append(float(np.sum(np.abs(g1.states - g2.states)) * g1.dx))
    fv_err = 2.0 * abs(vals[1] - vals[0]) + 1e-3
    assert abs(exact - vals[1]) <= fv_err


def test_sweep_scaling_and_reports(bi):
    profile = bi_tworamp_profile()
    perturb = triangle_perturbation(0, 0.05, 0.3)
    reports = stability_sweep(
        bi, profile, perturb, [0.1, 0.05], times=[0.0, 1.0, 10.0]
    )
    r_a, r_b = reports
    # perturbation is linear in amplitude, so R0 halves exactly
    assert r_b.r0 == pytest.approx(0.5 * r_a.r0, rel=1e-12)
    # R at t=0 equals R0 exactly
    assert r_a.r_t[0] == r_a.r0
    assert r_b.r_t[0] == r_b.r0
    # distances shrink with amplitude at every sampled time
    assert all(b < a for a, b in zip(r_a.r_t, r_b.r_t))
    # measured stability constant is stable across amplitudes
    assert max(r_a.c_hat, r_b.c_hat) / min(r_a.c_hat, r_b.c_hat) < 2.0


def test_zero_amplitude_is_exactly_zero(bi):
    profile = bi_tworamp_profile()
    perturb = triangle_perturbation(0, 0.05, 0.3)
    rep = stability_sweep(bi, profile, perturb, [0.0], times=[0.0, 2.0])[0]
    assert rep.r0 == 0.0
    assert rep.r_t == (0.0, 0.0)
    assert rep.c_hat == 0.0
    assert rep.map_bounds.ratios() == (0.0, 0.0, 0.0)


def test_sweep_rejects_tail_changing_perturbation(bi):
    profile = bi_tworamp_profile()

    def shift_everything(prof, amp):
        vals = prof.values.copy()
        vals[:, 0] += amp
        return prof.with_values(vals)

    with pytest.raises(ScenarioError):
        stability_sweep(bi, profile, shift_everything, [0.1], times=[0.0])


def test_sweep_rejects_inadmissible_perturbation(bi):
    profile = bi_tworamp_profile()
    perturb = triangle_perturbation(0, 0.05, 0.3)
    # large negative amplitude drives mu below lam near the small gap
    with pytest.raises(ScenarioError):
        stability_sweep(bi, profile, perturb, [-0.5], times=[0.0])


def test_map_bounds_identical_data(base_sol):
    mb = coordinate_map_bounds(base_sol, base_sol)
    assert mb.r0 == 0.0
    assert mb.ratios() == (0.0, 0.0, 0.0)
    assert mb.sup_z < 1e-12


def test_map_bounds_stable_across_amplitudes(bi, base_sol):
    ratios = []
    for amp in (0.1, 0.05):
        sol2 = solve(bi, add_bump(bi_tworamp_profile(), 0, 0.05, 0.3, amp))
        mb = coordinate_map_bounds(base_sol, sol2)
        assert all(math.isfinite(r) for r in mb.ratios())
        ratios.append(mb.ratios()[0])
    assert max(ratios) / min(ratios) < 1.5


def test_map_bound_pointwise_lipschitz_case(bi):
    # single-segment bump: |Z2 - Z1|(x) = |int (N2 - N1)| <= Lip(N) * R0
    # with Lip(N) = max |dN/dmu| over the traversed states
    flat = PiecewiseProfile([-1.0, 1.0], np.array([[1.0, -1.0], [1.0, -1.0]]))
    bumped = add_bump(flat, 0, 0.0, 0.5, 0.2)
    s1 = solve(bi, flat)
    s2 = solve(bi, bumped)
    r0 = l1_distance(flat, bumped, 0)
    # dN/dmu = -2a/(mu - lam)^2; gap ranges over [2.0, 2.2]
    lip = 2.0 / 2.0**2
    mb = coordinate_map_bounds(s1, s2)
    assert mb.sup_z <= lip * r0 * (1.0 + 1e-9)
