"""Acceptance suite: the workbench's exit criteria.

Each test runs one criterion at its stated tolerance and prints a PASS/FAIL
line (visible with ``pytest -s`` or on failure).  Scenario data come from
the shipped presets so the acceptance run also exercises the catalog.
"""

import time

import numpy as np
import pytest

from helpers import (
    coupling_term,
    random_abi_states,
    random_bi_states,
    rk4_crossing_time,
    shape_derivative,
)
from richwave import (
    abi_middle_shape,
    augmented_born_infeld,
    bi_shape,
    born_infeld,
    build_shape,
    decay_curve,
    run_and_compare,
    solve,
    stability_sweep,
    triangle_perturbation,
    verify_pattern,
    wave_pattern,
)
from richwave.config import load_config

SOLUTION_PRESETS = ("constant", "bi-simple-wave", "bi-two-ramp", "abi-middle")


@pytest.fixture(scope="module")
def scenarios():
    out = {}
    for name in SOLUTION_PRESETS:
        cfg = load_config(name)
        out[name] = solve(cfg.system, cfg.profile)
    return out


def _report(num, title, passed, detail):
    line = "[criterion %d] %s - %s: %s" % (num, "PASS" if passed else "FAIL", title, detail)
    print(line, flush=True)
    assert passed, line


def test_criterion_1_structural_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for sysm, states in (
        (born_infeld(1.0), random_bi_states(rng, 10_000)),
        (augmented_born_infeld(1.3), random_abi_states(rng, 10_000)),
    ):
        dens = sysm.density(states)
        M = sysm.flux(states)
        for i in range(sysm.n):
            res = np.abs(
                dens * sysm.eigenvalue(i, states) - sysm.lagrangian_speeds[i] - M
            )
            rel = res / np.maximum(1.0, np.abs(M) + abs(sysm.lagrangian_speeds[i]))
            worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - start
    _report(
        1, "structural identity",
        worst <= 1e-13 and elapsed < 1.0,
        "max relative residual %.3e (tol 1e-13), %.2fs (budget 1s)" % (worst, elapsed),
    )


def test_criterion_2_coordinate_round_trips(scenarios):
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    for name, sol in scenarios.items():
        xs = rng.uniform(-3.0, 3.0, size=1000)
        worst = max(
            worst,
            float(np.max(np.abs(
                sol.initial_position(sol.initial_coordinate(xs)) - xs
            ))),
        )
        ts = rng.uniform(0.0, 5.0, size=1000)
        zs = rng.uniform(-5.0, 5.0, size=1000)
        back = sol.lagrangian_coordinate(ts, sol.position(ts, zs))
        worst = max(worst, float(np.max(np.abs(back - zs))))
    elapsed = time.perf_counter() - start
    _report(
        2, "coordinate round trips",
        worst <= 1e-9 and elapsed < 10.0,
        "worst error %.3e (tol 1e-9), %.2fs (budget 10s)" % (worst, elapsed),
    )


def test_criterion_3_closed_form_cross_check(scenarios):
    start = time.perf_counter()
    sol = scenarios["bi-two-ramp"]
    worst = 0.0
    for t in np.linspace(0.0, 3.0, 50):
        for z in np.linspace(-4.0, 4.0, 50):
            gap = abs(
                sol.position_quadrature(float(t), float(z))
                - float(sol.position_closed_form(t, z))
            )
            worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    _report(
        3, "generic vs closed-form position",
        worst <= 1e-9 and elapsed < 30.0,
        "max gap %.3e on 50x50 grid (tol 1e-9), %.2fs (budget 30s)" % (worst, elapsed),
    )


def test_criterion_4_fv_oracle_equivalence(scenarios):
    start = time.perf_counter()
    ok = True
    details = []
    for name, x_lim in (("bi-simple-wave", 5.0), ("bi-two-ramp", 4.5)):
        sol = scenarios[name]
        table = run_and_compare(
            sol.system, sol.initial, 2.0, [400, 800, 1600],
            x_min=-x_lim, x_max=x_lim, reference=sol,
        )
        monotone = all(b < a for a, b in zip(table.totals, table.totals[1:]))
        ratios_ok = all(1.4 <= r <= 2.6 for r in table.ratios)
        ok &= monotone and ratios_ok
        details.append("%s ratios %s" % (name, ["%.2f" % r for r in table.ratios]))
    elapsed = time.perf_counter() - start
    _report(
        4, "finite-volume oracle equivalence",
        ok and elapsed < 60.0,
        "%s, %.2fs (budget 60s)" % ("; ".join(details), elapsed),
    )


def test_criterion_5_plateau_decomposition(scenarios):
    sol = scenarios["bi-two-ramp"]
    pattern = wave_pattern(sol)
    closed = pattern.crossing_times[(0, 1)]
    oracle = rk4_crossing_time(sol, 0, 1, dt=0.005)
    rel = abs(closed - oracle) / closed
    ok = rel <= 1e-6
    worsts = []
    for factor in (1.1, 2.0):
        t = factor * pattern.settling_time
        report = verify_pattern(
            sol, pattern, t, t2=1.5 * t, plateau_tol=1e-9, shift_tol=1e-8
        )
        ok &= report.passed
        worsts.append(max(c.worst for c in report.checks))
    _report(
        5, "finite-time plateau decomposition",
        ok,
        "settling time rel gap %.3e (tol 1e-6); worst domain error %s"
        % (rel, ["%.2e" % w for w in worsts]),
    )


def test_criterion_6_traveling_wave_decay(scenarios):
    times = [5.0, 10.0, 20.0, 40.0, 80.0]
    sol = scenarios["bi-two-ramp"]
    ok = True
    details = []
    for side in ("slow", "fast"):
        rep = decay_curve(sol, [bi_shape(sol, side)], times)[0]
        ok &= rep.distances[-1] < 0.1 * rep.distances[0]
        details.append(
            "%s d(5)=%.3e d(80)=%.3e" % (side, rep.distances[0], rep.distances[-1])
        )
    simple = scenarios["bi-simple-wave"]
    for side in ("slow", "fast"):
        rep = decay_curve(simple, [bi_shape(simple, side)], times)[0]
        ok &= max(rep.distances) <= 1e-8
        details.append("simple-%s max %.2e" % (side, max(rep.distances)))
    _report(6, "L1 decay to the traveling wave", ok, "; ".join(details))


def test_criterion_7_shape_consistency(scenarios):
    sol = scenarios["bi-two-ramp"]
    abi_sol = scenarios["abi-middle"]
    xs = np.linspace(-2.0, 2.0, 200)
    worst_gap = 0.0
    for target, i, side in ((sol, 0, "slow"), (sol, 1, "fast")):
        gap = np.max(np.abs(build_shape(target, i)(xs) - bi_shape(target, side)(xs)))
        worst_gap = max(worst_gap, float(gap))
    gap = np.max(np.abs(build_shape(abi_sol, 1)(xs) - abi_middle_shape(abi_sol)(xs)))
    worst_gap = max(worst_gap, float(gap))

    spread = 0.0
    for i, refs in ((0, (1, 2)), (2, (0, 1))):
        for x in (-0.7, 0.0, 0.9):
            vals = [coupling_term(abi_sol, i, x, ref=r) for r in refs]
            spread = max(spread, abs(vals[0] - vals[1]))

    h = 1e-5
    grid = np.linspace(-0.9, 0.9, 37)
    worst_rel = 0.0
    for i in range(2):
        shape = build_shape(sol, i)
        closed = shape_derivative(sol, i, grid)
        fd = (shape(grid + h) - shape(grid - h)) / (2.0 * h)
        rel = np.abs(closed - fd) / np.abs(closed)
        worst_rel = max(worst_rel, float(rel.max()))

    ok = worst_gap <= 1e-8 and spread <= 1e-9 and worst_rel <= 1e-4
    _report(
        7, "generic/model shape consistency",
        ok,
        "route gap %.3e (tol 1e-8); reference spread %.3e (tol 1e-9); "
        "derivative rel err %.3e (tol 1e-4)" % (worst_gap, spread, worst_rel),
    )


def test_criterion_8_l1_stability(scenarios):
    cfg = load_config("stability-sweep")
    perturb = triangle_perturbation(
        cfg.perturbation["component"],
        cfg.perturbation["center"],
        cfg.perturbation["half_width"],
    )
    reports = stability_sweep(
        cfg.system, cfg.profile, perturb, cfg.amplitudes, cfg.times
    )
    ok = True
    worst_spread = 0.0
    for k, t in enumerate(cfg.times):
        vals = [rep.r_t[k] / rep.r0 for rep in reports]
        if min(vals) > 0:
            worst_spread = max(worst_spread, max(vals) / min(vals))
        elif max(vals) > 0:
            ok = False
    ok &= worst_spread < 2.0
    # R at t = 0 equals R0 exactly
    ok &= all(rep.r_t[0] == rep.r0 for rep in reports)
    # coordinate-map sup ratios finite and stable across amplitudes
    ratio_cols = list(zip(*(rep.map_bounds.ratios() for rep in reports)))
    for col in ratio_cols:
        ok &= all(np.isfinite(col))
        if min(col) > 0:
            ok &= max(col) / min(col) < 2.0
    _report(
        8, "L1 stability sweep",
        ok,
        "R_t/R0 spread %.3f (bound 2.0); map ratios %s"
        % (worst_spread, ["%.1f" % c[0] for c in ratio_cols]),
    )


def test_criterion_9_weak_form_residuals(scenarios):
    rng = np.random.default_rng(109)
    worst = 0.0
    for name, sol in scenarios.items():
        for _ in range(20):
            t1 = rng.uniform(0.0, 3.0)
            t2 = t1 + rng.uniform(0.3, 2.5)
            lo = rng.uniform(-6.0, 0.0)
            hi = lo + rng.uniform(1.0, 8.0)
            cons, entropies = sol.box_residuals((t1, t2, lo, hi))
            worst = max(worst, cons, max(entropies))
    _report(
        9, "weak-form residuals",
        worst <= 1e-8,
        "max residual %.3e over 20 random boxes per scenario (tol 1e-8)" % worst,
    )
