import json
import math
import re

import numpy as np
import pytest

from helpers import (
    bi_simple_wave_profile,
    bi_tworamp_profile,
    bisect_full_cap,
    box_residuals_reference,
    bump_profile_2,
    check_merged_knots,
    coincidence_times,
    count_position_points,
    position_quadrature_reference,
    separable_two_speed_system,
    three_speed_profile,
    three_speed_system,
    time_kinks_reference,
)
from richwave import (
    AdmissibilityError,
    InversionError,
    PiecewiseProfile,
    QuadratureError,
    TabulationError,
    UnsupportedModelError,
    born_infeld,
    solve,
)
from richwave import cheb, cli, maps, quadrature, solver, systems
from richwave.config import load_config, preset_names


@pytest.fixture(scope="module")
def bi():
    return born_infeld(1.0)


@pytest.fixture(scope="module")
def ramp_sol(bi):
    # mu ramps -1 -> 2 -> 1 over [-1, 1], lam constant -1
    prof = PiecewiseProfile(
        [-1.0, 0.0, 1.0], np.array([[1.0, -1.0], [2.0, -1.0], [1.0, -1.0]])
    )
    return solve(bi, prof)


@pytest.fixture(scope="module")
def tworamp_sol(bi):
    return solve(bi, bi_tworamp_profile())


@pytest.fixture(scope="module")
def three_sol():
    return solve(three_speed_system(), three_speed_profile())


def test_constant_symmetric_coordinates(bi):
    prof = PiecewiseProfile([-1.0, 1.0], np.array([[1.0, -1.0], [1.0, -1.0]]))
    sol = solve(bi, prof)
    xs = np.linspace(-4.0, 4.0, 17)
    assert np.max(np.abs(sol.initial_coordinate(xs) - xs)) < 1e-13
    # M = 0, so X(t, z) = z for all t
    for t in (0.0, 0.7, 3.0):
        assert np.max(np.abs(sol.position(t, xs) - xs)) < 1e-12
        w = sol.evaluate(t, xs)
        assert np.max(np.abs(w - [1.0, -1.0])) < 1e-12


def test_constant_density_two(bi):
    prof = PiecewiseProfile([-1.0, 1.0], np.array([[1.0, 0.0], [1.0, 0.0]]))
    sol = solve(bi, prof)
    assert sol.initial_coordinate(2.5) == pytest.approx(5.0, abs=1e-12)


def test_ramp_initial_coordinate_closed_form(ramp_sol):
    # N = 2/(3 + x) on [-1, 0]: the segment integral is 2 ln(3/2), and the
    # map is anchored at Z0(0) = 0 to rounding (the bound of
    # test_properties.py::test_initial_coordinate_anchored_at_zero)
    eps = np.finfo(float).eps
    scale = 1.0 + np.max(np.abs(ramp_sol.zeta))
    assert abs(ramp_sol.initial_coordinate(0.0)) <= 4.0 * eps * scale
    z_m1 = ramp_sol.initial_coordinate(-1.0)
    assert z_m1 == pytest.approx(-2.0 * math.log(1.5), abs=1e-12)
    # affine left tail with slope N = 1
    assert ramp_sol.initial_coordinate(-3.0) == pytest.approx(z_m1 - 2.0, abs=1e-12)


def test_x0_table_inverts_z0(ramp_sol):
    # the core and both affine tails
    ys = np.linspace(-4.0, 4.0, 81)
    back = ramp_sol.initial_coordinate(ramp_sol.initial_position(ys))
    assert np.max(np.abs(back - ys)) <= 1e-13
    y = float(ramp_sol.initial_coordinate(0.3))
    assert ramp_sol.initial_position(y) == pytest.approx(0.3, abs=1e-13)


def _preset_sol(name):
    if name == "three-speed":
        return solve(three_speed_system(), three_speed_profile())
    cfg = load_config(name)
    return solve(cfg.system, cfg.profile, quad_tol=cfg.quad_tol, inv_tol=cfg.inv_tol)


@pytest.mark.parametrize("name", preset_names() + ["three-speed"])
def test_x0_is_certified_against_z0(name, monkeypatch):
    tables = []
    real = solver._inverse_table

    def recording(*args):
        tables.append(real(*args))
        return tables[-1]

    monkeypatch.setattr(solver, "_inverse_table", recording)
    sol = _preset_sol(name)
    (x0,) = tables
    assert x0.certificate.splits == 0
    assert x0.certificate.residual <= min(sol.inv_tol, 1e-13)
    assert x0.certificate.segments == sol.zeta.size - 1
    assert sol._x0 is x0.table
    assert _same_bits(x0.table.breaks, sol.zeta)
    assert (x0.table.left_tail[1], x0.table.right_tail[1]) == sol._tail_slopes


def test_uncertified_x0_raises_and_the_cli_reports_it(tmp_path, capsys, monkeypatch):
    real = maps.fit_piecewise
    monkeypatch.setattr(maps, "fit_piecewise", lambda *args: real(*args).shifted(1e-9))
    with pytest.raises(TabulationError, match=r"X0 = Z0\^-1 is not certified"):
        solve(born_infeld(1.0), bi_tworamp_profile())
    out = tmp_path / "o"
    assert cli.main(["solve", "--config", "bi-two-ramp", "--out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    (failure,) = json.loads((out / "failures.json").read_text())["failures"]
    assert failure.startswith("solve: TabulationError: X0 = Z0^-1 is not certified")


@pytest.mark.parametrize("amps", [(12.0, 12.0), (-12.0, 12.0)])
def test_large_bumps_of_the_separable_system_solve(amps):
    # the X0 fit of these profiles failed its tail test on the noise of a
    # Newton X0 stopped at 1e-13
    sol = solve(separable_two_speed_system(), bump_profile_2(*amps))
    zs = np.linspace(sol.zeta[0] - 1.0, sol.zeta[-1] + 1.0, 101)
    assert np.max(np.abs(sol.initial_coordinate(sol.initial_position(zs)) - zs)) <= 1e-12
    for t in (0.5, 2.0):
        x = sol.position(t, zs)
        assert np.all(np.diff(x) > 0.0)
        assert np.max(np.abs(sol.lagrangian_coordinate(t, x) - zs)) <= 1e-9
    # Z(1, .) is too steep between its kink images for one table per
    # segment: it certifies on bisected segments, and the box residuals
    # integrate that table
    assert sol.snapshot(1.0).certificate.splits >= 1
    cons, entropies = sol.box_residuals((0.0, 1.0, -2.0, 2.0))
    assert max(cons, *entropies) <= 1e-8


@pytest.mark.parametrize("name,shift,stretch", [
    (name, shift, 1.0) for name in preset_names() for shift in (3.0, 30.0, 300.0)
] + [(name, 0.0, 100.0) for name in preset_names()] + [
    (name, shift, 1.0) for name in ("abi-middle", "bi-simple-wave") for shift in (1e3, -1e3)
])
def test_profiles_away_from_the_origin_solve(name, shift, stretch):
    # Z0 reaches |shift| or the hundreds, where rounding and the fit's rtol
    # of |x| exceed the fixed X0 tolerance 1e-13
    cfg = load_config(name)
    near = solve(cfg.system, cfg.profile, quad_tol=cfg.quad_tol, inv_tol=cfg.inv_tol)
    moved = PiecewiseProfile(cfg.profile.breakpoints * stretch + shift, cfg.profile.values)
    sol = solve(cfg.system, moved, quad_tol=cfg.quad_tol, inv_tol=cfg.inv_tol)
    size = np.max(np.abs(sol.zeta)) + 1.0
    zs = np.linspace(sol.zeta[0] - 1.0, sol.zeta[-1] + 1.0, 201)
    assert np.max(np.abs(sol.initial_coordinate(sol.initial_position(zs)) - zs)) <= 1e-13 * size
    # translated and stretched data evolve as the data near the origin
    x = np.linspace(cfg.profile.breakpoints[0] - 1.0, cfg.profile.breakpoints[-1] + 1.0, 41)
    for t in (0.5, 2.0):
        want = near.evaluate(t, x)
        assert np.max(np.abs(sol.evaluate(t * stretch, x * stretch + shift) - want)) <= 1e-8
        snap = sol.snapshot(t * stretch)
        assert snap.certificate.splits == 0
        assert np.max(np.abs(snap.evaluate(x * stretch + shift) - want)) <= 1e-8


def test_position_at_zero_time_is_initial_position(tworamp_sol):
    zs = np.linspace(-5.0, 5.0, 31)
    assert np.max(np.abs(
        tworamp_sol.position(0.0, zs) - tworamp_sol.initial_position(zs)
    )) < 1e-11
    for z in (-2.0, 0.4):
        assert tworamp_sol.position_quadrature(0.0, z) == pytest.approx(
            float(tworamp_sol.initial_position(z)), abs=1e-12
        )


def test_state_lagrangian_translation(ramp_sol):
    # at t = 0 the state is w0(X0(z)); at (t, z) = (1, 0) the slow component
    # reads X0(+1) and the fast one X0(-1)
    z = 0.0
    w = ramp_sol.state_lagrangian(1.0, z)
    prof = ramp_sol.initial
    x_slow = ramp_sol.initial_position(1.0)
    x_fast = ramp_sol.initial_position(-1.0)
    assert w[0] == pytest.approx(prof.component(0, x_slow), abs=1e-12)
    assert w[1] == pytest.approx(prof.component(1, x_fast), abs=1e-12)
    # exact translation invariant, componentwise
    for t, zz in ((0.5, 0.3), (2.0, -0.7)):
        for i, s in enumerate(ramp_sol.system.lagrangian_speeds):
            a = ramp_sol.state_lagrangian(t, zz)[i]
            b = ramp_sol.state_lagrangian(0.0, zz - s * t)[i]
            assert a == pytest.approx(b, abs=1e-13)


def test_position_quadrature_matches_closed_form(ramp_sol):
    got = ramp_sol.position_quadrature(0.5, 0.0)
    want = ramp_sol.position_closed_form(0.5, 0.0)
    assert got == pytest.approx(want, abs=1e-9)


def _midpoint(f, lo, hi, n=2_000_000):
    xs = lo + (np.arange(n) + 0.5) * (hi - lo) / n
    return float(np.sum(f(xs)) * (hi - lo) / n)


def test_position_closed_form_against_riemann_sum(ramp_sol):
    # X(t,z) = (1/2a) [ int_0^{z+at} mu0(X0) - int_0^{z-at} lam0(X0) ]
    t, z = 0.5, 0.0
    mu_part = _midpoint(
        lambda s: ramp_sol.initial.component(0, ramp_sol.initial_position(s)),
        0.0, z + t,
    )
    lam_part = _midpoint(
        lambda s: ramp_sol.initial.component(1, ramp_sol.initial_position(s)),
        0.0, z - t,
    )
    want = 0.5 * (mu_part - lam_part)
    got = ramp_sol.position_closed_form(t, z)
    assert got == pytest.approx(want, abs=1e-8)


def test_constant_state_closed_form_is_affine(bi):
    prof = PiecewiseProfile([-1.0, 1.0], np.array([[1.5, -0.5], [1.5, -0.5]]))
    sol = solve(bi, prof)
    n_bar = 2.0 / 2.0
    ratio = (1.5 + (-0.5)) / 2.0
    for t, z in ((0.0, 0.4), (1.2, -2.0), (3.0, 5.0)):
        want = z / n_bar + t * ratio
        assert sol.position(t, z) == pytest.approx(want, abs=1e-11)


def test_closed_form_needs_model_structure():
    sol = solve(three_speed_system(), three_speed_profile())
    with pytest.raises(UnsupportedModelError):
        sol.position_closed_form(1.0, 0.0)


def test_coordinate_round_trips(tworamp_sol):
    rng = np.random.default_rng(8)
    xs = rng.uniform(-3.0, 3.0, size=300)
    assert np.max(np.abs(
        tworamp_sol.initial_position(tworamp_sol.initial_coordinate(xs)) - xs
    )) < 1e-9
    for t in (0.0, 0.8, 2.5, 7.0):
        zs = rng.uniform(-6.0, 6.0, size=300)
        x = tworamp_sol.position(t, zs)
        back = tworamp_sol.lagrangian_coordinate(t, x)
        assert np.max(np.abs(back - zs)) < 1e-9
        fwd = tworamp_sol.position(t, tworamp_sol.lagrangian_coordinate(t, x))
        assert np.max(np.abs(fwd - x)) < 1e-9


def test_lagrangian_coordinate_at_zero_time_is_z0(tworamp_sol):
    xs = np.linspace(-2.0, 2.0, 21)
    got = tworamp_sol.lagrangian_coordinate(0.0, xs)
    assert np.max(np.abs(got - tworamp_sol.initial_coordinate(xs))) < 1e-10


def test_position_derivative_is_reciprocal_density(tworamp_sol):
    h = 1e-5
    rng = np.random.default_rng(9)
    for t in (0.5, 2.0):
        zs = rng.uniform(-3.0, 3.0, size=50)
        fd = (tworamp_sol.position(t, zs + h) - tworamp_sol.position(t, zs - h)) / (2 * h)
        want = 1.0 / tworamp_sol.system.density(tworamp_sol.state_lagrangian(t, zs))
        assert np.max(np.abs(fd - want)) < 1e-6


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("which", ["bi-two-ramp", "abi-middle", "three-speed"])
def test_stacked_pass_is_closed_form_with_density_slope(which, knot_sols):
    sol = knot_sols[which]
    rng = np.random.default_rng(21)
    t = np.repeat([0.0, 0.4, 3.0, 25.0], 60)
    # core points and points past both core edges, where some or all
    # family tables run on their affine tails
    z_lo, z_hi = sol._core(t)
    z = rng.uniform(z_lo - 30.0, z_hi + 30.0)
    z[::7] = z_lo[::7]
    z[3::7] = z_hi[3::7]
    assert (z < z_lo).any() and (z > z_hi).any() and ((z > z_lo) & (z < z_hi)).any()
    x = sol.position(t, z)
    if sol.system.bi_structure is not None:
        assert np.max(np.abs(x - sol.position_closed_form(t, z))) <= 1e-13
    else:
        assert np.max(np.abs(x - sol.position_quadrature(t, z))) <= 1e-9
    assert _same_bits(sol.position(t.reshape(12, 20), z.reshape(12, 20)), x.reshape(12, 20))
    got = sol.position(float(t[5]), float(z[5]))
    assert type(got) is float and _same_bits(got, x[5])
    assert sol.position(np.zeros((3, 0)), np.zeros((3, 0))).shape == (3, 0)
    x_step, slope = sol._position_and_slope(t, z)
    assert _same_bits(x_step, x)
    density = 1.0 / sol.system.density(sol.state_lagrangian(t, z))
    assert np.max(np.abs(slope / density - 1.0)) <= 1e-13


@pytest.mark.parametrize("which", ["bi-two-ramp", "abi-middle", "three-speed"])
def test_newton_step_is_one_table_pass(which, knot_sols, monkeypatch):
    sol = knot_sols[which]
    passes, tables, densities, states, steps = [], [], [], [], []
    for owner, name, log in ((cheb.StackedCheb, "__call__", passes),
                             (cheb.PiecewiseCheb, "__call__", tables),
                             (systems.RichSystem, "density", densities),
                             (solver.LagrangianSolution, "state_lagrangian", states)):
        real = getattr(owner, name)

        def counting(self, *args, real=real, log=log):
            log.append(1)
            return real(self, *args)

        monkeypatch.setattr(owner, name, counting)
    # a scalar t reaches invert_increasing through maps._invert_between_knots
    real_invert = maps.invert_increasing

    def spying(f, *args):
        def step(zs, owner):
            before = len(passes), len(tables), len(densities), len(states)
            out = f(zs, owner)
            steps.append((len(passes) - before[0], len(tables) - before[1],
                          len(densities) - before[2], len(states) - before[3]))
            return out

        return real_invert(step, *args)

    monkeypatch.setattr(maps, "invert_increasing", spying)
    x = np.linspace(-4.0, 4.0, 33)
    assert x.size * len(sol._table_speeds) > solver._SCALAR_POINT_ROWS  # the numpy path
    z = sol.lagrangian_coordinate(2.5, x)
    monkeypatch.undo()
    assert len(steps) >= 3
    assert set(steps) == {(1, 0, 0, 0)}
    assert np.max(np.abs(sol.position(2.5, z) - x)) <= 1e-11


@pytest.mark.parametrize("which", ["bi-two-ramp", "abi-middle", "three-speed"])
def test_evaluate_is_batch_independent(which, knot_sols):
    # a point gets the same bits alone or in any batch: small table passes
    # run on Python floats, large ones on numpy, and the eval-batch
    # benchmark gate compares evaluate across batch sizes
    sol = knot_sols[which]
    times = (0.0, 1.3, 7.0)
    xk = np.concatenate([sol.solution_kinks(t)[1] for t in times])
    x = np.random.default_rng(64).uniform(xk.min() - 2.0, xk.max() + 2.0, 64)
    assert x.size * len(sol._table_speeds) > solver._SCALAR_POINT_ROWS
    for t in times:
        whole = sol.evaluate(t, x)
        for size in (1, 4, 12, 16):
            parts = [sol.evaluate(t, x[k:k + size]) for k in range(0, x.size, size)]
            assert _same_bits(np.concatenate(parts), whole)
    # every time two families' kink images meet, and the floats either side,
    # where knots merge: targets on the merged kink images, in both tails and
    # at the infinities, filled up to one batch above the small-call size
    rng = np.random.default_rng(65)
    for t in coincidence_times(sol).ravel():
        xk = maps._sorted_knots(*sol.solution_kinks(t))[1]
        x = np.concatenate([xk, [xk[0] - 2.0, xk[-1] + 2.0, -np.inf, np.inf]])
        x = np.concatenate([x, rng.uniform(xk[0] - 1.0, xk[-1] + 1.0,
                                           solver._SCALAR_POINT_ROWS + 1 - x.size)])
        whole = sol.evaluate(t, x)
        for size in (1, 16):
            parts = [sol.evaluate(t, x[k:k + size]) for k in range(0, x.size, size)]
            assert _same_bits(np.concatenate(parts), whole)


@pytest.mark.parametrize("path", ["float", "numpy"])
def test_nan_target_stalls_on_both_paths(tworamp_sol, monkeypatch, path):
    if path == "numpy":
        monkeypatch.setattr(solver, "_SCALAR_POINT_ROWS", -1)
    with pytest.raises(InversionError) as info:
        tworamp_sol.evaluate(1.0, [np.nan])
    assert re.search(r"t=1, x=nan\): Z\(t,\.\) inversion stalled: worst miss nan "
                     r"after 200 iterations \(tol nan\)$", str(info.value))
    assert math.isnan(info.value.owner[1])


@pytest.mark.parametrize("which", ["bi-two-ramp", "abi-middle", "three-speed"])
def test_one_point_call_bisects_the_kink_images(which, knot_sols, monkeypatch):
    # a one-point scalar-t call reads no full kink pass: one table read per
    # Newton step, and position reads of the kink images only to bisect them
    sol = knot_sols[which]
    steps, newton, points, passes = [], [], [], []
    real_step, real_invert = sol._float_step, solver.invert_floats

    def float_step(t):
        step = real_step(t)
        return lambda z, owner=None: steps.append(1) or step(z, owner)

    def invert(f, *args):
        return real_invert(lambda x, p: newton.append(1) or f(x, p), *args)

    real_row, real_call = sol._tables._row, cheb.StackedCheb.__call__
    monkeypatch.setattr(sol, "_float_step", float_step)
    monkeypatch.setattr(solver, "invert_floats", invert)
    monkeypatch.setattr(sol._tables, "_row",
                        lambda q, xs: points.extend([q] * len(xs)) or real_row(q, xs))
    monkeypatch.setattr(cheb.StackedCheb, "__call__",
                        lambda self, x: passes.append(1) or real_call(self, x))
    images = sol.system.family_speeds.size * sol.zeta.size
    lo, hi = sol.support_interval(2.5, margin=0.0)
    for x in np.linspace(lo, hi, 9)[1:-1]:
        del steps[:], newton[:], points[:], passes[:]
        z = sol.lagrangian_coordinate(2.5, x)
        assert passes == [] and len(newton) >= 1
        # one read of every table row per step
        assert points == list(range(len(sol._table_speeds))) * len(steps)
        assert len(steps) - len(newton) <= 2 + math.ceil(math.log2(images))
        assert abs(sol.position(2.5, z) - x) <= 1e-11
    # a target past the core reads the two core edges and runs no Newton
    del steps[:], newton[:]
    sol.lagrangian_coordinate(2.5, hi + 1.0)
    assert (len(steps), len(newton)) == (2, 0)


def test_generic_position_matches_closed_form_on_grid(tworamp_sol):
    ts = np.linspace(0.0, 3.0, 10)
    zs = np.linspace(-4.0, 4.0, 10)
    worst = 0.0
    for t in ts:
        for z in zs:
            gap = abs(
                tworamp_sol.position_quadrature(float(t), float(z))
                - float(tworamp_sol.position_closed_form(t, z))
            )
            worst = max(worst, gap)
    assert worst < 1e-9


def test_evaluate_reproduces_breakpoints_at_zero_time(tworamp_sol):
    prof = tworamp_sol.initial
    got = tworamp_sol.evaluate(0.0, prof.breakpoints)
    assert np.max(np.abs(got - prof.values)) < 1e-10


def test_simple_wave_is_translated_initial_data(bi):
    # lam constant: mu is advected at exactly that speed
    sol = solve(bi, bi_simple_wave_profile())
    xs = np.linspace(-4.0, 4.0, 101)
    for t in (0.5, 1.0, 3.0):
        w = sol.evaluate(t, xs)
        assert np.max(np.abs(w[:, 0] - sol.initial.component(0, xs + t))) < 1e-10
        assert np.max(np.abs(w[:, 1] + 1.0)) < 1e-12


def test_support_interval_is_constant_outside(tworamp_sol):
    for t in (0.4, 2.0, 9.0):
        lo, hi = tworamp_sol.support_interval(t, margin=0.5)
        w = tworamp_sol.evaluate(t, np.array([lo - 1.0, hi + 1.0]))
        assert np.max(np.abs(w[0] - tworamp_sol.initial.left_tail)) < 1e-12
        assert np.max(np.abs(w[1] - tworamp_sol.initial.right_tail)) < 1e-12


def test_residuals_constant_data(bi):
    prof = PiecewiseProfile([-1.0, 1.0], np.array([[1.2, -0.3], [1.2, -0.3]]))
    sol = solve(bi, prof)
    cons, entropies = sol.box_residuals((0.0, 1.0, -2.0, 2.0))
    assert cons < 1e-12
    assert entropies[0] < 1e-12


def test_residuals_outside_domain_of_influence(tworamp_sol):
    t1, t2 = 0.0, 2.0
    lo, hi = tworamp_sol.support_interval(t2, margin=1.0)
    cons, _ = tworamp_sol.box_residuals((t1, t2, lo - 1.0, hi + 1.0))
    assert cons < 1e-8


def test_residuals_interior_box(tworamp_sol):
    box = (0.3, 1.7, -2.1, 1.4)
    cons, entropies = tworamp_sol.box_residuals(box)
    assert cons < 1e-8
    assert max(entropies) < 1e-8
    # the shared vector pass agrees with one scalar pass per law
    ref_cons, ref_entropies = box_residuals_reference(tworamp_sol, box)
    assert cons == pytest.approx(ref_cons, abs=1e-12)
    assert entropies == pytest.approx(ref_entropies, abs=1e-12)


def test_simple_wave_entropy_residuals(bi):
    sol = solve(bi, bi_simple_wave_profile())
    _, entropies = sol.box_residuals((0.2, 1.8, -3.0, 2.0))
    assert max(entropies) < 1e-8


@pytest.mark.parametrize("which", ["bi", "three"])
def test_residuals_of_wrong_evaluator_match_per_law_reference(
    which, tworamp_sol, three_sol, monkeypatch
):
    # A solution evaluated at 1.05 t violates every law: the residuals are
    # large, so a wrong sign or a law paired with another law's side shows.
    # The space sides read snapshots, the time sides evaluate: both are wrapped.
    sol = tworamp_sol if which == "bi" else three_sol
    box = (0.3, 1.7, -2.1, 1.4) if which == "bi" else (0.3, 1.2, -0.8, 0.9)
    exact = type(sol).evaluate
    exact_snapshot = type(sol).snapshot
    monkeypatch.setattr(
        sol, "evaluate", lambda t, x: exact(sol, 1.05 * np.asarray(t), x)
    )
    monkeypatch.setattr(sol, "snapshot", lambda t: exact_snapshot(sol, 1.05 * t))
    cons, entropies = sol.box_residuals(box)
    ref_cons, ref_entropies = box_residuals_reference(sol, box)
    got = np.array((cons,) + entropies)
    want = np.array((ref_cons,) + ref_entropies)
    assert len(got) == sol.system.n + 1
    assert np.all(got > 1e-3)
    assert np.max(np.abs(got - want)) <= 1e-9


@pytest.mark.parametrize("which", ["bi", "three"])
def test_time_kinks_match_plain_bisection(which, tworamp_sol, three_sol, monkeypatch):
    # the multilevel bisection ends on the bits of one step per call
    sol = tworamp_sol if which == "bi" else three_sol
    t1, t2, A, B = (0.3, 1.7, -2.1, 1.4) if which == "bi" else (0.0, 1.0, -1.5, 1.5)
    got = [sol._time_kinks(x, t1, t2) for x in (A, B)]
    monkeypatch.setattr(quadrature, "bisect_brackets", bisect_full_cap)
    want = [sol._time_kinks(x, t1, t2) for x in (A, B)]
    assert min(len(g) for g in got) > 0
    for g, w in zip(got, want):
        assert np.array_equal(np.array(g).view(np.int64), np.array(w).view(np.int64))


def _hex(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("which", ["bi", "three"])
def test_time_kinks_match_grid_search_reference(which, tworamp_sol, three_sol):
    sol = tworamp_sol if which == "bi" else three_sol
    t1, t2, A, B = (0.3, 1.7, -2.1, 1.4) if which == "bi" else (0.0, 1.0, -1.5, 1.5)
    for x in (A, B):
        got = sol._time_kinks(x, t1, t2)
        assert len(got) > 0
        assert _hex(got) == _hex(time_kinks_reference(sol, x, t1, t2))


@pytest.mark.parametrize("name", [n for n in preset_names() if load_config(n).boxes])
def test_time_kinks_match_reference_on_preset_boxes(name):
    cfg = load_config(name)
    sol = solve(cfg.system, cfg.profile)
    for t1, t2, A, B in cfg.boxes:
        for x in (A, B):
            assert _hex(sol._time_kinks(x, t1, t2)) == _hex(
                time_kinks_reference(sol, x, t1, t2)
            )


def test_time_kinks_probe_each_grid_time_once(three_sol, monkeypatch):
    # one owner per (family, breakpoint) path, 8 panels sharing their edges:
    # the probe is the 65-point grid of every path
    sizes = []
    exact = type(three_sol).position

    def counting(t, z):
        sizes.append(np.size(np.broadcast(t, z)))
        return exact(three_sol, t, z)

    monkeypatch.setattr(three_sol, "position", counting)
    three_sol._time_kinks(-1.5, 0.0, 1.0)
    paths = three_sol.system.family_speeds.size * three_sol.zeta.size
    assert sizes[0] == 65 * paths


def test_bad_box_rejected_before_any_work(three_sol, monkeypatch):
    def no_position(t, z):
        raise AssertionError("position called for a bad box")

    monkeypatch.setattr(three_sol, "position", no_position)
    for box in ((1.0, 0.5, -1.0, 1.0), (-0.1, 1.0, -1.0, 1.0),
                (0.0, 0.0, -1.0, 1.0), (0.0, 1.0, 1.0, -1.0), (0.0, 1.0, 1.0, 1.0)):
        with pytest.raises(ValueError):
            three_sol.box_residuals(box)


@pytest.mark.parametrize(
    "box",
    [(0.0, np.inf, -1.0, 1.0), (np.nan, 1.0, -1.0, 1.0), (0.0, 1.0, -np.inf, 1.0),
     (0.0, 1.0, -3.0, np.inf), (0.0, 1.0, -1.0, np.nan)],
)
def test_non_finite_box_rejected(three_sol, box):
    # an infinite side refined NaN panels without end
    with pytest.raises(ValueError, match="finite"):
        three_sol.box_residuals(box)


def test_box_residuals_one_integrate_call_per_side(three_sol, monkeypatch):
    calls = []
    real = solver.integrate

    def counting(f, a, b, **kw):
        calls.append((a, b))
        return real(f, a, b, **kw)

    monkeypatch.setattr(solver, "integrate", counting)
    cons, entropies = three_sol.box_residuals((0.0, 1.0, -1.5, 1.5))
    assert max(cons, *entropies) <= 1e-8
    assert sorted(calls) == [(-1.5, 1.5), (-1.5, 1.5), (0.0, 1.0), (0.0, 1.0)]


def test_inversion_error_names_worst_point(tworamp_sol, monkeypatch):
    # one Newton step cannot meet the 1e-12 residual target
    monkeypatch.setattr(maps, "MAX_INVERT_ITERS", 1)
    with pytest.raises(InversionError) as info:
        tworamp_sol.lagrangian_coordinate(1.5, 0.3)
    assert "stalled" in str(info.value)
    assert "t=1.5, x=%.17g" % 0.3 in str(info.value)
    assert info.value.owner == (1.5, 0.3)
    monkeypatch.undo()
    # a position map that is flat across the core cannot be inverted; the
    # point where it is flattest is named.  The small-call path reads the
    # map by _float_step and leaves a core it cannot prove increasing to
    # the numpy path, which reads it by position and names the failure.
    monkeypatch.setattr(
        tworamp_sol, "position",
        lambda t, z: 5.0 - np.asarray(t) * 0.0 * z,
    )
    monkeypatch.setattr(tworamp_sol, "_float_step", lambda t: lambda z, owner=None: (5.0, 0.0))
    with pytest.raises(InversionError) as info:
        tworamp_sol.lagrangian_coordinate(2.0, np.array([0.0, -3.0, 1.0]))
    assert "not increasing" in str(info.value)
    assert "t=2, x=0" in str(info.value)
    # with no target there is no point to name
    assert tworamp_sol.lagrangian_coordinate(2.0, np.zeros(0)).shape == (0,)
    # a decreasing map: the steepest descent is the worst point
    monkeypatch.setattr(tworamp_sol, "position", lambda t, z: -np.asarray(t) * z)
    with pytest.raises(InversionError) as info:
        tworamp_sol.lagrangian_coordinate(
            np.array([0.5, 2.0, 1.0]), np.array([0.0, -3.0, 1.0])
        )
    assert "not increasing" in str(info.value)
    assert "t=2, x=-3" in str(info.value)
    # a map that reads NaN has no core either: the point is named before
    # the knot merge, whose own error names none
    monkeypatch.setattr(tworamp_sol, "position", lambda t, z: np.full(np.shape(z), np.nan))
    monkeypatch.setattr(tworamp_sol, "_float_step",
                        lambda t: lambda z, owner=None: (np.nan, np.nan))
    for t in (2.0, np.array([2.0])):
        with pytest.raises(InversionError) as info:
            tworamp_sol.lagrangian_coordinate(t, np.array([0.3]))
        assert "not increasing" in str(info.value)
        assert info.value.owner == (2.0, 0.3)


def test_tail_points_need_one_position_call(tworamp_sol, three_sol, monkeypatch):
    # X(t, .) is exactly affine outside its core, so targets beyond both core
    # edges are settled by the one batched call at the edges
    for sol in (tworamp_sol, three_sol):
        calls = count_position_points(sol, monkeypatch)
        t = np.array([0.0, 0.7, 3.0, 3.0])
        x = np.array([-40.0, 55.0, -1e3, 2e3])
        z = sol.lagrangian_coordinate(t, x)
        assert calls == [8]
        monkeypatch.undo()
        assert np.max(np.abs(sol.position(t, z) - x)) <= 1e-9


@pytest.fixture(scope="module")
def knot_sols(three_sol):
    out = {"three-speed": three_sol}
    for name in ("bi-two-ramp", "abi-middle"):
        out[name] = _preset_sol(name)
    return out


def _coincidence_time(sol):
    """The first t > 0 at which two families' kink images coincide exactly."""
    speeds, zeta = sol.system.family_speeds, sol.zeta
    for f, g in zip(range(len(speeds)), range(1, len(speeds))):
        for j in range(len(zeta)):
            for k in range(len(zeta)):
                t = (zeta[j] - zeta[k]) / (speeds[g] - speeds[f])
                if t > 0 and np.unique(sol.solution_kinks(t)[0]).size < zeta.size * len(speeds):
                    return t
    raise AssertionError("no coincidence time")


@pytest.mark.parametrize("name", ["bi-two-ramp", "abi-middle", "three-speed"])
def test_scalar_time_inverts_between_kink_images(knot_sols, name):
    sol = knot_sols[name]
    eps = np.finfo(float).eps
    rng = np.random.default_rng(17)
    for t in (0.0, _coincidence_time(sol), 2.5):
        zk, xk = sol.solution_kinks(t)
        order = np.argsort(zk)
        zk, xk = zk[order], xk[order]
        if t == 0.0:  # every family's images sit on the breakpoints' images
            assert np.unique(zk).size == sol.zeta.size
        # the kink images (the core edges among them), both tails, the core
        x = np.concatenate([xk, [xk[0] - 3.0, xk[-1] + 3.0],
                            rng.uniform(xk[0] - 1.0, xk[-1] + 1.0, 64)])
        z = sol.lagrangian_coordinate(t, x)
        tol = np.maximum(sol.inv_tol, 1024.0 * eps * (np.abs(x) + 1.0))
        assert np.all(np.abs(sol.position(t, z) - x) <= tol)
        # a target on a kink image starts Newton on that knot and stops there;
        # the last knot is the right end of the last segment
        assert _same_bits(z[: xk.size - 1], zk[:-1])
        # past the core the exact affine inverse, without Newton
        left, right = sol._tail_slopes
        assert _same_bits(z[xk.size: xk.size + 2],
                          [zk[0] + (x[xk.size] - xk[0]) / left,
                           zk[-1] + (x[xk.size + 1] - xk[-1]) / right])


def test_scalar_time_makes_one_kink_image_position_pass(knot_sols, monkeypatch):
    # one position pass over every family's kink images, whatever the batch;
    # Newton steps read the per-family tables, not position
    for sol in knot_sols.values():
        assert 200 * len(sol._table_speeds) > solver._SCALAR_POINT_ROWS  # the numpy path
        calls = count_position_points(sol, monkeypatch)
        sol.lagrangian_coordinate(1.3, np.linspace(-6.0, 6.0, 200))
        monkeypatch.undo()
        assert calls == [sol.system.family_speeds.size * sol.zeta.size]


def test_array_time_keeps_the_core_bracket_of_each_time(knot_sols, monkeypatch):
    t = np.array([[0.0], [0.7], [3.0]])
    x = np.array([[-9.0, -2.0, -0.3, 0.4, 1.5, 6.0]])
    eps = np.finfo(float).eps
    for sol in knot_sols.values():
        calls = count_position_points(sol, monkeypatch)
        z = sol.lagrangian_coordinate(t, x)
        monkeypatch.undo()
        assert calls[0] == 2 * t.size  # both core edges per time, not per point
        # the bits of Newton over the whole core from each point's own edges
        tb, xb = (a.reshape(-1) for a in np.broadcast_arrays(t, x))
        z_lo, z_hi = sol._core(tb)
        want = maps.invert_increasing(
            sol._newton_step(lambda owner: tb[owner]), xb, z_lo, z_hi,
            sol.position(tb, z_lo), sol.position(tb, z_hi), *sol._tail_slopes,
            np.maximum(sol.inv_tol, 32.0 * eps * (np.abs(xb) + 1.0)),
        )
        assert _same_bits(z, want.reshape(z.shape))


def test_knot_images_that_do_not_increase_are_merged(knot_sols):
    # one ulp before abi-middle's images coincide at t = 0.5, two distinct
    # kink images have the same position: one of them is merged away
    sol = knot_sols["abi-middle"]
    t = np.nextafter(0.5, 0.0)
    zr, xr = sol.solution_kinks(t)
    zk, xk = maps._sorted_knots(zr, xr)
    assert xk.size == np.unique(xr).size < np.unique(zr).size
    check_merged_knots(sol, t, np.linspace(-4.0, 4.0, 41))


@pytest.mark.parametrize("name", preset_names() + ["three-speed"])
def test_coincident_kink_images_keep_knot_brackets(name):
    # every time two families' kink images meet, and the floats either side
    sol = _preset_sol(name)
    rng = np.random.default_rng(23)
    for t in coincidence_times(sol).ravel():
        lo, hi = sol.support_interval(t)
        check_merged_knots(sol, t, rng.uniform(lo, hi, 16))


def test_one_kink_helper_keeps_the_bits_of_both_old_ones(knot_sols):
    # the scalar-t knots of lagrangian_coordinate and the array-t kink rows
    # of the L1 integrals, each as the helper it replaced computed it
    for sol in knot_sols.values():
        speeds = sol.system.family_speeds
        for t in (0.0, 0.7, 3.0):
            zk = (sol.zeta + speeds[:, None] * t).reshape(-1)
            got = sol.solution_kinks(t)
            assert _same_bits(got[0], zk) and _same_bits(got[1], sol.position(t, zk))
        ts = np.array([0.0, 0.7, 3.0])
        tt = ts[:, None, None]
        want = np.reshape(sol.position(tt, sol.zeta + speeds[:, None] * tt), (3, -1))
        assert _same_bits(sol.solution_kinks(ts)[1], want)
        assert sol.solution_kinks(np.zeros(0))[1].shape == (0, speeds.size * sol.zeta.size)


def test_empty_targets_give_empty_coordinates(tworamp_sol, three_sol):
    for sol in (tworamp_sol, three_sol):
        for t in (1.0, np.zeros(0)):
            assert sol.lagrangian_coordinate(t, np.zeros(0)).shape == (0,)
        assert sol.evaluate(1.0, np.zeros((2, 0))).shape == (2, 0, sol.system.n)


def test_knot_brackets_save_newton_evaluations(tworamp_sol, monkeypatch):
    # seeded 1024-point queries: Newton evaluations per core point from knot
    # brackets (scalar t) against the whole-core bracket (the same t as an array)
    evaluations = []
    real = tworamp_sol._newton_step

    def counting(time_of):
        step = real(time_of)

        def f(zs, owner):
            evaluations.append(np.size(zs))
            return step(zs, owner)

        return f

    monkeypatch.setattr(tworamp_sol, "_newton_step", counting)
    rng = np.random.default_rng(1024)
    queries = [(rng.uniform(0.0, 10.0), rng.uniform(-12.0, 12.0, 1024)) for _ in range(8)]
    per_point = {}
    for rule in ("knots", "core"):
        evaluations.clear()
        core = 0
        for t, x in queries:
            lo, hi = tworamp_sol.support_interval(t, margin=0.0)
            core += np.count_nonzero((x >= lo) & (x <= hi))
            tworamp_sol.lagrangian_coordinate(t if rule == "knots" else np.full(x.shape, t), x)
        per_point[rule] = sum(evaluations) / core
    assert per_point["knots"] < per_point["core"]


def test_generic_system_round_trip(three_sol):
    for t, z in ((0.0, 0.3), (0.7, -1.1), (1.5, 2.0)):
        x = three_sol.position(t, z)
        assert three_sol.lagrangian_coordinate(t, x) == pytest.approx(z, abs=1e-9)


def test_shared_position_pass_matches_per_point_reference(three_sol):
    # 300 points, some at t = 0, in one shared pass: each meets its per-point reference
    rng = np.random.default_rng(41)
    ts = rng.uniform(0.0, 6.0, size=300)
    zs = rng.uniform(-6.0, 8.0, size=300)
    ts[::17] = 0.0
    got = three_sol.position_quadrature(ts, zs)
    want = np.array(
        [position_quadrature_reference(three_sol, t, z) for t, z in zip(ts, zs)]
    )
    assert np.max(np.abs(got - want)) <= 1e-13
    zero = ts == 0.0
    assert np.array_equal(got[zero], three_sol.initial_position(zs[zero]))
    # the per-family tables meet the quadrature within criterion 3's bound
    assert np.max(np.abs(three_sol.position(ts, zs) - got)) <= 1e-9


def test_position_quadrature_shapes(three_sol):
    x = three_sol.position_quadrature(0.8, 0.3)
    assert type(x) is float
    assert x == position_quadrature_reference(three_sol, 0.8, 0.3)
    ts = np.array([[0.0], [0.5], [2.0]])
    zs = np.array([[-1.0, 0.0, 0.4, 3.0]])
    grid = three_sol.position_quadrature(ts, zs)
    assert grid.shape == (3, 4)
    for i in range(3):
        for j in range(4):
            assert grid[i, j] == three_sol.position_quadrature(ts[i, 0], zs[0, j])
    with pytest.raises(ValueError):
        three_sol.position_quadrature(np.array([1.0, -1e-3, 2.0]), 0.0)
    with pytest.raises(ValueError):
        three_sol.position(np.array([[1.0], [-2.0]]), zs)


def test_shared_pass_failure_names_point(three_sol, monkeypatch):
    # the smooth integrand meets a 1e-16 budget only after many bisections
    monkeypatch.setattr(quadrature, "MAX_DEPTH", 2)
    monkeypatch.setattr(three_sol, "quad_tol", 1e-16)
    with pytest.raises(QuadratureError) as info:
        three_sol.position_quadrature(np.array([0.0, 1.5]), np.array([0.2, -0.4]))
    assert info.value.owner == (1.5, -0.4)
    assert "t=1.5" in str(info.value) and "z=-0.4" in str(info.value)
    lo, hi = info.value.interval
    assert 0.0 <= lo < hi <= 1.5


def test_inadmissible_profile_rejected(bi):
    prof = PiecewiseProfile(
        [-1.0, 0.0, 1.0], np.array([[1.0, -1.0], [-2.0, -1.0], [1.0, -1.0]])
    )
    with pytest.raises(AdmissibilityError):
        solve(bi, prof)


def test_dangerous_mixing_rejected(bi):
    # mu dips to 0.4 to the RIGHT of a lam bump to 0.6: the translated pair
    # realizes mu - lam < 0, so the coordinate map would degenerate
    prof = PiecewiseProfile(
        [-1.0, -0.5, 0.0, 0.5, 1.0],
        np.array(
            [[1.0, -1.0], [1.0, 0.6], [1.0, -1.0], [0.4, -1.0], [1.0, -1.0]]
        ),
    )
    with pytest.raises(ValueError):
        solve(bi, prof)


def test_off_origin_core_with_larger_parameter():
    # coordinate anchor Z0(0) = 0 sits in a tail when the core is [2, 4];
    # every map must still compose exactly, here with a = 2
    bi2 = born_infeld(2.0)
    prof = PiecewiseProfile(
        [2.0, 3.0, 4.0], np.array([[1.0, -1.0], [1.8, -0.6], [1.0, -1.0]])
    )
    sol = solve(bi2, prof)
    assert sol.initial_coordinate(0.0) == 0.0
    xs = np.linspace(-1.0, 6.0, 31)
    assert np.max(np.abs(
        sol.initial_position(sol.initial_coordinate(xs)) - xs
    )) < 1e-12
    targets = np.array([1.0, 3.0, 5.0])
    z = sol.lagrangian_coordinate(1.2, targets)
    assert np.max(np.abs(sol.position(1.2, z) - targets)) < 1e-11
    assert sol.position_quadrature(0.7, 1.0) == pytest.approx(
        float(sol.position_closed_form(0.7, 1.0)), abs=1e-10
    )
    cons, ent = sol.box_residuals((0.1, 1.4, 0.5, 5.5))
    assert max(cons, *ent) < 1e-8


def test_negative_time_rejected(tworamp_sol):
    with pytest.raises(ValueError):
        tworamp_sol.evaluate(-0.5, 0.0)
    with pytest.raises(ValueError):
        tworamp_sol.position_quadrature(-1.0, 0.0)


def _non_degenerate_two_speed_system():
    # the separable fixture with M/N = -sum speed_i G_i, G_i the primitives
    # of its g_i: 1/N is separable, but u = u_L - sum_f s_f d_f fails
    speeds = (-1.0, 1.0)

    def density(w):
        return 1.0 / (0.4 + 0.5 * w[..., 0] ** 2 + 0.1 * w[..., 1] ** 2)

    def flux(w):
        g1 = 0.2 * w[..., 0] + 0.5 * w[..., 0] ** 3 / 3.0
        g2 = 0.2 * w[..., 1] + 0.1 * w[..., 1] ** 3 / 3.0
        return (-speeds[0] * g1 - speeds[1] * g2) * density(w)

    return systems.RichSystem(
        "non-degenerate-two-speed",
        (systems.Family(speeds[0], (0,)), systems.Family(speeds[1], (1,))),
        density, flux, lambda w: np.full(np.asarray(w).shape[:-1], True),
    )


def test_tables_are_certified_against_the_quadrature(monkeypatch):
    # a system the tables do not describe is refused at solve, naming the
    # worst kink image; the linearly degenerate fixture solves
    with pytest.raises(ValueError, match=r"X\(t=.*, z=.*\): the per-family tables miss") as info:
        solve(_non_degenerate_two_speed_system(), bump_profile_2(-0.5, 0.3))
    assert "non-degenerate-two-speed is not separable" in str(info.value)
    sol = solve(separable_two_speed_system(), bump_profile_2(-0.5, 0.3))
    for t in (0.5, 3.0):
        zk, xk = sol.solution_kinks(t)
        assert np.max(np.abs(xk - sol.position_quadrature(t, zk))) <= solver._SEPARABLE_TOL
    # the certificate reads both times in one quadrature call, on the kink
    # images; a Born-Infeld-like system needs none
    calls = []
    real = solver.LagrangianSolution.position_quadrature

    def counting(self, t, z):
        calls.append(np.broadcast(t, z).shape)
        return real(self, t, z)

    monkeypatch.setattr(solver.LagrangianSolution, "position_quadrature", counting)
    sol = solve(three_speed_system(), three_speed_profile())
    assert calls == [(2, sol.system.family_speeds.size * sol.zeta.size)]
    calls.clear()
    solve(born_infeld(1.0), bi_tworamp_profile())
    assert calls == []


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t", [1e300, 1e308])
def test_huge_times_raise_before_newton(tworamp_sol, three_sol, monkeypatch, t):
    # z - speed t keeps no digit of z: the time rule names t at once
    for sol in (tworamp_sol, three_sol):
        calls = count_position_points(sol, monkeypatch)
        for call in (lambda: sol.evaluate(t, 0.3), lambda: sol.snapshot(t),
                     lambda: sol.position(t, 0.3), lambda: sol.evaluate(np.array([1.0, t]), 0.3)):
            with pytest.raises(ValueError, match=re.escape("t=%.17g: the kink images" % t)):
                call()
        monkeypatch.undo()
        assert calls == [1]  # the direct call; evaluate and snapshot make none


def test_large_finite_times_still_invert(tworamp_sol, three_sol):
    for sol in (tworamp_sol, three_sol):
        t = 1e6
        zk, xk = sol.solution_kinks(t)
        x = np.linspace(xk.min() - 1.0, xk.max() + 1.0, 41)
        z = sol.lagrangian_coordinate(t, x)
        tol = np.maximum(sol.inv_tol, 1024.0 * np.finfo(float).eps * (np.abs(x) + 1.0))
        assert np.all(np.abs(sol.position(t, z) - x) <= tol)
        assert sol.evaluate(t, x).shape == (41, sol.system.n)
