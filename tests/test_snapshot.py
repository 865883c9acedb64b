"""Fixed-time snapshots and shape inverse tables against their Newton oracles.

``LagrangianSolution.snapshot(t)`` tabulates ``Z(t, .)`` once and
``ShapeFunction.inverse`` is a shape inverse table; both are certified
against the forward map, bisecting their knot segments until they are, or
raise ``TabulationError``.  ``evaluate`` keeps Newton, whatever was built.
"""

import numpy as np
import pytest

from helpers import (
    bump_profile_2,
    separable_two_speed_system,
    three_speed_profile,
    three_speed_system,
)
from richwave import (
    TabulationError,
    cheb,
    abi_middle_shape,
    bi_shape,
    decay_curve,
    maps,
    pair_distance,
    solve,
    stability_sweep,
    triangle_perturbation,
    verify_pattern,
    wave_pattern,
)
from richwave.config import load_config, preset_names
from richwave.solver import LagrangianSolution, Snapshot

_TIMES = (0.0, 0.5, 2.0, 8.0, 80.0)


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def _preset(name):
    if name == "three-speed":
        return solve(three_speed_system(), three_speed_profile())
    cfg = load_config(name)
    return solve(cfg.system, cfg.profile)


@pytest.fixture(scope="module")
def sols():
    return {name: _preset(name) for name in ("bi-two-ramp", "abi-middle", "three-speed")}


def _grid(sol, t):
    lo, hi = sol.support_interval(t, margin=3.0)
    return np.linspace(lo, hi, 401)


@pytest.mark.parametrize("name", ["bi-two-ramp", "abi-middle", "three-speed"])
@pytest.mark.parametrize("t", _TIMES)
def test_snapshot_table_matches_newton(sols, name, t):
    sol = sols[name]
    snap = sol.snapshot(t)
    cert = snap.certificate
    kinks = np.unique(sol.solution_kinks(t)[1])
    assert cert.splits == 0
    assert cert.residual <= sol.inv_tol
    assert cert.segments == len(kinks) - 1
    assert 0 <= cert.max_degree <= 256
    x = _grid(sol, t)
    z_tab = snap.coordinate(x)
    # both meet |X(t, z) - x| <= inv_tol, so they differ by at most
    # 2 inv_tol times the largest dZ/dx = N
    assert np.max(np.abs(sol.position(t, z_tab) - x)) <= sol.inv_tol
    n_max = float(np.max(sol.system.density(sol.evaluate(t, x))))
    z_newton = sol.lagrangian_coordinate(t, x)
    assert np.max(np.abs(z_tab - z_newton)) <= 2.0 * sol.inv_tol * n_max
    np.testing.assert_allclose(snap.evaluate(x), sol.evaluate(t, x), rtol=0, atol=1e-10)
    # both tails are exactly affine with slopes N at the tail states
    n_left, n_right = (1.0 / s for s in sol._tail_slopes)
    assert snap.coordinate.table.left_tail[1] == n_left
    assert snap.coordinate.table.right_tail[1] == n_right


def test_snapshot_is_immutable_and_keeps_its_time(sols):
    snap = sols["bi-two-ramp"].snapshot(2)
    assert snap.t == 2.0 and isinstance(snap.t, float)
    with pytest.raises(AttributeError):
        snap.t = 3.0
    with pytest.raises(ValueError):
        sols["bi-two-ramp"].snapshot(-1.0)


def _spoil_fits(monkeypatch, how, offset):
    """Every table fit off by ``offset`` in x, or failing; returns the number
    of knot images each fit was given (one map per fit here)."""
    real = maps.fit_piecewise
    knots = []

    def spoiled(f, breaks, *args):
        knots.extend(map(len, breaks))
        if how == "fit":
            raise TabulationError("forced", owner=0)
        return [table.shifted(offset) for table in real(f, breaks, *args)]

    monkeypatch.setattr(maps, "fit_piecewise", spoiled)
    return knots


def _bisected_every_time(knots):
    # each level bisects every segment of the one before
    return knots == [(knots[0] - 1) * 2**k + 1 for k in range(maps._SPLIT_LEVELS + 1)]


@pytest.mark.parametrize("name", ["bi-two-ramp", "three-speed"])
@pytest.mark.parametrize("how", ["residual", "fit"])
def test_failed_certificate_raises_after_every_split(sols, monkeypatch, name, how):
    sol = sols[name]
    knots = _spoil_fits(monkeypatch, how, 1e-9)  # tables off by 1e-9 in z, or none
    why = "worst residual" if how == "residual" else "forced"
    with pytest.raises(TabulationError,
                       match=r"^Z\(t=2, \.\) is not certified after 4 splits: %s" % why):
        sol.snapshot(2.0)
    assert knots[0] == len(np.unique(sol.solution_kinks(2.0)[1]))
    assert _bisected_every_time(knots)


def test_evaluate_is_unchanged_by_snapshots_and_fits_nothing(monkeypatch):
    sol = _preset("bi-two-ramp")
    x = np.linspace(-12.0, 12.0, 257)
    before = [sol.evaluate(t, x) for t in _TIMES]
    for t in _TIMES:
        sol.snapshot(t)
    calls = []
    real = maps.fit_piecewise

    def counting(*args, **kw):
        calls.append(1)
        return real(*args, **kw)

    for module in ("cheb", "maps", "solver"):
        monkeypatch.setattr("richwave.%s.fit_piecewise" % module, counting)
    after = [sol.evaluate(t, x) for t in _TIMES]
    assert calls == []
    assert [bits(w) for w in after] == [bits(w) for w in before]


def _shapes(sol, name):
    shapes = [bi_shape(sol, "slow"), bi_shape(sol, "fast")]
    return shapes + [abi_middle_shape(sol)] if name == "abi-middle" else shapes


@pytest.mark.parametrize("name", ["bi-two-ramp", "abi-middle"])
def test_shape_inverse_table_matches_newton(sols, name):
    sol = sols[name]
    for shape in _shapes(sol, name):
        inv = shape.inverse
        fmap = shape.forward
        assert inv.certificate.splits == 0
        assert inv.certificate.residual <= fmap.tol
        assert inv.certificate.segments == len(shape.breakpoints) - 1
        assert inv.table.left_tail[1] == 1.0 / fmap.left_slope
        assert inv.table.right_tail[1] == 1.0 / fmap.right_slope
        y = np.linspace(fmap.f_lo - 2.0, fmap.f_hi + 2.0, 401)
        assert np.max(np.abs(fmap(inv(y)) - y)) <= fmap.tol
        bound = 2.0 * fmap.tol / shape.derivative_floor
        assert np.max(np.abs(inv(y) - fmap.invert(y))) <= bound


def test_failed_shape_certificate_raises_after_every_split(sols, monkeypatch):
    shape = bi_shape(sols["bi-two-ramp"], "slow")
    knots = _spoil_fits(monkeypatch, "residual", 1e-8)
    with pytest.raises(TabulationError, match=r"^S\^-1 \(route bi-slow, component 0\) "
                                              r"is not certified after 4 splits: worst"):
        shape.inverse
    assert knots[0] == len(shape.breakpoints)
    assert _bisected_every_time(knots)


@pytest.fixture
def snapshot_log(monkeypatch):
    """(solution, times) of every ``snapshots`` call made while the test runs."""
    log = []
    real = LagrangianSolution.snapshots

    def logging(self, times):
        log.append((self, [float(t) for t in times]))
        return real(self, times)

    monkeypatch.setattr(LagrangianSolution, "snapshots", logging)
    return log


def test_fixed_time_consumers_build_one_snapshot_per_time(sols, snapshot_log):
    # each consumer builds every time of a solution in one snapshots call
    sol = sols["bi-two-ramp"]
    times = [1.0, 4.0, 9.0]
    decay_curve(sol, _shapes(sol, "bi-two-ramp"), times)
    assert snapshot_log == [(sol, times)]
    del snapshot_log[:]
    sol.box_residuals((0.3, 1.7, -2.1, 1.4))
    assert snapshot_log == [(sol, [1.7, 0.3])]
    del snapshot_log[:]
    cfg = load_config("bi-two-ramp")
    bumped = solve(cfg.system, cfg.profile.with_values(0.9 * cfg.profile.values))
    pair_distance(sol, bumped, [0.0, 1.0, 4.0])
    assert sorted(snapshot_log, key=lambda e: e[0] is sol) == [
        (bumped, [1.0, 4.0]), (sol, [1.0, 4.0])]


def test_stability_sweep_builds_base_snapshots_once(snapshot_log):
    cfg = load_config("bi-two-ramp")
    perturb = triangle_perturbation(0, 0.05, 0.3)
    stability_sweep(cfg.system, cfg.profile, perturb, [0.05, 0.1, 0.2], [0.0, 1.0, 4.0])
    sols = [s for s, _ in snapshot_log]
    base = sols[0]
    assert [ts for s, ts in snapshot_log if s is base] == [[1.0, 4.0]]
    # one snapshots call of the moving times for each of the three perturbed solutions
    assert snapshot_log[1:] == [(s, [1.0, 4.0]) for s in sols[1:]]
    assert len(snapshot_log) == 1 + 3
    assert len({id(s) for s in sols}) == 4


def test_single_use_times_stay_on_newton(sols, snapshot_log):
    sol = sols["three-speed"]
    sol.evaluate(1.5, np.linspace(-3.0, 3.0, 9))
    sol._time_kinks(-1.5, 0.0, 1.0)
    pattern = wave_pattern(sol)
    verify_pattern(sol, pattern, 1.1 * pattern.settling_time)
    assert snapshot_log == []


def _snapshot_bits(snap):
    """Everything a snapshot holds, floats as their bits."""
    table, cert = snap.coordinate.table, snap.certificate
    return (snap.t, bits(snap.kinks), [bits(c) for c in table.coefs], bits(table.breaks),
            bits(table.left_tail + table.right_tail),
            (bits(cert.residual), cert.segments, cert.max_degree, cert.splits))


@pytest.mark.parametrize("name", preset_names() + ["three-speed"])
def test_batched_snapshots_keep_the_bits_of_one_time(name):
    # one ladder for all times: every snapshot keeps the coefficients, tails,
    # kinks and certificate it gets alone, in either order
    sol = _preset(name)
    times = [0.0, 0.7, 2.0, 9.0]
    alone = [_snapshot_bits(sol.snapshots([t])[0]) for t in times]
    assert [_snapshot_bits(s) for s in sol.snapshots(times)] == alone
    assert [_snapshot_bits(s) for s in sol.snapshots(times[::-1])] == alone[::-1]
    assert _snapshot_bits(sol.snapshot(0.7)) == alone[1]


@pytest.fixture(scope="module")
def steep():
    """A solution whose snapshots at t = 0.25 and 1 certify after one split."""
    return solve(separable_two_speed_system(), bump_profile_2(12.0, 12.0))


_STEEP_TIMES = [0.25, 1.0, 4.0]


def test_batched_snapshots_keep_each_times_splits(steep, monkeypatch):
    alone = [_snapshot_bits(steep.snapshot(t)) for t in _STEEP_TIMES]
    assert [a[-1][-1] for a in alone] == [1, 1, 0]
    assert [_snapshot_bits(s) for s in steep.snapshots(_STEEP_TIMES)] == alone
    # one rung fewer: every time's fit runs out of degrees, the failing maps
    # leave the ladder one at a time, and each certifies after two splits
    monkeypatch.setattr(cheb, "_DEGREES", cheb._DEGREES[:-1])
    alone = [_snapshot_bits(steep.snapshot(t)) for t in _STEEP_TIMES]
    assert [a[-1][-1] for a in alone] == [2, 2, 2]
    assert [_snapshot_bits(s) for s in steep.snapshots(_STEEP_TIMES)] == alone


def test_uncertified_time_in_a_batch_raises_as_alone(steep, monkeypatch):
    # without splits Z(1, .) cannot certify; Z(4, .) needs none
    monkeypatch.setattr(maps, "_SPLIT_LEVELS", 0)
    neighbour = _snapshot_bits(steep.snapshot(4.0))
    with pytest.raises(TabulationError, match=r"^Z\(t=1, \.\) is not certified after 0 "
                                              r"splits") as alone:
        steep.snapshot(1.0)
    # a later time that breaks the time rule raises once the earlier ones are built
    with pytest.raises(TabulationError, match=r"^Z\(t=1, "):
        steep.snapshots([1.0, 1e300])
    with pytest.raises(ValueError, match="kink images"):
        steep.snapshots([4.0, 1e300])
    built = []
    real = maps.InverseTable

    def recording(table, certificate):
        built.append(real(table, certificate))
        return built[-1]

    monkeypatch.setattr(maps, "InverseTable", recording)
    for times, owner in (([4.0, 1.0], 1), ([1.0, 4.0], 0)):
        del built[:]
        with pytest.raises(TabulationError) as batch:
            steep.snapshots(times)
        assert str(batch.value) == str(alone.value)
        assert batch.value.owner == owner
        # the neighbour's table is built, as it is alone
        (table,) = built
        kinks = steep.solution_kinks(4.0)[1]
        assert _snapshot_bits(Snapshot(steep, 4.0, table, kinks)) == neighbour
