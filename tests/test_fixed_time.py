"""Fixed-time passes and the one rule for time arguments.

A :class:`Snapshot` keeps the kink positions of the one ``solution_kinks``
pass it is built from; the space sides of ``box_residuals``,
``decay_curve`` and ``pair_distance`` take their kinks and supports from
it.  Reading them there moves no bit: the pins below are the results of
a second kink pass and a ``support_interval`` pass per call.  They are
taken on the per-family position tables; the closed form and the time
quadrature they replaced gave values within 2.6e-14 of them.
"""

import hashlib
import math

import numpy as np
import pytest

from helpers import count_position_points, three_speed_profile, three_speed_system
import richwave as rw
from richwave.config import load_config

TIMES = [2.0, 5.0, 10.0]
PAIR_TIMES = [0.0, 1.0, 3.0]
PRESET_BOX = (0.5, 2.0, -3.0, 3.0)
THREE_SPEED_BOX = (0.0, 1.0, -1.5, 1.5)
GRID = np.linspace(-6.0, 16.0, 33)  # the generic-three-speed benchmark grid
GRID_TIMES = (0.5, 2.0, 6.0)
BAD_TIMES = (-1.0, -1e-300, math.nan, math.inf, -math.inf)

DECAY_PINS = {
    "bi-two-ramp": [
        ["0x1.d023b86a9d38cp+1", "0x1.0a115b5bd7c4cp+0", "0x1.65b8de7ef3e78p-45"],
        ["0x1.cf50a37208667p+1", "0x1.09fccaff0d26ap+0", "0x1.9e649d1807770p-45"],
    ],
    "abi-middle": [
        ["0x1.2c16c16c16c17p-53", "0x1.2c16c16c16c17p-53", "0x1.2c16c16c16c17p-53"],
    ],
}
PAIR_PINS = {
    "bi-two-ramp": [
        ("0x1.47ae147ae147bp-6", ["0x1.47ae147ae147bp-6", "0x0.0p+0"]),
        ("0x1.698741af59b4cp-6", ["0x1.50171af765425p-6", "0x1.97026b7f4726cp-10"]),
        ("0x1.02dbb7cf0b40ap-3", ["0x1.2711663874237p-4", "0x1.bd4c12cb44bb8p-5"]),
    ],
    "abi-middle": [
        ("0x1.47ae147ae1484p-6", ["0x1.47ae147ae1484p-6", "0x0.0p+0", "0x0.0p+0"]),
        ("0x1.ed1f9966dbe55p-6",
         ["0x1.65296fa295ab2p-6", "0x1.4f2919d808cabp-8", "0x1.a15f1a72203bdp-9"]),
        ("0x1.ed1f9966db997p-6",
         ["0x1.65296fa295c4fp-6", "0x1.4f2919d808c90p-8", "0x1.a15f1a721d121p-9"]),
    ],
}
BOX_PINS = {
    "bi-two-ramp": ["0x1.26e88888888a2p-45", "0x1.0000000000000p-49", "0x1.0000000000000p-48"],
    "three-speed": ["0x1.5c00000000000p-47", "0x1.1380000000000p-48",
                    "0x1.0000000000000p-51", "0x1.0ed8000000000p-43"],
}
# sha256 of the int64 view of evaluate(t, GRID) on the three-speed system
EVALUATE_PINS = {
    0.5: "43be2b3ad4c919044d57a26f2284229c72d3ea2c9511b7b4c7e64665df15b060",
    2.0: "a09bbee85c663be702834690ad4d1db75491bfef72119d8e13474d3b3877a823",
    6.0: "39b450a32b0d7d97f786a3fcae91ec4c91ae78b63cc86b44d9ad1dab06adb404",
}


def _preset(name):
    cfg = load_config(name)
    return rw.solve(cfg.system, cfg.profile, quad_tol=cfg.quad_tol, inv_tol=cfg.inv_tol)


@pytest.fixture(scope="module")
def sols():
    out = {name: _preset(name) for name in ("bi-two-ramp", "abi-middle")}
    out["three-speed"] = rw.solve(three_speed_system(), three_speed_profile())
    return out


def _shapes(name, sol):
    if name == "bi-two-ramp":
        return [rw.bi_shape(sol, "slow"), rw.bi_shape(sol, "fast")]
    if name == "abi-middle":
        return [rw.abi_middle_shape(sol)]
    return [rw.build_shape(sol, 0)]


def _bumped(sol):
    return rw.solve(sol.system, rw.add_bump(sol.initial, 0, 0.1, 0.4, 0.05),
                    quad_tol=sol.quad_tol, inv_tol=sol.inv_tol)


def _hex(values):
    return [float(v).hex() for v in values]


def _digest(values):
    return hashlib.sha256(np.asarray(values).view(np.int64).tobytes()).hexdigest()


def decay_hex(sol, shapes):
    return [_hex(r.distances) for r in rw.decay_curve(sol, shapes, TIMES)]


def pair_hex(sol, other):
    return [(float(total).hex(), _hex(per))
            for total, per in rw.pair_distance(sol, other, PAIR_TIMES)]


def box_hex(sol, box):
    cons, entropies = sol.box_residuals(box)
    return _hex([cons, *entropies])


def evaluate_digests(sol):
    return {t: _digest(sol.evaluate(t, GRID)) for t in GRID_TIMES}


@pytest.mark.parametrize("name", ["bi-two-ramp", "abi-middle"])
def test_l1_distances_keep_their_bits(sols, name):
    sol = sols[name]
    assert decay_hex(sol, _shapes(name, sol)) == DECAY_PINS[name]
    assert pair_hex(sol, _bumped(sol)) == PAIR_PINS[name]


def test_box_residuals_and_three_speed_values_keep_their_bits(sols):
    assert box_hex(sols["bi-two-ramp"], PRESET_BOX) == BOX_PINS["bi-two-ramp"]
    assert box_hex(sols["three-speed"], THREE_SPEED_BOX) == BOX_PINS["three-speed"]
    assert evaluate_digests(sols["three-speed"]) == EVALUATE_PINS


@pytest.mark.parametrize("name", ["bi-two-ramp", "abi-middle", "three-speed"])
def test_snapshot_keeps_its_kink_pass(sols, name, monkeypatch):
    sol = sols[name]
    for t in (0.0, 1.3, 7.0):
        calls = count_position_points(sol, monkeypatch)
        snap = sol.snapshot(t)
        monkeypatch.undo()
        # the kink pass is the only one: Newton reads the per-family tables
        assert calls == [sol.zeta.size * sol.system.family_speeds.size]
        zk, xk = sol.solution_kinks(t)
        assert np.array_equal(snap.kinks.view(np.int64), xk.view(np.int64))
        # family-major: the core edges first and last, at the support's ends
        lo, hi = sol.support_interval(t, margin=0.0)
        assert (snap.kinks[0], snap.kinks[-1]) == (lo, hi)
        assert snap.kinks[0] == xk.min() and snap.kinks[-1] == xk.max()


@pytest.mark.parametrize("name", ["bi-two-ramp", "abi-middle", "three-speed"])
def test_one_position_call_per_time(sols, name, monkeypatch):
    # Newton and the snapshot tables read the per-family tables, so every
    # position call left is a kink pass.
    sol = sols[name]
    shapes = _shapes(name, sol)
    for shape in shapes:  # the inverse tables are built on first use, outside the count
        assert shape.inverse.certificate.splits == 0
    calls = count_position_points(sol, monkeypatch)
    rw.decay_curve(sol, shapes, TIMES)
    assert len(calls) == len(TIMES)

    other = _bumped(sol)
    other_calls = count_position_points(other, monkeypatch)
    calls.clear()
    rw.pair_distance(sol, other, PAIR_TIMES)
    moving = sum(t > 0.0 for t in PAIR_TIMES)
    assert (len(calls), len(other_calls)) == (moving, moving)
    # stability_sweep hands in the base solution's snapshots
    snaps = [sol.snapshot(t) for t in PAIR_TIMES if t > 0.0]
    calls.clear()
    other_calls.clear()
    rw.pair_distance(sol, other, PAIR_TIMES, _snaps1=snaps)
    assert (len(calls), len(other_calls)) == (0, moving)


def test_box_space_sides_make_one_position_call_each(sols, monkeypatch):
    sol = sols["bi-two-ramp"]
    calls = count_position_points(sol, monkeypatch)
    # the time sides' calls: Newton evaluate and the kink-crossing search
    time_side = []
    for name in ("evaluate", "_time_kinks"):
        def wrapped(*args, real=getattr(sol, name)):
            before = len(calls)
            out = real(*args)
            time_side.append(len(calls) - before)
            return out

        monkeypatch.setattr(sol, name, wrapped)
    sol.box_residuals(PRESET_BOX)
    assert len(calls) - sum(time_side) == 2


def test_decay_curve_without_shapes_or_times(sols):
    sol = sols["bi-two-ramp"]
    assert rw.decay_curve(sol, [], TIMES) == []
    with pytest.raises(ValueError, match="non-empty"):
        rw.decay_curve(sol, _shapes("bi-two-ramp", sol), [])


@pytest.mark.parametrize("name", ["bi-two-ramp", "three-speed"])
def test_pair_distance_without_moving_times(sols, name):
    sol = sols[name]
    other = _bumped(sol)
    assert rw.pair_distance(sol, other, []) == []
    initial = [rw.l1_distance(sol.initial, other.initial, i) for i in range(sol.system.n)]
    assert rw.pair_distance(sol, other, [0.0]) == [(sum(initial), tuple(initial))]


@pytest.mark.parametrize("bad", BAD_TIMES)
@pytest.mark.parametrize("name", ["bi-two-ramp", "three-speed"])
def test_every_time_entry_rejects_negative_and_non_finite_times(sols, name, bad):
    sol = sols[name]
    x = np.array([-0.5, 0.5])
    other, shapes = _bumped(sol), _shapes(name, sol)
    entries = {
        "position": lambda t: sol.position(t, x),
        "position_quadrature": lambda t: sol.position_quadrature(t, x),
        "lagrangian_coordinate": lambda t: sol.lagrangian_coordinate(t, x),
        "evaluate": lambda t: sol.evaluate(t, x),
        "pair_distance": lambda t: rw.pair_distance(sol, other, np.atleast_1d(t)),
        "decay_curve": lambda t: rw.decay_curve(sol, shapes, np.atleast_1d(t)),
    }
    # one bad time alone, and after a good one in an array of times
    for t in (bad, np.array([1.0, bad])):
        for entry, call in entries.items():
            with pytest.raises(ValueError, match="finite and nonnegative"):
                call(t)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        sol.snapshot(bad)
    # the closed form stays the raw oracle, unchecked
    if sol.system.bi_structure is not None and math.isfinite(bad):
        assert sol.position_closed_form(bad, x).shape == x.shape
