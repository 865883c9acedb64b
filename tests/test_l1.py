"""The L1 experiments run one batched pass per call.

``decay_curve`` integrates all its ``(shape, time)`` pairs and
``pair_distance`` all its ``(t > 0, component)`` pairs in one
``integrate_abs`` call; each owner's probe, bisection and panels stay its
own, and the snapshot and inverse tables depend only on the solution, the
shape and the time, so the batched results must equal loops of one-time
calls bit for bit.  The per-time and per-component references in
``helpers`` evaluate by Newton and stay the oracles, within ``2 quad_tol``.
"""

import numpy as np
import pytest

from helpers import (
    bi_tworamp_profile,
    decay_curve_reference,
    pair_distance_reference,
    three_speed_profile,
    three_speed_system,
)
from richwave import (
    PiecewiseProfile,
    abi_middle_shape,
    add_bump,
    bi_shape,
    born_infeld,
    decay_curve,
    pair_distance,
    quadrature,
    solve,
)
from richwave.config import load_config


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


@pytest.fixture(scope="module")
def presets():
    out = {}
    for name in ("bi-two-ramp", "abi-middle"):
        cfg = load_config(name)
        out[name] = (solve(cfg.system, cfg.profile), cfg.decay_times)
    return out


_SHAPES = {"bi-two-ramp": ("slow", "fast"), "abi-middle": ("slow", "middle", "fast")}


def _shape(sol, name):
    return abi_middle_shape(sol) if name == "middle" else bi_shape(sol, name)


@pytest.fixture(scope="module")
def batched_decay(presets):
    # one decay_curve call per preset for all its shapes
    out = {}
    for preset, names in _SHAPES.items():
        sol, times = presets[preset]
        reports = decay_curve(sol, [_shape(sol, n) for n in names], times)
        out.update({(preset, n): r for n, r in zip(names, reports)})
    return out


@pytest.fixture(scope="module")
def bi_pair():
    bi = born_infeld(1.0)
    return (
        bi,
        solve(bi, bi_tworamp_profile()),
        solve(bi, add_bump(bi_tworamp_profile(), 0, 0.05, 0.3, 0.1)),
    )


@pytest.mark.parametrize(
    "preset, shape",
    [
        ("bi-two-ramp", "slow"),
        ("bi-two-ramp", "fast"),
        ("abi-middle", "slow"),
        ("abi-middle", "middle"),
        ("abi-middle", "fast"),
    ],
)
def test_batched_decay_curve_matches_per_time_loop(
    presets, batched_decay, preset, shape
):
    sol, times = presets[preset]
    shp = _shape(sol, shape)
    rep = batched_decay[preset, shape]
    assert (rep.component, rep.route) == (shp.component, shp.route)
    loop = [decay_curve(sol, [shp], [t])[0].distances[0] for t in times]
    assert bits(rep.distances) == bits(loop)
    oracle = decay_curve_reference(sol, shp, times)
    assert np.max(np.abs(np.subtract(rep.distances, oracle))) <= 2 * sol.quad_tol


def _pairs(bi_pair):
    bi, base, bumped = bi_pair
    other_tails = solve(
        bi, PiecewiseProfile([-1.0, 1.0], np.array([[1.5, -1.0], [1.5, -1.0]]))
    )
    three = three_speed_system()
    prof = three_speed_profile()
    return {
        "bumped": (base, bumped, [0.0, 1.0, 4.0]),
        "differing-tails": (base, other_tails, [0.0, 1.0, 2.5]),
        "identical": (base, base, [0.0, 1.0]),
        "three-speed": (
            solve(three, prof),
            solve(three, prof.with_values(0.5 * prof.values)),
            [0.0, 0.5, 2.0],
        ),
    }


@pytest.mark.parametrize(
    "case", ["bumped", "differing-tails", "identical", "three-speed"]
)
def test_batched_pair_distance_matches_per_component_loop(bi_pair, case):
    sol1, sol2, times = _pairs(bi_pair)[case]
    got = pair_distance(sol1, sol2, times)
    want = [pair_distance(sol1, sol2, [t])[0] for t in times]
    oracle = [pair_distance_reference(sol1, sol2, t) for t in times]
    assert len(got) == len(times)
    for (g_total, g_per), (w_total, w_per), (o_total, o_per) in zip(got, want, oracle):
        assert bits([g_total, *g_per]) == bits([w_total, *w_per])
        g, o = np.array([g_total, *g_per]), np.array([o_total, *o_per])
        assert np.array_equal(np.isinf(g), np.isinf(o))
        fin = np.isfinite(o)
        assert np.max(np.abs(g[fin] - o[fin]), initial=0.0) <= 2 * sol1.quad_tol
    if case == "identical":
        assert all(total == 0.0 for total, _ in got)
    if case == "differing-tails":
        assert all(np.isinf(total) for total, _ in got)


def test_one_sign_change_search_per_l1_call(monkeypatch, presets, bi_pair):
    calls = []
    real = quadrature.refine_sign_changes

    def counting(f, edges):
        calls.append(np.shape(edges)[0])
        return real(f, edges)

    monkeypatch.setattr(quadrature, "refine_sign_changes", counting)
    sol, times = presets["bi-two-ramp"]
    decay_curve(sol, [bi_shape(sol, "slow")], times)
    assert calls == [len(times)]
    del calls[:]
    decay_curve(sol, [bi_shape(sol, "slow"), bi_shape(sol, "fast")], times)
    # owners: two shapes times every time
    assert calls == [2 * len(times)]
    _, base, bumped = bi_pair
    del calls[:]
    pair_distance(base, bumped, [0.0, 1.0, 4.0])
    # owners: two times > 0 times two components
    assert calls == [4]
