"""Tests of the benchmark's own code: tracer arithmetic and metric names.

    python3 -m pytest perfbench
"""

import json
import os
import re
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import layers  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _ticking_clock():
    """A clock that advances by exactly one second per reading."""
    ticks = iter(range(10_000))
    return lambda: float(next(ticks))


def _nested(tracer):
    leaf = tracer.wrap("leaf", lambda: None)
    mid = tracer.wrap("mid", lambda: (leaf(), leaf()))
    top = tracer.wrap("top", lambda: (mid(), leaf()))
    return top


def test_self_time_is_duration_minus_children():
    tracer = Tracer(clock=_ticking_clock())
    _nested(tracer)()
    # Clock readings: top 0..9, mid 1..6, leaves 2..3, 4..5 and 7..8.
    s = summarize(tracer)
    assert s["top"]["incl_s"] == 9.0
    assert s["top"]["self_s"] == 9.0 - 5.0 - 1.0
    assert s["mid"]["incl_s"] == 5.0
    assert s["mid"]["self_s"] == 5.0 - 2.0
    assert s["leaf"]["calls"] == 3
    assert s["leaf"]["self_s"] == s["leaf"]["incl_s"] == 3.0
    assert sum(v["self_s"] for v in s.values()) == s["top"]["incl_s"]


def test_spans_record_parents_and_child_counts():
    tracer = Tracer(clock=_ticking_clock())
    top = _nested(tracer)
    top()
    top()
    a = tracer.arrays()
    assert list(a["names"][a["name_id"][:5]]) == ["top", "mid", "leaf", "leaf", "leaf"]
    assert list(a["parent"][:5]) == [-1, 0, 1, 1, 0]
    s = summarize(tracer, [("leaf_calls", "top", "leaf"), ("leaf_calls", "mid", "leaf")])
    assert s["top"]["leaf_calls"] == 6
    assert s["mid"]["leaf_calls"] == 4


def test_recursion_is_not_counted_twice_in_inclusive_time():
    tracer = Tracer(clock=_ticking_clock())

    def rec(n):
        if n:
            traced(n - 1)

    traced = tracer.wrap("rec", rec)
    traced(3)
    s = summarize(tracer, [("rec_calls", "rec", "rec")])
    # Four nested spans over clock readings 0..7.
    assert s["rec"]["calls"] == 4
    assert s["rec"]["incl_s"] == 7.0
    assert s["rec"]["self_s"] == 7.0
    assert s["rec"]["rec_calls"] == 3


def test_raised_errors_are_counted_and_propagated():
    tracer = Tracer(clock=_ticking_clock())

    def fail(x):
        raise ValueError(x)

    traced = tracer.wrap("fail", fail, batch=lambda x: len(x))
    with pytest.raises(ValueError):
        traced([1, 2, 3])
    s = summarize(tracer)
    assert (s["fail"]["calls"], s["fail"]["errors"], s["fail"]["points"]) == (1, 1, 3)


def test_install_rebinds_imported_copies_and_restores_them():
    defining = types.ModuleType("defining")
    importing = types.ModuleType("importing")

    def func(x):
        return 2 * x

    class Cls:
        def meth(self, x):
            return x + 1

    defining.func = func
    importing.func = func
    importing.table = {"f": func}
    tracer = Tracer()
    with tracer:
        tracer.install(
            [("defining.func", defining, "func", None),
             ("defining.Cls.meth", Cls, "meth", None)],
            [defining, importing],
        )
        assert defining.func is not func
        assert importing.func is defining.func
        assert importing.table["f"] is defining.func
        assert importing.func(1) + importing.table["f"](2) + Cls().meth(3) == 10
    assert defining.func is func and importing.func is func
    assert importing.table["f"] is func and Cls.__dict__["meth"] is Cls.meth
    assert summarize(tracer)["defining.func"]["calls"] == 2


def test_every_layer_is_traced():
    traced_modules = {name.split(".")[0] for name, *_ in layers.targets()}
    assert traced_modules == set(layers.LAYERS)


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_names_and_units_are_valid():
    bench = _benchmark()
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in bench[key]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for spec in list(layers.END_TO_END.values()) + list(layers.PER_LAYER.values()):
        assert UNIT.fullmatch(spec[0]) and spec[1] in ("lower", "higher")


def test_emitted_metrics_match_benchmark_json():
    bench = _benchmark()
    declared_e2e = {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]}
    declared_layer = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    assert declared_e2e == layers.END_TO_END
    assert declared_layer == layers.PER_LAYER
    emitted = layers.per_layer_values({}, 0.0, {}, 0.0)
    assert list(emitted) == list(layers.PER_LAYER)
    assert {m["name"] for m in bench["end_to_end"]} >= {"setup_s"}


def test_workloads_match_benchmark_json():
    import workloads

    bench = _benchmark()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    for w in bench["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in bench["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
