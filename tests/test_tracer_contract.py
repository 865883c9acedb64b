"""The benchmark tracer's contract with the package.

``perfbench/tracer.py`` wraps each target of ``layers.targets()`` by reading
``owner.__dict__[attr]``, and each workload names the traced spans it must
(and must not) record.  A refactor that inherits, renames or moves a traced
function breaks a traced benchmark run; these checks catch it here.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402

import layers  # noqa: E402
import richwave as rw  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from richwave import config  # noqa: E402
from tracer import summarize  # noqa: E402


def test_every_traced_target_is_defined_on_its_owner():
    missing = [name for name, owner, attr, _ in layers.targets()
               if attr not in owner.__dict__]
    assert not missing


def test_every_gated_span_is_traced():
    traced = {name for name, *_ in layers.targets()}
    for w in workloads.WORKLOADS.values():
        assert set(w.must_call) <= traced, w.name
        assert set(w.must_not_call) <= traced, w.name


def _quadrature_calls(monkeypatch, run):
    """``position_quadrature`` calls made by ``run()``."""
    calls = []
    owner = rw.LagrangianSolution
    real = owner.position_quadrature

    def counting(self, t, z):
        calls.append(1)
        return real(self, t, z)

    monkeypatch.setattr(owner, "position_quadrature", counting)
    run()
    monkeypatch.undo()
    return len(calls)


def test_generic_solve_reaches_the_quadrature(monkeypatch):
    # generic-three-speed must call position_quadrature: the certificate of
    # the per-family tables at solve is its one caller
    assert "solver.position_quadrature" in workloads.GenericThreeSpeed.must_call
    assert _quadrature_calls(monkeypatch, lambda: rw.solve(
        workloads.three_speed_system(), workloads.three_speed_profile())) > 0


def test_born_infeld_runs_never_reach_the_quadrature(monkeypatch):
    # cli-presets and eval-batch must not call it: a Born-Infeld-like system
    # is separable by structure, and position reads the tables
    for w in (workloads.CliPresets, workloads.EvalBatch):
        assert "solver.position_quadrature" in w.must_not_call

    def run():
        sol = workloads.solve_config(config.load_config("bi-two-ramp"))
        sol.evaluate(2.0, np.linspace(-6.0, 6.0, 33))
        sol.snapshot(2.0).evaluate(np.linspace(-6.0, 6.0, 33))

    assert _quadrature_calls(monkeypatch, run) == 0


def test_traced_generic_three_speed_reaches_every_gated_layer(tmp_path):
    # the gate a traced benchmark run applies: every must_call layer records
    # a call (box_residuals through one integrate pass among them) and no
    # must_not_call layer does
    wl = workloads.GenericThreeSpeed(7, str(tmp_path))
    ops = workloads.Ops()
    _, tracer = run.traced_pass(wl, ops)
    summary = summarize(tracer, layers.CHILD_COUNTS)
    run.check_expected_calls(wl, summary)
    assert ops.failed == 0
    assert summary["quadrature.integrate"]["calls"] > 0
