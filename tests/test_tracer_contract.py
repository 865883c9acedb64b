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

import layers  # noqa: E402
import workloads  # noqa: E402


def test_every_traced_target_is_defined_on_its_owner():
    missing = [name for name, owner, attr, _ in layers.targets()
               if attr not in owner.__dict__]
    assert not missing


def test_every_gated_span_is_traced():
    traced = {name for name, *_ in layers.targets()}
    for w in workloads.WORKLOADS.values():
        assert set(w.must_call) <= traced, w.name
        assert set(w.must_not_call) <= traced, w.name
