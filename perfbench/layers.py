"""Traced layers and the per-layer metric catalogue.

A per-layer metric is named ``<module>.<function>.<stat>``.  Each entry
below notes the end-to-end figure it should move, on which workload; the
same map is written out in ``README.md``.

Some figures the workloads report are not end-to-end metrics, because the
result format needs every end-to-end metric, non-zero, on every workload:
the per-phase times (``solve_s`` ... ``eval_b16384_ms``) and
``failed_ops_ratio``.  They are reported here, from the untraced passes of a
traced run, and are 0 on a workload without that phase.
"""

import numpy as np

from richwave import (
    asymptotics,
    cheb,
    cli,
    config,
    fv,
    maps,
    plateau,
    quadrature,
    solver,
    stability,
    systems,
)
from tracer import (
    batch_of_eigen_states,
    batch_of_first,
    batch_of_pair,
    batch_of_states,
)

LAYERS = (
    "cli", "config", "solver", "cheb", "maps", "quadrature", "systems",
    "plateau", "asymptotics", "stability", "fv",
)

CLI_COMMANDS = ("solve", "plateau", "asymptotics", "stability", "oracle", "validate")

_LS = solver.LagrangianSolution


def targets():
    """``(span name, owner, attribute, batch-size function)`` to trace."""
    out = [("cli.cmd_%s" % c, cli, "cmd_%s" % c, None) for c in CLI_COMMANDS]
    out += [
        ("config.load_config", config, "load_config", None),
        ("solver.solve", solver, "solve", None),
        ("solver.evaluate", _LS, "evaluate", batch_of_pair),
        ("solver.lagrangian_coordinate", _LS, "lagrangian_coordinate", batch_of_pair),
        ("solver.position", _LS, "position", batch_of_pair),
        ("solver.position_quadrature", _LS, "position_quadrature", batch_of_pair),
        ("solver.state_lagrangian", _LS, "state_lagrangian", batch_of_pair),
        ("solver.box_residuals", _LS, "box_residuals", None),
        ("cheb.fit_piecewise", cheb, "fit_piecewise", None),
        ("cheb.PiecewiseCheb.__call__", cheb.PiecewiseCheb, "__call__", batch_of_first),
        ("maps.MonotoneMap.invert", maps.MonotoneMap, "invert", batch_of_first),
        ("quadrature.integrate", quadrature, "integrate", None),
        ("quadrature.refine_sign_changes", quadrature, "refine_sign_changes", None),
        ("systems.RichSystem.density", systems.RichSystem, "density", batch_of_states),
        ("systems.RichSystem.flux", systems.RichSystem, "flux", batch_of_states),
        ("systems.RichSystem.eigenvalue", systems.RichSystem, "eigenvalue",
         batch_of_eigen_states),
        ("plateau.wave_pattern", plateau, "wave_pattern", None),
        ("plateau.verify_pattern", plateau, "verify_pattern", None),
        ("asymptotics.build_shape", asymptotics, "build_shape", None),
        ("asymptotics.bi_shape", asymptotics, "bi_shape", None),
        ("asymptotics.abi_middle_shape", asymptotics, "abi_middle_shape", None),
        ("asymptotics.decay_curve", asymptotics, "decay_curve", None),
        ("stability.stability_sweep", stability, "stability_sweep", None),
        ("stability.pair_distance", stability, "pair_distance", None),
        ("stability.coordinate_map_bounds", stability, "coordinate_map_bounds", None),
        ("fv.run", fv, "run", None),
    ]
    return out


# (stat, parent span, child span): child spans inside outermost parent spans.
CHILD_COUNTS = (
    ("evaluate_calls", "solver.box_residuals", "solver.evaluate"),
    ("evaluate_calls", "quadrature.integrate", "solver.evaluate"),
    ("evaluate_calls", "asymptotics.decay_curve", "solver.evaluate"),
    ("evaluate_calls", "stability.pair_distance", "solver.evaluate"),
    ("position_calls", "solver.lagrangian_coordinate", "solver.position"),
)

_COUNT = ("count", "lower")
_SECONDS = ("s", "lower")

# name -> (unit, better); the comment says what the metric should move.
PER_LAYER = {}


def _add(span, **stats):
    for stat, spec in stats.items():
        PER_LAYER["%s.%s" % (span, stat)] = spec


# eval_b1_ms / eval_b16_ms on eval-batch; solve_s, asymptotics_s,
# stability_s on cli-presets.  Must not cost eval_b16384_ms.
_add("cheb.PiecewiseCheb.__call__", calls=_COUNT, points=_COUNT, self_s=_SECONDS,
     points_per_call=("pts/call", "higher"))
# solve_s / plateau_s on generic-three-speed; 0 elsewhere (no change there).
_add("solver.position_quadrature", calls=_COUNT, incl_s=_SECONDS)
# eval_b*_ms on eval-batch.
_add("solver.lagrangian_coordinate", calls=_COUNT, points=_COUNT, self_s=_SECONDS,
     position_calls_per_call=("calls/call", "lower"))
_add("solver.position", calls=_COUNT, points=_COUNT, self_s=_SECONDS)
_add("solver.state_lagrangian", calls=_COUNT, points=_COUNT, self_s=_SECONDS)
# The evaluate work behind every figure; errors feed failed_ops_ratio.
_add("solver.evaluate", calls=_COUNT, points=_COUNT, incl_s=_SECONDS, errors=_COUNT,
     b1_p50_ms=("ms", "lower"), b1_p99_ms=("ms", "lower"),
     b16_p50_ms=("ms", "lower"), b16_p99_ms=("ms", "lower"))
# solve_s on cli-presets and generic-three-speed (one residual pass per box).
_add("solver.box_residuals", calls=_COUNT, incl_s=_SECONDS, evaluate_calls=_COUNT)
# solve_s, asymptotics_s, stability_s.
_add("quadrature.integrate", calls=_COUNT, self_s=_SECONDS, incl_s=_SECONDS,
     evaluate_calls=_COUNT, errors=_COUNT)
_add("quadrature.refine_sign_changes", calls=_COUNT, incl_s=_SECONDS)
# asymptotics_s on cli-presets (generic shape route).
_add("asymptotics.build_shape", calls=_COUNT, incl_s=_SECONDS)
_add("asymptotics.bi_shape", incl_s=_SECONDS)
_add("asymptotics.abi_middle_shape", incl_s=_SECONDS)
_add("asymptotics.decay_curve", calls=_COUNT, incl_s=_SECONDS, evaluate_calls=_COUNT)
# stability_s on cli-presets.
_add("stability.stability_sweep", incl_s=_SECONDS)
_add("stability.pair_distance", calls=_COUNT, incl_s=_SECONDS, evaluate_calls=_COUNT)
_add("stability.coordinate_map_bounds", incl_s=_SECONDS)
# plateau_s.
_add("plateau.wave_pattern", incl_s=_SECONDS)
_add("plateau.verify_pattern", calls=_COUNT, incl_s=_SECONDS)
# setup_s everywhere, asymptotics_s (shape tables and inverses); a per-time
# table cache shows in peak_rss_mb.
_add("cheb.fit_piecewise", calls=_COUNT, incl_s=_SECONDS)
_add("maps.MonotoneMap.invert", calls=_COUNT, points=_COUNT, self_s=_SECONDS,
     errors=_COUNT)
_add("solver.solve", calls=_COUNT, incl_s=_SECONDS)
_add("config.load_config", incl_s=_SECONDS)
# solve_s on generic-three-speed, asymptotics_s on cli-presets.
_add("systems.RichSystem.density", calls=_COUNT, points=_COUNT)
_add("systems.RichSystem.flux", calls=_COUNT, points=_COUNT)
_add("systems.RichSystem.eigenvalue", calls=_COUNT, self_s=_SECONDS)
# wall_s on cli-presets; no workload stresses the FV oracle.
_add("fv.run", calls=_COUNT, incl_s=_SECONDS)
for _c in CLI_COMMANDS:
    _add("cli.cmd_%s" % _c, incl_s=_SECONDS)
# Traced wall_s minus untraced wall_s.
PER_LAYER["trace.overhead_s"] = ("s", "lower")

# Phase figures from untraced passes, and the failure ratio.
PHASES = {
    "solve_s": ("s", "lower"),
    "plateau_s": ("s", "lower"),
    "asymptotics_s": ("s", "lower"),
    "stability_s": ("s", "lower"),
    "eval_b1_ms": ("ms", "lower"),
    "eval_b16_ms": ("ms", "lower"),
    "eval_b1024_ms": ("ms", "lower"),
    "eval_b16384_ms": ("ms", "lower"),
}
PER_LAYER.update(PHASES)
PER_LAYER["failed_ops_ratio"] = ("ratio", "lower")

END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def _percentile_ms(durations, q):
    return 1e3 * float(np.percentile(durations, q)) if len(durations) else 0.0


def per_layer_values(summary, overhead_s, phases, failed_ops_ratio):
    """Every per-layer metric, from a :func:`tracer.summarize` result, the
    tracing overhead, the untraced phase figures and the failure ratio.

    Layers that recorded no spans, and phases the workload does not have,
    report 0.
    """
    out = _span_metrics(summary)
    out["trace.overhead_s"] = overhead_s
    for name in PHASES:
        out[name] = phases.get(name, 0.0)
    out["failed_ops_ratio"] = failed_ops_ratio
    return out


def _span_metrics(summary):
    out = {}
    for name in PER_LAYER:
        span, _, stat = name.rpartition(".")
        if span in ("", "trace"):
            continue
        s = summary.get(span)
        if s is None:
            out[name] = 0
        elif stat == "points_per_call":
            out[name] = s["points"] / s["calls"] if s["calls"] else 0.0
        elif stat == "position_calls_per_call":
            out[name] = s["position_calls"] / s["calls"] if s["calls"] else 0.0
        elif stat.startswith("b") and stat.endswith("_ms"):
            size, q = stat[1:-3].split("_p")
            sel = s["span_points"] == int(size)
            out[name] = _percentile_ms(s["durations"][sel], float(q))
        else:
            out[name] = s[stat]
    return out
