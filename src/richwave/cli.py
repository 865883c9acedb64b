"""Command-line front end: scenario experiments emitting deterministic CSV.

    richwave <solve|plateau|asymptotics|stability|oracle|validate>
             --config <path-or-preset> [--out <dir>] [--tol <float>]

Exit code 0 iff every verification passed and no errors occurred; 2 for
config or IO errors (a command's ``OSError`` or ``ValueError``); otherwise 1,
with the machine-readable failure list in ``failures.json``: failed
verifications, and any other exception a command raises, as
``"<command>: <type>: <message>"``.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import asymptotics as asy
from . import fv
from .config import ConfigError, load_config, preset_names
from .maps import InversionError
from .plateau import verify_pattern, wave_pattern
from .solver import solve
from .stability import stability_sweep, triangle_perturbation
from .systems import validate_system


def _fmt(v):
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return "%.17g" % float(v)


def write_csv(path, header, rows):
    """Deterministic CSV: 17 significant digits, LF newlines."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _solution(cfg):
    return solve(cfg.system, cfg.profile, quad_tol=cfg.quad_tol, inv_tol=cfg.inv_tol)


def _component_headers(n, stem="w"):
    return ["%s%d" % (stem, i + 1) for i in range(n)]


def cmd_solve(cfg, out, tol, failures):
    if not cfg.times or not cfg.grid:
        raise ConfigError("solve requires 'times' and 'grid'")
    sol = _solution(cfg)
    xs = np.linspace(cfg.grid["x_min"], cfg.grid["x_max"], cfg.grid["points"])
    for t in cfg.times:
        try:
            w = sol.evaluate(t, xs)
        except InversionError:
            # numerical trouble: fall back to per-cell evaluation, report
            # failing cells as NaN rows and keep going
            w = np.full((len(xs), sol.system.n), np.nan)
            for k, xv in enumerate(xs):
                try:
                    w[k] = sol.evaluate(t, float(xv))
                except InversionError as exc:
                    failures.append(
                        "solve: evaluation failed at t=%g, x=%g: %s" % (t, xv, exc)
                    )
        rows = [[x] + list(w[k]) for k, x in enumerate(xs)]
        write_csv(
            os.path.join(out, "solution_t%g.csv" % t),
            ["x"] + _component_headers(sol.system.n),
            rows,
        )
    boxes = cfg.boxes
    if not boxes:
        t_hi = max(cfg.times) if max(cfg.times) > 0 else 1.0
        span = cfg.grid["x_max"] - cfg.grid["x_min"]
        boxes = [
            (0.0, t_hi, cfg.grid["x_min"] + 0.25 * span, cfg.grid["x_max"] - 0.25 * span)
        ]
    rows = []
    for box in boxes:
        t1, t2, lo, hi = box
        cons, entropies = sol.box_residuals(box)
        rows.append(["conservation", -1, t1, t2, lo, hi, cons, tol, cons <= tol])
        if cons > tol:
            failures.append(
                "solve: conservation residual %.3e > %.1e on box %s"
                % (cons, tol, box)
            )
        for i, res in enumerate(entropies):
            rows.append(["entropy", i, t1, t2, lo, hi, res, tol, res <= tol])
            if res > tol:
                failures.append(
                    "solve: entropy residual (component %d) %.3e > %.1e on box %s"
                    % (i, res, tol, box)
                )
    write_csv(
        os.path.join(out, "residuals.csv"),
        ["kind", "component", "t1", "t2", "A", "B", "residual", "tol", "passed"],
        rows,
    )


def cmd_plateau(cfg, out, tol, failures):
    sol = _solution(cfg)
    pattern = wave_pattern(sol)
    write_csv(
        os.path.join(out, "crossing_times.csv"),
        ["family_p", "family_q", "crossing_time"],
        [[p, q, t] for (p, q), t in sorted(pattern.crossing_times.items())],
    )
    s = pattern.family_count
    labels = ["D0"] + ["D%d" % (s + p + 1) for p in range(s - 1)] + ["D%d" % (2 * s)]
    write_csv(
        os.path.join(out, "plateau_states.csv"),
        ["region", "settling_time"] + _component_headers(sol.system.n),
        [
            [lab, pattern.settling_time] + list(pattern.constant_state(lab))
            for lab in labels
        ],
    )
    rows = []
    for factor in cfg.plateau_factors:
        t = factor * pattern.settling_time
        report = verify_pattern(
            sol, pattern, t, plateau_tol=min(tol, 1e-9), shift_tol=tol
        )
        for c in report.checks:
            rows.append([t, c.domain, c.kind, c.worst, c.tol, c.passed])
            if not c.passed:
                failures.append(
                    "plateau: %s %s check failed at t=%g (worst %.3e > %.1e)"
                    % (c.domain, c.kind, t, c.worst, c.tol)
                )
    write_csv(
        os.path.join(out, "verdicts.csv"),
        ["t", "domain", "kind", "worst", "tol", "passed"],
        rows,
    )


def _model_shapes(sol):
    """Model-route shape per component: slow/fast closed forms, middle map."""
    shapes = {}
    for i, speed in enumerate(sol.system.lagrangian_speeds):
        if speed == 0.0:
            shapes[i] = asy.abi_middle_shape(sol)
        else:
            shapes[i] = asy.bi_shape(sol, "slow" if speed < 0 else "fast")
    return shapes


def cmd_asymptotics(cfg, out, tol, failures):
    sol = _solution(cfg)
    try:
        shapes = _model_shapes(sol)
    except asy.GapConditionError as exc:
        raise ConfigError("asymptotics: profile: %s" % exc) from exc
    prof = cfg.profile
    pad = 0.5 * (prof.breakpoints[-1] - prof.breakpoints[0])
    xs = np.linspace(
        prof.breakpoints[0] - pad, prof.breakpoints[-1] + pad, cfg.shape_samples
    )
    header = ["x"]
    cols = [xs]
    for i in range(sol.system.n):
        header += ["psi%d" % (i + 1), "phi%d" % (i + 1)]
        cols.append(shapes[i](xs))
        cols.append(shapes[i].inverse(xs))
    write_csv(
        os.path.join(out, "shapes.csv"),
        header,
        [[c[k] for c in cols] for k in range(len(xs))],
    )

    rows = []
    if prof.equal_tails():
        for i in range(sol.system.n):
            generic = asy.build_shape(sol, i)
            gap = float(np.max(np.abs(generic(xs) - shapes[i](xs))))
            ok = gap <= tol
            rows.append([i, shapes[i].route, gap, tol, ok])
            if not ok:
                failures.append(
                    "asymptotics: generic/model shape gap %.3e > %.1e on component %d"
                    % (gap, tol, i)
                )
    else:
        for i in range(sol.system.n):
            rows.append([i, shapes[i].route, "skipped-unequal-tails", tol, True])
    write_csv(
        os.path.join(out, "crosscheck.csv"),
        ["component", "route", "max_gap", "tol", "passed"],
        rows,
    )

    times = cfg.decay_times or cfg.times
    if times and times[0] == 0.0:
        times = times[1:]
    if times:
        reports = asy.decay_curve(sol, [shapes[i] for i in range(sol.system.n)], times)
        write_csv(
            os.path.join(out, "decay.csv"),
            ["t"] + _component_headers(sol.system.n, stem="d"),
            [
                [times[k]] + [r.distances[k] for r in reports]
                for k in range(len(times))
            ],
        )
        for r in reports:
            if not (r.distances[-1] <= max(0.5 * r.distances[0], tol)):
                failures.append(
                    "asymptotics: component %d distance did not decay "
                    "(d_first=%.3e, d_last=%.3e)"
                    % (r.component, r.distances[0], r.distances[-1])
                )


def cmd_stability(cfg, out, tol, failures):
    if not (cfg.amplitudes and cfg.perturbation and cfg.times):
        raise ConfigError("stability requires 'amplitudes', 'perturbation', 'times'")
    perturb = triangle_perturbation(
        cfg.perturbation["component"],
        cfg.perturbation["center"],
        cfg.perturbation["half_width"],
    )
    reports = stability_sweep(
        cfg.system, cfg.profile, perturb, cfg.amplitudes, cfg.times,
        quad_tol=cfg.quad_tol, inv_tol=cfg.inv_tol,
    )
    rows = []
    for rep in reports:
        for k, t in enumerate(rep.times):
            ratio = rep.r_t[k] / rep.r0 if rep.r0 > 0 else 0.0
            rows.append([rep.amplitude, rep.r0, t, rep.r_t[k], ratio])
    write_csv(
        os.path.join(out, "stability.csv"),
        ["amplitude", "R0", "t", "R_t", "R_t_over_R0"],
        rows,
    )
    write_csv(
        os.path.join(out, "map_bounds.csv"),
        ["amplitude", "R0", "sup_z", "sup_x", "sup_roundtrip",
         "ratio_z", "ratio_x", "ratio_roundtrip"],
        [
            [rep.amplitude, rep.r0, rep.map_bounds.sup_z, rep.map_bounds.sup_x,
             rep.map_bounds.sup_roundtrip, *rep.map_bounds.ratios()]
            for rep in reports
        ],
    )
    # Verification: the measured ratio R_t / R0 must be stable (spread below
    # a factor 2) across amplitudes at every sampled time.
    for k, t in enumerate(cfg.times):
        vals = [rep.r_t[k] / rep.r0 for rep in reports if rep.r0 > 0]
        if not vals:
            continue
        lo, hi = min(vals), max(vals)
        if lo > 0 and hi / lo >= 2.0:
            failures.append(
                "stability: R_t/R0 spread %.3f at t=%g exceeds factor 2" % (hi / lo, t)
            )


def cmd_oracle(cfg, out, tol, failures):
    if not cfg.oracle:
        raise ConfigError("oracle requires the 'oracle' block")
    blk = cfg.oracle
    sol = _solution(cfg)
    table = fv.run_and_compare(
        cfg.system, cfg.profile, blk["t_final"], blk["cells"],
        x_min=blk["x_min"], x_max=blk["x_max"], cfl=blk["cfl"], reference=sol,
    )
    rows = []
    for k, cells in enumerate(table.cell_counts):
        ratio = table.ratios[k - 1] if k > 0 else ""
        order = table.observed_orders[k - 1] if k > 0 else ""
        rows.append(
            [cells, table.totals[k], *table.per_component[k], ratio, order]
        )
    write_csv(
        os.path.join(out, "oracle.csv"),
        ["cells", "l1_error"]
        + _component_headers(cfg.system.n, stem="e")
        + ["ratio", "order"],
        rows,
    )
    # Errors at the exactness floor (constant data) carry no rate information.
    floor = 1e-12
    for k, r in enumerate(table.ratios):
        if table.totals[k + 1] <= floor:
            continue
        if not (1.4 <= r <= 2.6):
            failures.append(
                "oracle: refinement ratio %.3f outside [1.4, 2.6] at %d -> %d cells"
                % (r, table.cell_counts[k], table.cell_counts[k + 1])
            )
    if any(
        b >= a and b > floor for a, b in zip(table.totals, table.totals[1:])
    ):
        failures.append("oracle: errors are not monotone decreasing")


def cmd_validate(cfg, out, tol, failures):
    prof = cfg.profile
    probes = np.vstack([prof.values, prof.range_mesh(5)])
    diag = validate_system(cfg.system, probes)
    rows = [[c.name, c.passed, c.worst, c.detail] for c in diag.checks]
    for c in diag.failures():
        failures.append("validate: %s failed (%s)" % (c.name, c.detail))
    sol = _solution(cfg)
    pad = 2.0
    xs = np.linspace(prof.breakpoints[0] - pad, prof.breakpoints[-1] + pad, 101)
    worst = float(
        np.max(np.abs(sol.initial_position(sol.initial_coordinate(xs)) - xs))
    )
    ok = worst <= 1e-9
    rows.append(
        ["coordinate-roundtrip", ok, worst, "max |X0(Z0(x)) - x| over probe grid"]
    )
    if not ok:
        failures.append("validate: coordinate roundtrip error %.3e > 1e-9" % worst)
    write_csv(
        os.path.join(out, "validate.csv"),
        ["check", "passed", "worst", "detail"],
        rows,
    )


_COMMANDS = {
    "solve": cmd_solve,
    "plateau": cmd_plateau,
    "asymptotics": cmd_asymptotics,
    "stability": cmd_stability,
    "oracle": cmd_oracle,
    "validate": cmd_validate,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="richwave",
        description="Exact-solution experiments for linearly degenerate rich "
        "diagonal systems (Born-Infeld catalog). Presets: %s"
        % ", ".join(preset_names()),
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True,
                        help="scenario JSON path or preset name")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--tol", type=float, default=None,
                        help="verification tolerance override")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
    except (ConfigError, OSError, ValueError, TypeError) as exc:
        print("richwave: config error: %s" % exc, file=sys.stderr)
        return 2
    tol = args.tol if args.tol is not None else cfg.verify_tol
    if not 0.0 < tol < np.inf:  # NaN fails, as in the config's tolerances
        print("richwave: config error: --tol must be finite and > 0, got %r" % tol,
              file=sys.stderr)
        return 2
    out = args.out if args.out is not None else cfg.output
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        print("richwave: cannot create the output directory: %s" % exc, file=sys.stderr)
        return 2

    failures = []
    try:
        _COMMANDS[args.command](cfg, out, tol, failures)
    except (OSError, ValueError) as exc:  # ConfigError and AdmissibilityError too
        print("richwave: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:  # numerical failures, MemoryError included
        failures.append("%s: %s: %s" % (args.command, type(exc).__name__, exc))
    if failures:
        payload = {"command": args.command, "failures": failures}
        with open(os.path.join(out, "failures.json"), "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print("richwave: %d verification failure(s); see failures.json"
              % len(failures), file=sys.stderr)
        return 1
    return 0


def script():
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
