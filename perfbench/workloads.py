"""The benchmark's workloads: set-up, one timed pass, and correctness gates.

``run_pass`` returns the pass's phase times and its outputs; ``check`` runs
the correctness gates on those outputs, outside the timed region.

Every workload runs single-threaded as a closed loop: one caller issues the
next call only after the previous one returned.  Library calls go through
module attributes (``rw.solve``, ``cli.main``) so that a tracer installed
after import sees them.

* ``cli-presets``: ``richwave.cli.main`` on the shipped presets, as users run
  it (Born-Infeld closed-form position map, quadrature-driven experiments).
* ``generic-three-speed``: the library API on a rich system without
  Born-Infeld structure, the only path through ``position_quadrature``.
* ``eval-batch``: ``evaluate`` alone on seeded query sets at batch sizes
  1, 16, 1024 and 16384 (Chebyshev tables and Newton inversion, no
  quadrature).
"""

import hashlib
import os
import shutil
import time

import numpy as np

import richwave as rw
from richwave import cli, config
from richwave.maps import InversionError
from richwave.quadrature import QuadratureError

NUMERICAL_ERRORS = (InversionError, QuadratureError)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden", "bi-two-ramp")


class Ops:
    """Attempted and failed operations, with a message per failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    @property
    def failed(self):
        return len(self.failures)

    def check(self, ok, message):
        """Count one correctness gate."""
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    def call(self, what, fn, *args):
        """Count one operation; a numerical failure is recorded, not raised."""
        self.attempted += 1
        try:
            return fn(*args)
        except NUMERICAL_ERRORS as exc:
            self.failures.append("%s: %s: %s" % (what, type(exc).__name__, exc))
            return None


def three_speed_system():
    """Rich system with speeds (-1, 0.5, 2): affine 1/N and M/N.

    With 1/N = b0 + b.w and M/N = g0 + g.w, linear degeneracy of every
    family forces g_i = -speed_i * b_i.  No Born-Infeld structure, so the
    position map falls back to the per-point time quadrature.
    """
    speeds = np.array([-1.0, 0.5, 2.0])
    b0 = 1.0
    b = np.array([0.10, 0.15, -0.08])
    g0 = 0.3
    g = -speeds * b

    def inv_density(w):
        return b0 + np.sum(w * b, axis=-1)

    def density(w):
        return 1.0 / inv_density(w)

    def flux(w):
        return (g0 + np.sum(w * g, axis=-1)) * density(w)

    def admissible(w):
        return inv_density(w) > 0.05

    return rw.RichSystem(
        "three-speed-demo",
        tuple(rw.Family(s, (i,)) for i, s in enumerate(speeds)),
        density,
        flux,
        admissible,
        admissibility_note="1/N > 0.05",
    )


def three_speed_profile():
    x = [-1.0, -0.5, 0.0, 0.5, 1.0]
    vals = [
        [0.0, 0.0, 0.0],
        [0.4, 0.0, -0.3],
        [0.0, 0.5, 0.2],
        [-0.3, 0.0, 0.0],
        [0.0, 0.0, 0.0],
    ]
    return rw.PiecewiseProfile(x, np.array(vals))


def timed_call(phases, phase, ops, what, fn, *args):
    """``ops.call`` whose duration is added to ``phases[phase]``."""
    t0 = time.perf_counter()
    out = ops.call(what, fn, *args)
    phases[phase] = phases.get(phase, 0.0) + time.perf_counter() - t0
    return out


def solve_config(cfg):
    return rw.solve(cfg.system, cfg.profile, quad_tol=cfg.quad_tol, inv_tol=cfg.inv_tol)


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read_csv(path):
    with open(path) as fh:
        rows = [line.rstrip("\n").split(",") for line in fh]
    return rows[0], rows[1:]


def golden_mismatches(out_dir, golden_dir=GOLDEN, atol=1e-8):
    """Files of ``out_dir`` that differ from the golden CSVs beyond ``atol``."""
    bad = []
    for name in sorted(os.listdir(golden_dir)):
        path = os.path.join(out_dir, name)
        if not os.path.exists(path):
            bad.append(name + " (missing)")
            continue
        got_header, got_rows = _read_csv(path)
        want_header, want_rows = _read_csv(os.path.join(golden_dir, name))
        same = got_header == want_header and len(got_rows) == len(want_rows)
        for g, w in zip(got_rows, want_rows) if same else ():
            for gv, wv in zip(g, w):
                try:
                    same &= abs(float(gv) - float(wv)) <= atol
                except ValueError:
                    same &= gv == wv
        if not same:
            bad.append(name)
    return bad


PHASES_OF_CLI = ("solve_s", "plateau_s", "asymptotics_s", "stability_s")


class CliPresets:
    """Every CLI command on bi-two-ramp and every applicable one on abi-middle."""

    name = "cli-presets"
    # Two passes, so every output file can be compared between repetitions.
    min_passes = 2
    presets = ("bi-two-ramp", "abi-middle")
    commands = (
        ("bi-two-ramp", "solve"),
        ("bi-two-ramp", "plateau"),
        ("bi-two-ramp", "asymptotics"),
        ("bi-two-ramp", "stability"),
        ("bi-two-ramp", "oracle"),
        ("bi-two-ramp", "validate"),
        ("abi-middle", "solve"),
        ("abi-middle", "plateau"),
        ("abi-middle", "asymptotics"),
        ("abi-middle", "oracle"),
        ("abi-middle", "validate"),
    )
    must_call = (
        "cli.cmd_solve", "cli.cmd_plateau", "cli.cmd_asymptotics",
        "cli.cmd_stability", "cli.cmd_oracle", "cli.cmd_validate",
        "config.load_config", "solver.box_residuals", "quadrature.integrate",
        "asymptotics.build_shape", "asymptotics.decay_curve",
        "stability.pair_distance", "fv.run",
    )
    must_not_call = ("solver.position_quadrature",)

    def __init__(self, seed, work_dir):
        self.work_dir = work_dir
        self.hashes = None

    def build(self):
        for preset in self.presets:
            solve_config(config.load_config(preset))

    def run_pass(self, index, ops):
        out_root = os.path.join(self.work_dir, "pass%d" % index)
        phases = {}
        codes = []
        for preset, command in self.commands:
            argv = [command, "--config", preset, "--out",
                    os.path.join(out_root, preset, command)]
            codes.append(timed_call(
                phases, command + "_s", ops, "cli %s %s" % (command, preset),
                cli.main, argv,
            ))
        phases = {k: phases[k] for k in PHASES_OF_CLI}
        return phases, (out_root, codes)

    def check(self, outputs, ops):
        out_root, codes = outputs
        for (preset, command), rc in zip(self.commands, codes):
            failures = os.path.join(out_root, preset, command, "failures.json")
            ops.check(
                rc == 0 and not os.path.exists(failures),
                "cli %s %s: exit %s or failures.json written" % (command, preset, rc),
            )
        bad = golden_mismatches(os.path.join(out_root, "bi-two-ramp", "solve"))
        ops.check(not bad, "bi-two-ramp solve differs from golden: %s" % bad)
        hashes = {}
        for dirpath, _, files in os.walk(out_root):
            for f in files:
                path = os.path.join(dirpath, f)
                hashes[os.path.relpath(path, out_root)] = _sha256(path)
        if self.hashes is None:
            self.hashes = hashes
        else:
            changed = sorted(
                k for k in set(hashes) | set(self.hashes)
                if hashes.get(k) != self.hashes.get(k)
            )
            ops.check(not changed, "outputs differ between passes: %s" % changed)
        shutil.rmtree(out_root)


class GenericThreeSpeed:
    """Library API on the three-speed system (no closed-form position map)."""

    name = "generic-three-speed"
    # One 15 s pass is a short sample of a machine whose speed drifts; two
    # average over twice the time.
    min_passes = 2
    grid = np.linspace(-6.0, 16.0, 33)
    grid_times = (0.5, 2.0, 6.0)
    box = (0.0, 1.0, -1.5, 1.5)
    must_call = (
        "solver.solve", "solver.position_quadrature", "solver.box_residuals",
        "plateau.wave_pattern", "plateau.verify_pattern", "quadrature.integrate",
    )
    must_not_call = ("asymptotics.build_shape", "fv.run", "config.load_config")

    def __init__(self, seed, work_dir):
        rng = np.random.default_rng(seed)
        # Points for the t = 0 gate, drawn over the profile support and tails.
        self.gate_x = rng.uniform(-2.0, 2.0, 64)
        self.grid_values = None

    def build(self):
        rw.solve(three_speed_system(), three_speed_profile())

    def run_pass(self, index, ops):
        phases = {}
        sol = rw.solve(three_speed_system(), three_speed_profile())
        values = []
        for t in self.grid_times:
            values.append(timed_call(phases, "solve_s", ops, "evaluate t=%g" % t,
                                     sol.evaluate, t, self.grid))
        residuals = timed_call(phases, "solve_s", ops, "box_residuals",
                               sol.box_residuals, self.box)
        pattern = timed_call(phases, "plateau_s", ops, "wave_pattern",
                             rw.wave_pattern, sol)
        report = timed_call(phases, "plateau_s", ops, "verify_pattern",
                            rw.verify_pattern, sol, pattern,
                            1.1 * pattern.settling_time)
        return phases, (sol, values, residuals, report)

    def check(self, outputs, ops):
        sol, values, residuals, report = outputs
        if self.grid_values is None:
            self.grid_values = values
        else:
            ops.check(
                all(
                    a is not None and b is not None and np.array_equal(a, b)
                    for a, b in zip(values, self.grid_values)
                ),
                "grid values differ between passes",
            )
        if residuals is not None:
            cons, entropies = residuals
            worst = max((cons,) + tuple(entropies))
            ops.check(worst <= 1e-8, "box residual %.3e > 1e-8" % worst)
        if report is not None:
            ops.check(report.passed, "verify_pattern failed")
        w0 = ops.call("evaluate t=0", sol.evaluate, 0.0, self.gate_x)
        if w0 is not None:
            err = float(np.max(np.abs(w0 - sol.initial(self.gate_x))))
            ops.check(err <= 1e-10, "evaluate(0, x) differs from profile by %.3e" % err)


class EvalBatch:
    """``evaluate`` on the bi-two-ramp solution at four batch sizes.

    Each call draws one t uniformly from [0, 10] (stratified over the calls
    of a size, so every run covers the time range evenly) and its x uniformly
    from [-12, 12].  Call counts give every size a comparable share of the
    pass.
    """

    name = "eval-batch"
    min_passes = 1
    sizes = ((1, 1024), (16, 256), (1024, 64), (16384, 16))
    gate_calls = 8
    gate_points = 256
    must_call = (
        "config.load_config", "solver.evaluate", "solver.lagrangian_coordinate",
        "cheb.PiecewiseCheb.__call__",
    )
    must_not_call = (
        "solver.position_quadrature", "asymptotics.build_shape",
        "quadrature.integrate",
    )

    def __init__(self, seed, work_dir):
        rng = np.random.default_rng(seed)
        self.queries = {}
        for size, calls in self.sizes:
            ts = 10.0 * (rng.permutation(calls) + rng.uniform(size=calls)) / calls
            xs = rng.uniform(-12.0, 12.0, (calls, size))
            self.queries[size] = list(zip(ts, xs))
        self.sol = None

    def build(self):
        self.sol = solve_config(config.load_config("bi-two-ramp"))

    def run_pass(self, index, ops):
        sol = self.sol
        phases = {}
        kept = []
        for size, _ in self.sizes:
            phase, what = "eval_b%d_ms" % size, "evaluate b%d" % size
            calls = self.queries[size]
            step = max(1, len(calls) // self.gate_calls)
            for k, (t, x) in enumerate(calls):
                w = timed_call(phases, phase, ops, what, sol.evaluate, t, x)
                if index == 0 and k % step == 0 and w is not None:
                    kept.append((t, x[: self.gate_points], w[: self.gate_points]))
            phases[phase] *= 1e3 / len(calls)
        return phases, kept

    def check(self, kept, ops):
        sol = self.sol
        for t, x, w in kept:
            z = ops.call("lagrangian_coordinate", sol.lagrangian_coordinate, t, x)
            if z is None:
                continue
            err = float(np.max(np.abs(sol.position_closed_form(t, z) - x)))
            ops.check(err <= 1e-9, "|X(t, Z(t,x)) - x| = %.3e > 1e-9 at t=%g" % (err, t))
            gap = float(np.max(np.abs(sol.state_lagrangian(t, z) - w)))
            ops.check(gap <= 1e-12,
                      "evaluate differs from w0(X0(Z - speed t)) by %.3e" % gap)


WORKLOADS = {w.name: w for w in (CliPresets, GenericThreeSpeed, EvalBatch)}
