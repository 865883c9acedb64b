"""richwave benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The program is imported from ``src/``.  The
set-up is timed in fresh processes, then the workload's pass runs its
minimum number of times and repeats while another pass still fits in
``--seconds``; every figure is the median over passes.  Correctness gates run outside the timed regions.  With
``--trace 1`` the run adds one traced set-up and pass and reports per-layer
metrics instead of end-to-end ones.

The last line of standard output is the result; the lines before it record
the machine, versions and per-phase times.  A copy of the result, and with
``--trace 1`` the recorded spans, are written under ``perfbench/out/``.
"""

import os

# Pin every BLAS/OpenMP pool to one thread before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_PROBES = 5


class BenchError(RuntimeError):
    """The benchmark cannot run here or the program misbehaved."""


def _program_path():
    """Put the checkout's ``src`` first on the path; refuse to run without it."""
    init = os.path.join(SRC, "richwave", "__init__.py")
    if not os.path.isfile(init):
        raise BenchError("no richwave sources at %s" % os.path.dirname(init))
    for p in (SRC, HERE):
        if p not in sys.path:
            sys.path.insert(0, p)


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed):
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _git_commit(),
        "seed": seed,
    }


def measure_setup(workload):
    """Median set-up time over fresh processes (one untimed warm-up)."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), workload]
    times = []
    for k in range(SETUP_PROBES + 1):
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=120
        )
        if proc.returncode != 0:
            raise BenchError("set-up probe failed:\n" + proc.stderr)
        if k > 0:
            times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def timed_pass(wl, index, ops):
    """One pass, its correctness gates untimed: (seconds, phases)."""
    t0 = time.perf_counter()
    phases, outputs = wl.run_pass(index, ops)
    wall = time.perf_counter() - t0
    wl.check(outputs, ops)
    return wall, phases


def run_passes(wl, seconds, ops):
    """Run ``wl.min_passes`` passes, then more while another still fits."""
    walls, phases = [], []
    start = time.perf_counter()
    while True:
        wall, pass_phases = timed_pass(wl, len(walls), ops)
        walls.append(wall)
        phases.append(pass_phases)
        elapsed = time.perf_counter() - start
        if (len(walls) >= wl.min_passes
                and elapsed + statistics.median(walls) > seconds):
            break
    merged = {k: statistics.median(p[k] for p in phases) for k in phases[0]}
    return walls, merged


def traced_pass(wl, ops):
    """One traced set-up and pass; returns (wall of the pass, tracer)."""
    import layers
    from tracer import Tracer

    modules = [m for n, m in sorted(sys.modules.items())
               if n == "richwave" or n.startswith("richwave.")]
    modules.append(sys.modules[type(wl).__module__])
    tracer = Tracer()
    with tracer:
        tracer.install(layers.targets(), modules)
        wl.build()
        t0 = time.perf_counter()
        _, outputs = wl.run_pass(-1, ops)
        wall = time.perf_counter() - t0
    wl.check(outputs, ops)
    return wall, tracer


def check_expected_calls(wl, summary):
    """Fail loudly if a layer the workload must reach recorded no calls."""
    missing = [n for n in wl.must_call if summary.get(n, {}).get("calls", 0) == 0]
    stray = [n for n in wl.must_not_call if summary.get(n, {}).get("calls", 0) > 0]
    if missing or stray:
        raise BenchError(
            "%s: expected layers not reached: %s; unexpected layers reached: %s"
            % (wl.name, missing, stray)
        )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _program_path()
    import layers
    import workloads
    from tracer import summarize

    if args.workload not in workloads.WORKLOADS:
        raise BenchError("unknown workload %r (have: %s)"
                         % (args.workload, ", ".join(workloads.WORKLOADS)))
    if not os.path.isdir(workloads.GOLDEN):
        raise BenchError("golden outputs missing at %s" % workloads.GOLDEN)
    env = environment(args.seed)
    print("# env " + json.dumps(env, sort_keys=True), flush=True)

    setup_s = None if args.trace else measure_setup(args.workload)
    os.makedirs(OUT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, work_dir)
        ops = workloads.Ops()
        wl.build()
        walls, phases = run_passes(wl, args.seconds, ops)
        wall_s = statistics.median(walls)
        print("# passes %s phases %s"
              % (json.dumps(walls), json.dumps(phases, sort_keys=True)), flush=True)
        if args.trace:
            traced_wall, tracer = traced_pass(wl, ops)
            summary = summarize(tracer, layers.CHILD_COUNTS)
            check_expected_calls(wl, summary)
            values = layers.per_layer_values(
                summary, traced_wall - wall_s, phases, ops.failed / ops.attempted
            )
            tracer.write(os.path.join(OUT, "spans-%s.npz" % args.workload))
            catalogue = layers.PER_LAYER
        else:
            values = {
                "setup_s": setup_s,
                "wall_s": wall_s,
                "peak_rss_mb":
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            catalogue = layers.END_TO_END
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for msg in ops.failures:
        print("# FAILED " + msg, flush=True)
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, (unit, _) in catalogue.items()
        },
    }
    with open(os.path.join(
        OUT, "result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    ), "w") as fh:
        json.dump({"env": env, "phases": phases, "passes": walls, **result},
                  fh, indent=1, sort_keys=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        sys.exit(2)
