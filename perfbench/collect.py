"""Run every workload on several seeds and summarize the spread.

    python3 perfbench/collect.py [--runs 10] [--first-seed 1] [--workload NAME ...]
                                 [--traced] [--write perfbench/baseline.json]

Runs ``run.py`` once per (workload, seed), one after another, with the
``run_seconds`` of ``BENCHMARK.json``.  For each end-to-end metric it prints
the median and the interquartile distance as a share of the median (Python's
``statistics.quantiles(values, n=4)``), the figure a metric's ``bound`` must
exceed.  ``--traced`` adds one traced run per workload; ``--write`` stores
the summary as a baseline.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError("%s failed:\n%s" % (" ".join(cmd), proc.stderr))
    lines = proc.stdout.strip().splitlines()
    env = json.loads(lines[0][len("# env "):])
    phases = json.loads(lines[1].split(" phases ", 1)[1])
    return env, phases, json.loads(lines[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / statistics.median(values)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--write")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    summary = {"run_seconds": bench["run_seconds"], "seeds": seeds, "workloads": {}}
    for wl in names:
        runs = [run_once(bench, wl, s, 0) for s in seeds]
        summary["env"] = {k: v for k, v in runs[0][0].items() if k != "seed"}
        entry = {"correct": all(r[2]["correct"] for r in runs), "end_to_end": {},
                 "phases": {}}
        for name in bounds:
            values = [r[2]["metrics"][name]["value"] for r in runs]
            entry["end_to_end"][name] = dict(spread(values), values=values)
            print("%-20s %-12s median %10.4f  iqr/median %.4f  (bound %.2f)" % (
                wl, name, entry["end_to_end"][name]["median"],
                entry["end_to_end"][name]["iqr_share"], bounds[name]), flush=True)
        for name in runs[0][1]:
            entry["phases"][name] = statistics.median(r[1][name] for r in runs)
        if args.traced:
            traced = run_once(bench, wl, seeds[0], 1)[2]
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        summary["workloads"][wl] = entry
    if args.write:
        with open(args.write, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
