#!/usr/bin/env python3
"""Run the benchmark repeatedly and record medians, quartiles and spreads.

    python3 perfbench/collect.py --runs 10 --first-seed 101 \
        --out perfbench/results/seed.json [--workloads mix,fig9_stream]

For each workload (default: every one in BENCHMARK.json) this runs
perfbench/run.py --runs times with consecutive seeds and --trace 0, then
once with --trace 1. It prints, per end-to-end metric, the median, the
quartiles (statistics.quantiles, n=4) and the spread (interquartile
distance over the median) next to the metric's bound, and writes all of
it, with host facts (nproc, compiler, build type), to --out.
"""

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"collect: {' '.join(cmd)} exited "
                         f"{proc.returncode}")
    return json.loads(proc.stdout.rstrip("\n").split("\n")[-1])


def compiler():
    try:
        out = subprocess.run(["c++", "--version"], stdout=subprocess.PIPE,
                             text=True).stdout
        return out.split("\n")[0]
    except OSError:
        return "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    record = {
        "host": {"nproc": os.cpu_count(), "compiler": compiler(),
                 "build_type": "Release", "machine": platform.machine(),
                 "date": datetime.date.today().isoformat()},
        "run_seconds": spec["run_seconds"],
        "seeds": [args.first_seed + i for i in range(args.runs)],
        "workloads": {},
    }
    for w in workloads:
        runs = [run_once(w, seed, spec["run_seconds"], False)
                for seed in record["seeds"]]
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q = statistics.quantiles(values, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            summary[name] = {"unit": runs[0]["metrics"][name]["unit"],
                             "median": med, "q1": q[0], "q3": q[2],
                             "spread": spread, "values": values}
            print(f"{w:12s} {name:28s} median={med:<12.6g} "
                  f"spread={spread:.4f} bound={bounds.get(name)}",
                  flush=True)
        traced = run_once(w, args.first_seed, spec["run_seconds"], True)
        record["workloads"][w] = {
            "end_to_end": summary,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "per_layer": {n: m["value"]
                          for n, m in traced["metrics"].items()},
        }
        print(f"{w:12s} correct={record['workloads'][w]['correct']} "
              f"failed={record['workloads'][w]['failed']}", flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
