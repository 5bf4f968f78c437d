#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload mix --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --workload mix --write-reference

Run from the root of a source checkout. The benchmark package
(perfbench/CMakeLists.txt) is configured and built in Release mode under
$CARGO_TARGET_DIR (default .bench_build), then the perfbench binary runs
the workload. Its last stdout line is a JSON object with every metric it
measured; this wrapper echoes the rest of its output and prints, as its
own last line, the same object cut down to the metrics BENCHMARK.json
lists for the mode (end_to_end for --trace 0, per_layer for --trace 1).
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    configured = any(os.path.exists(os.path.join(out, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr; stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def listed_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv):
    out = build_dir()
    if not build(out):
        return 1

    if "--selftest" in argv:
        return subprocess.run([os.path.join(out, "perfbench_selftest")],
                              cwd=out).returncode

    trace = False
    if "--trace" in argv:
        i = argv.index("--trace")
        trace = i + 1 < len(argv) and argv[i + 1] != "0"
    scratch = os.path.join(out, "scratch")
    os.makedirs(scratch, exist_ok=True)
    cmd = [os.path.join(out, "perfbench"), *argv,
           "--ref-dir", os.path.join(HERE, "reference"),
           "--scratch", scratch]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"timed out after {RUN_TIMEOUT_S} s")
        return 1
    if proc.returncode != 0:
        sys.stdout.write(stdout)
        log(f"benchmark exited with {proc.returncode}")
        return 1
    if "--write-reference" in argv:
        sys.stdout.write(stdout)
        return 0

    lines = stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    metrics = result["metrics"]
    missing = [n for n in listed_metrics(trace) if n not in metrics]
    if missing:
        log("BENCHMARK.json lists metrics this run did not produce: "
            + ", ".join(missing))
        return 1
    result["metrics"] = {n: metrics[n] for n in listed_metrics(trace)}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
