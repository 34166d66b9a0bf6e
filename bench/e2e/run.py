#!/usr/bin/env python3
"""Builds bench_e2e from source and runs one workload.

    python3 bench/e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from any directory; paths resolve against the repository root two levels
above this file. The build (CMake, Release) lives in .bench_build/e2e and is
incremental, so only the first run of a checkout compiles. Build output goes
to standard error; standard output carries the benchmark's own report, whose
last line is the JSON summary. That line is checked against BENCHMARK.json
(same metric names and units) before it is printed. Result files, the Chrome
trace of traced runs and serve-drift's state directory go to
.bench_build/e2e-results.

Exits 2 without a result when the idxsel sources are missing or the build
fails, 1 when the benchmark's output checks fail.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
RESULTS = os.path.join(ROOT, ".bench_build", "e2e-results")


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no idxsel sources at " + ROOT)
    # Compiler scratch files stay inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "bench_e2e",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "bench_e2e")


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    entries = spec["per_layer"] if trace else spec["end_to_end"]
    return {e["name"]: e["unit"] for e in entries}


def summary_matches(line, trace):
    try:
        summary = json.loads(line)
    except ValueError:
        return False
    if set(summary) != {"correct", "attempted", "failed", "metrics"}:
        return False
    reported = {k: v.get("unit") for k, v in summary["metrics"].items()}
    return reported == expected_metrics(trace)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    binary = build()
    os.makedirs(RESULTS, exist_ok=True)
    run = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace,
         "--out-dir", RESULTS],
        stdout=subprocess.PIPE, text=True)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode not in (0, 1) or not summary_matches(
            lines[-1], args.trace == "1"):
        sys.stderr.write(run.stdout)
        fail("bench_e2e exited %d without a summary matching BENCHMARK.json"
             % run.returncode)
    sys.stdout.write(run.stdout)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
