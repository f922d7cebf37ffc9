#!/usr/bin/env python3
"""Build and run the braidio repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the library and the perfbench program
from source into .bench_build/perfbench (CMake, RelWithDebInfo), runs one
workload, and passes the program's report through: lines starting with '#'
are for people, and the last line of standard output is the JSON result.
With --trace 1 the spans of the traced operations are written to
.bench_build/perfbench/trace_<workload>.json (Chrome trace format).

The exit code is non-zero, and no result is printed, when the build fails
or the program's metrics do not match BENCHMARK.json; it is also non-zero
when an output check fails (the result then says "correct": false).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("star_csma_dense", "grid_tdma_relay", "fluid_sweep")
DRIVER_TIMEOUT_S = 170


def build():
    """Configure (once per checkout) and build the perfbench program."""
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache, encoding="utf-8") as f:
            home = [line for line in f
                    if line.startswith("CMAKE_HOME_DIRECTORY")]
        if not home or home[0].strip().split("=", 1)[1] != HERE:
            shutil.rmtree(BUILD)  # configured for another checkout
    if not os.path.exists(cache):
        try:
            subprocess.run(
                ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                stdout=sys.stderr, check=True)
        except subprocess.CalledProcessError:
            shutil.rmtree(BUILD, ignore_errors=True)  # retry from scratch
            raise
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "perfbench")


def expected_metrics(trace):
    """Metric names BENCHMARK.json lists for this kind of run, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    try:
        program = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    command = [program, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out",
                    os.path.join(BUILD, f"trace_{args.workload}.json")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=DRIVER_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: timed out", file=sys.stderr)
        return 1

    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stderr.write(run.stdout)
        print(f"perfbench: exited {run.returncode} without a result",
              file=sys.stderr)
        return 1
    expected = expected_metrics(args.trace)
    if expected is not None and sorted(expected) != sorted(result["metrics"]):
        print("perfbench: metrics do not match BENCHMARK.json",
              file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
