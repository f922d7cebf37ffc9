#!/usr/bin/env python3
"""Same-runner A/B of the repository benchmark between two checkouts.

Usage:

    python3 tools/bench_ab.py BASE_DIR HEAD_DIR [--pairs 10] [--seed 1]
        [--workload NAME [NAME ...]]

BASE_DIR and HEAD_DIR are two checkouts of this repository, for example
a `git worktree` of the merge base and the working tree. For each
workload (default: every workload in HEAD_DIR/BENCHMARK.json) the script
runs `perfbench/run.py --trace 0` for BENCHMARK.json's run_seconds in
both checkouts --pairs times, alternating which side goes first so that
drift on a shared machine hits both alike. Each checkout builds its own
perfbench program on its first run. --seed picks the workload seed (a
held-out seed checks that a gain is not tuned to seed 1); --workload
reruns just the named workloads (several names may follow one
--workload, and the flag may repeat).

For every workload it also prints each side's output fingerprint (read
from perfbench's "# operations: ... fingerprint F" line; "-" for a run
that prints none, and several joined by "/" when one side's runs
disagree) and whether the two sides' are identical or DIFFERENT. This
line is informational: it never changes the exit status.

For every end-to-end metric of BENCHMARK.json it prints each side's
median and quartiles, the head/base ratio of the medians, the pairs the
head won (ties count for neither) and a verdict:

* gain -- at least 10 pairs ran, the head won at least 9 in 10 of them
  and its median beats the base median by more than the base's
  interquartile range;
* REGRESSION -- the head median is worse than the base median by more
  than the metric's bound and lies outside the base's quartiles;
* unresolved -- the base's own run-to-run spread (its interquartile
  range) is wider than the metric's bound and not every head run beats
  every base run: these runs cannot tell a change within the bound from
  none, and a head median beyond the bound but inside the base's
  quartiles lands here;
* ok -- none of these.

Exit status: 0 when nothing regressed; 1 when a metric regressed or a
run reported "correct": false; 2 on a usage error or a run that printed
no result (a failed build, say).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys

# Fewer interleaved pairs than this never support a claimed gain.
GAIN_MIN_PAIRS = 10

# perfbench's "# operations: ..." line ends in the first operation's
# output fingerprint.
FINGERPRINT = re.compile(r"^#.*\bfingerprint ([0-9a-f]+)\s*$")


def load_spec(checkout: str) -> dict:
    path = os.path.join(checkout, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        sys.exit(f"bench_ab: cannot read {path}: {err}")


def run_once(checkout: str, workload: str, seed: int,
             seconds: float) -> tuple[dict, str]:
    """One perfbench run: its JSON result and its output fingerprint ("-"
    when it prints none); exits 2 when it prints no JSON result."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
    run = subprocess.run(command, cwd=checkout, capture_output=True,
                         text=True, check=False)
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        if not isinstance(result, dict) or "metrics" not in result:
            raise ValueError("no metrics")
    except (ValueError, IndexError):
        sys.stderr.write(run.stderr[-2000:])
        print(f"bench_ab: {checkout}: {workload} exited {run.returncode} "
              f"without a result", file=sys.stderr)
        sys.exit(2)
    found = [m.group(1) for m in map(FINGERPRINT.match, lines) if m]
    return result, found[-1] if found else "-"


def fingerprints(base: list[str], head: list[str]) -> str:
    """Both sides' fingerprints (each side's distinct values in the order
    first seen) and whether they match."""
    sides = ["/".join(dict.fromkeys(runs)) for runs in (base, head)]
    if sides[0] != sides[1]:
        verdict = "DIFFERENT"
    else:
        verdict = "-" if "-" in sides[0].split("/") else "identical"
    return f"base {sides[0]}  head {sides[1]}  {verdict}"


def quantile(values: list[float], q: float) -> float:
    """Linear interpolation between the closest ranks (inclusive)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def judge(metric: dict, base: list[float], head: list[float]) -> tuple:
    """Returns (summary cells, regressed) for one metric."""
    lower = metric["better"] == "lower"
    b_med, h_med = quantile(base, 0.5), quantile(head, 0.5)
    b_q1, b_q3 = quantile(base, 0.25), quantile(base, 0.75)
    won = sum(1 for b, h in zip(base, head) if (h < b if lower else h > b))
    bound = metric["bound"]
    if lower:
        regressed = h_med > b_med * (1.0 + bound) and h_med > b_q3
        margin = b_med - h_med
        all_better = max(head) < min(base)
    else:
        regressed = h_med < b_med * (1.0 - bound) and h_med < b_q1
        margin = h_med - b_med
        all_better = min(head) > max(base)
    gain = (len(base) >= GAIN_MIN_PAIRS and 10 * won >= 9 * len(base)
            and margin > b_q3 - b_q1)
    wide = b_q3 - b_q1 > bound * abs(b_med)
    if regressed:
        verdict = "REGRESSION"
    elif gain:
        verdict = "gain"
    else:
        verdict = "unresolved" if wide and not all_better else "ok"
    ratio = h_med / b_med if b_med != 0.0 else float("nan")
    cells = (
        f"{b_med:.6g} [{b_q1:.6g} .. {b_q3:.6g}]",
        f"{h_med:.6g} [{quantile(head, 0.25):.6g} .. "
        f"{quantile(head, 0.75):.6g}]",
        f"{ratio:.3f}x",
        f"{won}/{len(base)}",
        verdict,
    )
    return cells, regressed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_dir")
    parser.add_argument("head_dir")
    parser.add_argument("--pairs", type=int, default=GAIN_MIN_PAIRS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="extend", nargs="+",
                        default=None)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    for checkout in (args.base_dir, args.head_dir):
        if not os.path.isfile(os.path.join(checkout, "perfbench", "run.py")):
            parser.error(f"{checkout} has no perfbench/run.py")

    spec = load_spec(args.head_dir)
    seconds = spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    regressions = unresolved = 0
    for workload in workloads:
        runs = {"base": [], "head": []}
        prints = {"base": [], "head": []}
        for pair in range(args.pairs):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for side in order:
                checkout = args.base_dir if side == "base" else args.head_dir
                result, fingerprint = run_once(checkout, workload, args.seed,
                                               seconds)
                if result.get("correct") is not True:
                    print(f"bench_ab: {side} run of {workload} (pair "
                          f"{pair + 1}) reported \"correct\": false")
                    return 1
                runs[side].append(result["metrics"])
                prints[side].append(fingerprint)

        print(f"\n{workload}: {args.pairs} pairs of {seconds:g} s runs, "
              f"seed {args.seed}")
        if args.pairs < GAIN_MIN_PAIRS:
            print(f"  (fewer than {GAIN_MIN_PAIRS} pairs: no gain verdicts)")
        print("  fingerprint: " + fingerprints(prints["base"], prints["head"]))
        header = ("metric", "base median [q1 .. q3]",
                  "head median [q1 .. q3]", "head/base", "won", "verdict")
        rows = [header]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base = [m[name]["value"] for m in runs["base"]]
            head = [m[name]["value"] for m in runs["head"]]
            cells, regressed = judge(metric, base, head)
            regressions += regressed
            unresolved += cells[-1] == "unresolved"
            rows.append((name, *cells))
        widths = [max(len(row[c]) for row in rows) for c in range(len(header))]
        for row in rows:
            print("  " + "  ".join(cell.ljust(width)
                                   for cell, width in zip(row, widths)).rstrip())

    if regressions:
        print(f"\nbench_ab: {regressions} metric(s) regressed")
        return 1
    note = f"; {unresolved} metric(s) unresolved" if unresolved else ""
    print(f"\nbench_ab: no regression{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
