#!/usr/bin/env python3
"""Exit-code pins for tools/bench_ab.py.

Builds two stub checkouts whose perfbench/run.py prints canned results
(one per call, cycling through a list) and runs the A/B tool on them as
a subprocess, asserting:

* equal results exit 0,
* a head that is faster on every one of 10 pairs exits 0 and is called
  a gain, and on only 4 pairs is not,
* a head median worse than its bound and outside the base quartiles
  exits 1,
* a head median worse than its bound but inside the base quartiles
  exits 0 and is called unresolved, and so is an equal median when the
  base's quartiles lie further apart than the bound, unless every head
  run beats every base run,
* a run that reports "correct": false exits 1,
* a run that prints no result exits 2,
* two workload names after one --workload both run,
* equal fingerprints print "identical", different ones "DIFFERENT"
  (exit status unchanged), and a run without one prints "-".

Exit status: 0 pass, 1 mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent.parent
AB = REPO / "tools" / "bench_ab.py"

SPEC = {
    "run_seconds": 1,
    "workloads": [{"name": "stub_workload"}],
    "end_to_end": [
        {"name": "wall_s", "better": "lower", "bound": 0.25},
        {"name": "throughput_per_s", "better": "higher", "bound": 0.25},
    ],
}

STUB = '''import json, pathlib, sys
root = pathlib.Path(__file__).resolve().parent.parent
runs = json.loads((root / "canned.json").read_text())
calls = root / "calls"
n = int(calls.read_text()) if calls.exists() else 0
calls.write_text(str(n + 1))
result = runs[n % len(runs)]
print("# canned perfbench result")
if result is None:
    sys.exit(1)
if "fingerprint" in result:
    print("# operations: 1 warm-up + 1 untraced + 0 traced; 1 points per "
          "operation; fingerprint " + result.pop("fingerprint"))
print(json.dumps(result))
sys.exit(0 if result["correct"] else 1)
'''


def result(wall_s: float, correct: bool = True,
           fingerprint: str | None = None) -> dict:
    canned = {"metrics": {"wall_s": {"value": wall_s, "unit": "s"},
                          "throughput_per_s": {"value": 1.0 / wall_s,
                                               "unit": "1/s"}},
              "correct": correct}
    if fingerprint is not None:
        canned["fingerprint"] = fingerprint
    return canned


def checkout(root: Path, name: str, runs: list) -> str:
    path = root / name
    (path / "perfbench").mkdir(parents=True)
    (path / "BENCHMARK.json").write_text(json.dumps(SPEC), encoding="utf-8")
    (path / "perfbench" / "run.py").write_text(STUB, encoding="utf-8")
    (path / "canned.json").write_text(json.dumps(runs), encoding="utf-8")
    return str(path)


def ab(base_runs: list, head_runs: list, pairs: int = 4,
       extra: tuple = ()) -> subprocess.CompletedProcess:
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        return subprocess.run(
            [sys.executable, str(AB), checkout(root, "base", base_runs),
             checkout(root, "head", head_runs), "--pairs", str(pairs),
             *extra],
            capture_output=True, text=True, check=False)


def says(run: subprocess.CompletedProcess, verdict: str) -> bool:
    """True when some metric row of the table ends in `verdict`."""
    return any(line.rstrip().endswith(" " + verdict)
               for line in run.stdout.splitlines())


def main() -> int:
    failures: list[str] = []

    def expect(condition: bool, label: str,
               run: subprocess.CompletedProcess) -> None:
        print(("PASS " if condition else "FAIL ") + label)
        if not condition:
            print(run.stdout + run.stderr)
            failures.append(label)

    same = ab([result(1.0)], [result(1.0)])
    expect(same.returncode == 0 and not says(same, "REGRESSION"),
           "equal results exit 0", same)

    faster = ab([result(1.0)], [result(0.5)], pairs=10)
    expect(faster.returncode == 0 and says(faster, "gain"),
           "a head faster on all of 10 pairs exits 0 and is a gain", faster)

    few = ab([result(1.0)], [result(0.5)], pairs=4)
    expect(few.returncode == 0 and not says(few, "gain"),
           "a head faster on all of 4 pairs is not yet a gain", few)

    slower = ab([result(1.0)], [result(2.0)])
    expect(slower.returncode == 1 and says(slower, "REGRESSION"),
           "a head 2x slower exits 1", slower)

    # Base medians 1.5 with quartiles 1.0 .. 2.0: a head at 1.9 is worse
    # than the 25% bound but inside the base's own spread.
    noisy = ab([result(1.0), result(2.0)], [result(1.9)])
    expect(noisy.returncode == 0 and says(noisy, "unresolved")
           and not says(noisy, "REGRESSION"),
           "a head beyond the bound but inside the base IQR exits 0 and "
           "is unresolved", noisy)

    level = ab([result(1.0), result(2.0)], [result(1.5)])
    expect(level.returncode == 0 and says(level, "unresolved"),
           "an equal median under a base spread wider than the bound is "
           "unresolved", level)

    clear = ab([result(1.0), result(2.0)], [result(0.9)])
    expect(clear.returncode == 0 and not says(clear, "unresolved"),
           "a head better on every run is not unresolved, however wide "
           "the base spread", clear)

    wrong = ab([result(1.0)], [result(1.0, correct=False)])
    expect(wrong.returncode == 1 and "correct" in wrong.stdout,
           "a run reporting correct: false exits 1", wrong)

    silent = ab([result(1.0)], [None])
    expect(silent.returncode == 2, "a run without a result exits 2", silent)

    two = ab([result(1.0)], [result(1.0)], pairs=1,
             extra=("--workload", "first_workload", "second_workload"))
    expect(two.returncode == 0 and "\nfirst_workload: 1 pairs" in two.stdout
           and "\nsecond_workload: 1 pairs" in two.stdout,
           "two names after one --workload both run", two)

    def fingerprint_line(run: subprocess.CompletedProcess) -> str:
        lines = [line.strip() for line in run.stdout.splitlines()
                 if line.strip().startswith("fingerprint: ")]
        return lines[0] if len(lines) == 1 else ""

    matched = ab([result(1.0, fingerprint="f69b31a346fcb311")],
                 [result(1.0, fingerprint="f69b31a346fcb311")])
    expect(matched.returncode == 0 and fingerprint_line(matched) ==
           "fingerprint: base f69b31a346fcb311  head f69b31a346fcb311  "
           "identical",
           "equal fingerprints print identical", matched)

    moved = ab([result(1.0, fingerprint="f69b31a346fcb311")],
               [result(1.0, fingerprint="82938a1748b81656")])
    expect(moved.returncode == 0 and fingerprint_line(moved) ==
           "fingerprint: base f69b31a346fcb311  head 82938a1748b81656  "
           "DIFFERENT",
           "different fingerprints print DIFFERENT and still exit 0", moved)

    expect(fingerprint_line(same) == "fingerprint: base -  head -  -",
           "runs without a fingerprint print -", same)

    if failures:
        print(f"\nbench_ab selftest: {len(failures)} failure(s)",
              file=sys.stderr)
        return 1
    print("\nbench_ab selftest: all checks pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
