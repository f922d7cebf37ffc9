#!/usr/bin/env python3
"""Exit-code pins for tools/bench_compare.py.

Runs the comparator as a subprocess, exactly as CI does, on a committed
baseline and on perturbed copies of it, and asserts:

* a baseline compared with itself exits 0,
* a bumped counter exits 1 (a deterministic field is a hard gate),
* wall_seconds x100 exits 0 and is noted (machine-dependent ratios are
  report-only).

Exit status: 0 pass, 1 mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent.parent
COMPARE = REPO / "tools" / "bench_compare.py"
BASELINE = REPO / "bench" / "baselines" / "BENCH_net_dense.json"


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(COMPARE), *args],
        capture_output=True, text=True, check=False)


def main() -> int:
    failures: list[str] = []

    def expect(condition: bool, label: str) -> None:
        print(("PASS " if condition else "FAIL ") + label)
        if not condition:
            failures.append(label)

    base = json.loads(BASELINE.read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory() as scratch:
        def variant(name: str, doc: dict) -> str:
            path = Path(scratch) / name
            path.write_text(json.dumps(doc), encoding="utf-8")
            return str(path)

        same = run(str(BASELINE), str(BASELINE))
        expect(same.returncode == 0, "baseline vs itself exits 0")

        bumped = json.loads(json.dumps(base))
        bumped["counters"]["net_events"] += 1
        bumped_path = variant("bumped_counter.json", bumped)
        hard = run(str(BASELINE), bumped_path)
        expect(hard.returncode == 1 and "counters.net_events" in hard.stdout,
               "a bumped counter exits 1")

        slow = json.loads(json.dumps(base))
        slow["wall_seconds"] *= 100.0
        slow_path = variant("slow_wall.json", slow)
        noted = run(str(BASELINE), slow_path)
        expect(noted.returncode == 0 and "wall_seconds" in noted.stdout,
               "wall_seconds x100 exits 0 and is noted")

    if failures:
        print(f"\nbench_compare selftest: {len(failures)} failure(s)",
              file=sys.stderr)
        return 1
    print("\nbench_compare selftest: all checks pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
