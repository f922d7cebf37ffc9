#!/usr/bin/env python3
"""Exit-code pins for tools/netreport.py.

Runs the report as a subprocess on a committed braidio-netstats/v2
export (`braidio_cli net --topology=grid --nodes=24 --mac=tdma
--packets=2`) and on malformed inputs, and asserts:

* the committed export exits 0 and prints every view, alone and with a
  flow trace that has no packet events,
* non-JSON, a v1 schema, a v2 record without its columns, and a bad
  --trace file each exit 2 with one line on stderr and no traceback.

Exit status: 0 pass, 1 mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent.parent
NETREPORT = REPO / "tools" / "netreport.py"
EXPORT = REPO / "tests" / "tools" / "netstats_grid_tdma.json"


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(NETREPORT), *args],
        capture_output=True, text=True, check=False)


def main() -> int:
    failures: list[str] = []

    def expect(condition: bool, label: str) -> None:
        print(("PASS " if condition else "FAIL ") + label)
        if not condition:
            failures.append(label)

    def expect_malformed(result: subprocess.CompletedProcess,
                         label: str) -> None:
        lines = result.stderr.splitlines()
        expect(result.returncode == 2 and len(lines) == 1 and
               lines[0].startswith("netreport: "),
               f"{label} exits 2 with one stderr line "
               f"(got {result.returncode}: {result.stderr.strip()!r})")

    good = run(str(EXPORT))
    expect(good.returncode == 0 and not good.stderr,
           "committed v2 export exits 0")
    for view in ("top talkers", "per-hop loss tree",
                 "TDMA slot utilization"):
        expect(view in good.stdout, f"report prints the {view} view")

    with tempfile.TemporaryDirectory() as scratch:
        def write(name: str, text: str) -> str:
            path = Path(scratch) / name
            path.write_text(text, encoding="utf-8")
            return str(path)

        empty_trace = write("empty_trace.json",
                            json.dumps({"traceEvents": []}))
        traced = run(str(EXPORT), "--trace", empty_trace)
        expect(traced.returncode == 0 and "packet lifecycle" in traced.stdout,
               "export with a valid trace exits 0")

        expect_malformed(run(write("not_json.json", "{not json")),
                         "non-JSON input")
        expect_malformed(
            run(write("v1.json", json.dumps(
                {"schema": "braidio-netstats/v1", "enabled": True}))),
            "v1 schema")
        expect_malformed(
            run(write("no_columns.json", json.dumps(
                {"schema": "braidio-netstats/v2", "enabled": True,
                 "nodes": 3}))),
            "v2 record without columns")
        expect_malformed(run(str(EXPORT), "--trace",
                             write("bad_trace.json", "[1, 2")),
                         "bad --trace file")

    if failures:
        print(f"netreport selftest: {len(failures)} failure(s)")
        return 1
    print("netreport selftest: all checks pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
