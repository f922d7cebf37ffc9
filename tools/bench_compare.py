#!/usr/bin/env python3
"""Compare BENCH_<name>.json telemetry records against a committed baseline.

Usage:

    python3 tools/bench_compare.py BASELINE CURRENT [BASELINE CURRENT ...]

Each (BASELINE, CURRENT) pair is a schema "braidio-bench/v1" record
(sim/bench_telemetry.hpp). Fields split into three classes:

* Deterministic fields — schema, name, points, delivered bits/J,
  counters, and the top energy attributions — are the simulation's
  contract. They must match the baseline exactly (strings, counters) or
  within a relative TOL_REL (floats; 1e-6, room for libm variation
  across toolchains, nothing more).

* Performance fields — wall_seconds and points_per_second — vary with
  the machine, so they never fail the comparison: a ratio beyond
  PERF_FACTOR (8x) either way is printed as a note. A timing verdict
  needs both builds on one machine, which is tools/bench_ab.py's job.
  `threads` is machine-dependent and only reported, never compared.

* Soft fields — the optional "soft" object (e.g. the network benches'
  scheduler introspection: events/sec, calendar re-tunes, peak queue
  depth) — are report-only telemetry. Drifts are printed as notes but
  never fail the comparison, so benches can grow instrumentation
  without baseline churn.

Exit code 1 on any deterministic mismatch or an unreadable record, 2 on
a usage error, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys

# Relative tolerance for the deterministic float fields.
TOL_REL = 1e-6
# Wall-time / throughput ratio beyond which a drift is noted.
PERF_FACTOR = 8.0


def load(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"bench_compare: cannot read {path}: {e}")
    if not isinstance(doc, dict):
        sys.exit(f"bench_compare: {path}: expected a JSON object")
    return doc


def rel_close(a: float, b: float) -> bool:
    if a == b:  # covers exact zeros
        return True
    return abs(a - b) <= TOL_REL * max(abs(a), abs(b))


class Comparison:
    """Accumulates findings for one (baseline, current) pair."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.findings: list[str] = []
        self.notes: list[str] = []

    def fail(self, message: str) -> None:
        self.findings.append(message)

    def note(self, message: str) -> None:
        self.notes.append(message)

    def check_equal(self, field: str, base, cur) -> None:
        if base != cur:
            self.fail(f"{field}: baseline {base!r} != current {cur!r}")

    def check_rel(self, field: str, base, cur) -> None:
        if base is None and cur is None:  # NaN renders as null
            return
        if base is None or cur is None:
            self.fail(f"{field}: baseline {base!r} vs current {cur!r}")
            return
        if not rel_close(float(base), float(cur)):
            self.fail(f"{field}: baseline {base} vs current {cur} "
                      f"(rel tol {TOL_REL})")

    def note_ratio(self, field: str, base, cur) -> None:
        base, cur = float(base), float(cur)
        if base <= 0.0 or cur <= 0.0:
            return  # sub-resolution timings carry no signal
        ratio = cur / base
        if ratio > PERF_FACTOR or ratio < 1.0 / PERF_FACTOR:
            self.note(f"{field}: {cur:.6g} is {ratio:.2f}x the baseline "
                      f"{base:.6g} (beyond {PERF_FACTOR}x; report-only)")


def compare(base: dict, cur: dict) -> Comparison:
    c = Comparison(str(base.get("name", "?")))

    for field in ("schema", "name", "points"):
        c.check_equal(field, base.get(field), cur.get(field))

    c.check_rel("delivered_bits_per_joule",
                base.get("delivered_bits_per_joule"),
                cur.get("delivered_bits_per_joule"))

    base_counters = base.get("counters", {})
    cur_counters = cur.get("counters", {})
    for key in sorted(set(base_counters) | set(cur_counters)):
        c.check_equal(f"counters.{key}", base_counters.get(key),
                      cur_counters.get(key))

    base_tops = {t["path"]: t["joules"]
                 for t in base.get("top_attributions", [])}
    cur_tops = {t["path"]: t["joules"]
                for t in cur.get("top_attributions", [])}
    c.check_equal("top_attributions.paths", sorted(base_tops),
                  sorted(cur_tops))
    for path in sorted(set(base_tops) & set(cur_tops)):
        c.check_rel(f"top_attributions[{path}].joules", base_tops[path],
                    cur_tops[path])

    for field in ("wall_seconds", "points_per_second"):
        c.note_ratio(field, base.get(field, 0.0), cur.get(field, 0.0))

    # Soft fields: report-only. Print what moved (or appeared/vanished)
    # so a reviewer sees scheduler drift, but never fail on it.
    base_soft = base.get("soft", {})
    cur_soft = cur.get("soft", {})
    for key in sorted(set(base_soft) | set(cur_soft)):
        b, k = base_soft.get(key), cur_soft.get(key)
        if b is None:
            c.note(f"soft.{key}: new field (current {k})")
        elif k is None:
            c.note(f"soft.{key}: dropped (baseline {b})")
        elif not rel_close(float(b), float(k)):
            c.note(f"soft.{key}: baseline {b} vs current {k} "
                   f"(report-only)")
    return c


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("files", nargs="+", metavar="BASELINE CURRENT",
                        help="alternating baseline/current record paths")
    args = parser.parse_args()

    if len(args.files) % 2 != 0:
        parser.error("need an even number of paths "
                     "(BASELINE CURRENT pairs)")

    failed = False
    for base_path, cur_path in zip(args.files[0::2], args.files[1::2]):
        c = compare(load(base_path), load(cur_path))
        if c.findings:
            failed = True
            print(f"[bench_compare] {c.name}: {len(c.findings)} "
                  f"mismatch(es) ({base_path} vs {cur_path})")
            for finding in c.findings:
                print(f"  - {finding}")
        else:
            print(f"[bench_compare] {c.name}: OK "
                  f"({base_path} vs {cur_path})")
        for note in c.notes:
            print(f"  ~ {note}")

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
