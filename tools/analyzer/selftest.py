#!/usr/bin/env python3
"""Regression-test the analyzer rules against the fixture suite.

Every fixture under fixtures/ declares its expected findings with
`// expect: <rule-id>` comments; this driver runs the full rule set
over the fixtures and compares the per-file multiset of rule ids
(line-insensitive, so fixtures stay editable). It also asserts the
coverage floor from ISSUE 6: at least two known-bad examples per rule
family A1-A8.

Exit status: 0 pass, 1 fixture mismatch, 2 internal error.
"""

from __future__ import annotations

import collections
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import backend_lexical  # noqa: E402
import cpp_source  # noqa: E402
import rules  # noqa: E402
import suppress  # noqa: E402

REPO = Path(__file__).resolve().parent.parent.parent
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def main() -> int:
    paths = sorted(FIXTURES.glob("*.cpp")) + sorted(FIXTURES.glob("*.hpp"))
    if not paths:
        print("analyzer selftest: no fixtures found", file=sys.stderr)
        return 2

    models = [backend_lexical.build_model(path, REPO) for path in paths]
    findings = rules.run_all(models)

    actual: dict[str, collections.Counter] = collections.defaultdict(
        collections.Counter)
    for finding in findings:
        actual[finding.path][finding.rule_id] += 1

    expected: dict[str, collections.Counter] = {}
    rel_by_file: dict[str, str] = {}
    for path in paths:
        text = path.read_text()
        _, comments = cpp_source.blank_comments_and_strings(text)
        rel = suppress.pretend_path(comments) or path.name
        rel_by_file[path.name] = rel
        expected[rel] = collections.Counter(
            suppress.expected_rules(comments))

    failures = 0
    for fixture, rel in sorted(rel_by_file.items()):
        want = expected.get(rel, collections.Counter())
        got = actual.get(rel, collections.Counter())
        if want == got:
            print(f"PASS {fixture}: {sum(want.values())} expected "
                  "finding(s)")
            continue
        failures += 1
        print(f"FAIL {fixture}:")
        for rule_id in sorted(set(want) | set(got)):
            if want[rule_id] != got[rule_id]:
                print(f"  {rule_id}: expected {want[rule_id]}, "
                      f"got {got[rule_id]}")
        for finding in findings:
            if finding.path == rel:
                print(f"    actual: {finding.render()}")

    # ISSUE 6 coverage floor: >= 2 known-bad examples per rule family.
    family_counts = collections.Counter()
    for counter in expected.values():
        for rule_id, count in counter.items():
            family_counts[rule_id.split("-")[0]] += count
    for family in ("A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8"):
        if family_counts[family] < 2:
            failures += 1
            print(f"FAIL coverage: rule family {family} has "
                  f"{family_counts[family]} known-bad fixtures (< 2)")

    if failures:
        print(f"\nanalyzer selftest: {failures} failure(s)",
              file=sys.stderr)
        return 1
    print(f"\nanalyzer selftest: all {len(paths)} fixtures pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
