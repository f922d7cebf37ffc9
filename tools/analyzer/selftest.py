#!/usr/bin/env python3
"""Regression-test the analyzer rules and CLI.

Every fixture under fixtures/ declares its expected findings with
`// expect: <rule-id>` comments; this driver runs the full rule set
over the fixtures and compares the per-file multiset of rule ids
(line-insensitive, so fixtures stay editable). The whole-tree rule A11
runs on a small synthetic tree instead. The CLI is driven as a
subprocess to pin its exit codes, `--list` and the explicit-path mode.
Every rule family A1-A6 and A8-A14 needs at least two known-bad
examples.

Exit status: 0 pass, 1 any failure.
"""

from __future__ import annotations

import collections
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import backend_lexical  # noqa: E402
import cpp_source  # noqa: E402
import rules  # noqa: E402
import suppress  # noqa: E402
from model import RULES  # noqa: E402

REPO = Path(__file__).resolve().parent.parent.parent
ANALYZER = Path(__file__).resolve().parent
FIXTURES = ANALYZER / "fixtures"
FAMILIES = ("A1", "A2", "A3", "A4", "A5", "A6", "A8", "A9", "A10", "A11",
            "A12", "A13", "A14")

# A11 on a synthetic tree: foo is covered, bar is not, and the ghost
# test is registered without a source file.
SYNTHETIC_TREE = {
    "src/core/foo.cpp": '#include "core/foo.hpp"\n',
    "src/core/foo.hpp": "#pragma once\n",
    "src/core/bar.cpp": '#include "core/bar.hpp"\n',
    "src/core/bar.hpp": "#pragma once\n",
    "tests/foo_test.cpp": '#include "core/foo.hpp"\n',
    "tests/CMakeLists.txt": ("braidio_test(foo_test)\n"
                             "braidio_test(ghost_test)\n"),
}
SYNTHETIC_FINDINGS = [
    ("src/core/bar.cpp", 1),
    ("tests/CMakeLists.txt", 2),
]


def check_fixtures(family_counts: collections.Counter) -> int:
    paths = sorted(FIXTURES.glob("*.cpp")) + sorted(FIXTURES.glob("*.hpp"))
    models = [backend_lexical.build_model(path, REPO) for path in paths]
    findings = rules.run_all(models)

    actual: dict[str, collections.Counter] = collections.defaultdict(
        collections.Counter)
    for finding in findings:
        actual[finding.path][finding.rule_id] += 1

    failures = 0
    for path in paths:
        _, comments = cpp_source.blank_comments_and_strings(path.read_text())
        rel = suppress.pretend_path(comments) or path.name
        want = collections.Counter(suppress.expected_rules(comments))
        for rule_id, count in want.items():
            family_counts[rule_id.split("-")[0]] += count
        got = actual.get(rel, collections.Counter())
        if want == got:
            print(f"PASS {path.name}: {sum(want.values())} expected "
                  "finding(s)")
            continue
        failures += 1
        print(f"FAIL {path.name}:")
        for rule_id in sorted(set(want) | set(got)):
            if want[rule_id] != got[rule_id]:
                print(f"  {rule_id}: expected {want[rule_id]}, "
                      f"got {got[rule_id]}")
        for finding in findings:
            if finding.path == rel:
                print(f"    actual: {finding.render()}")
    return failures


def check_test_registration(family_counts: collections.Counter) -> int:
    with tempfile.TemporaryDirectory() as scratch:
        tree = Path(scratch)
        for rel, text in SYNTHETIC_TREE.items():
            (tree / rel).parent.mkdir(parents=True, exist_ok=True)
            (tree / rel).write_text(text)
        models = [backend_lexical.build_model(tree / rel, tree)
                  for rel in sorted(SYNTHETIC_TREE)
                  if rel.endswith((".cpp", ".hpp"))]
        findings = rules.run_all(models, tree)
    got = [(f.path, f.line) for f in findings
           if f.rule_id == "A11-test-registration"]
    family_counts["A11"] += len(SYNTHETIC_FINDINGS)
    if got == SYNTHETIC_FINDINGS and len(findings) == len(got):
        print("PASS A11 synthetic tree: unregistered module and missing "
              "test source")
        return 0
    print("FAIL A11 synthetic tree:")
    for finding in findings:
        print(f"    actual: {finding.render()}")
    return 1


def check_cli() -> int:
    def run(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, str(ANALYZER), *args],
                              capture_output=True, text=True, check=False)

    bad = run(str(FIXTURES / "a9_a12_a13_mixed_bad.cpp"))
    clean = run(str(FIXTURES / "comment_and_string_tokens.cpp"))
    missing = run(str(FIXTURES / "no_such_file.cpp"))
    listing = run("--list")
    pins = [
        (bad.returncode == 1, "known-bad fixture exits 1"),
        (all(f"[{rule_id}]" in bad.stdout for rule_id in (
            "A9-no-global-rng", "A12-line-hygiene",
            "A13-no-stray-threads")),
         "known-bad fixture reports A9, A12 and A13"),
        ("A11-" not in bad.stdout, "explicit-path run skips A11"),
        (clean.returncode == 0, "clean fixture exits 0"),
        (missing.returncode == 2, "missing path exits 2"),
        (listing.returncode == 0 and
         all(rule.rule_id in listing.stdout for rule in RULES),
         "--list exits 0 and names every rule"),
    ]
    for passed, label in pins:
        print(("PASS " if passed else "FAIL ") + "CLI: " + label)
    return sum(not passed for passed, _ in pins)


def main() -> int:
    family_counts: collections.Counter = collections.Counter()
    failures = (check_fixtures(family_counts) +
                check_test_registration(family_counts) + check_cli())
    for family in FAMILIES:
        if family_counts[family] < 2:
            failures += 1
            print(f"FAIL coverage: rule family {family} has "
                  f"{family_counts[family]} known-bad examples (< 2)")

    if failures:
        print(f"\nanalyzer selftest: {failures} failure(s)",
              file=sys.stderr)
        return 1
    print("\nanalyzer selftest: all checks pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
