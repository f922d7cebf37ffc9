"""Command-line driver for braidio-analyzer.

    python3 tools/analyzer                      # the whole tree
    python3 tools/analyzer --list               # rule docs
    python3 tools/analyzer path1.cpp path2.hpp  # specific files
    python3 tools/analyzer --json out.json --sarif out.sarif

A bare run walks src/, tests/, bench/ and examples/ and adds the
whole-tree rule A11; a run over explicit paths checks only those
files, so it skips A11.

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import backend_lexical
import rules
import sarif
from model import RULES

REPO = Path(__file__).resolve().parent.parent.parent
TREE_DIRS = ("src", "tests", "bench", "examples")
CXX_SUFFIXES = {".cpp", ".hpp"}


def _source_paths(roots: list[Path]) -> list[Path]:
    """Every C++ source or header at or under ``roots``."""
    files: set[Path] = set()
    for root in roots:
        if root.is_file():
            files.add(root.resolve())
            continue
        files.update(path.resolve() for path in root.rglob("*")
                     if path.suffix in CXX_SUFFIXES)
    return sorted(files)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tools/analyzer",
        description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*",
                        help="files or directories (default: the whole "
                             "tree, " + " ".join(TREE_DIRS) + ")")
    parser.add_argument("--json", type=Path, default=None,
                        help="write machine-readable findings JSON")
    parser.add_argument("--sarif", type=Path, default=None,
                        help="write SARIF 2.1.0 findings")
    parser.add_argument("--list", action="store_true",
                        help="print the rules and exit")
    args = parser.parse_args(argv)

    if args.list:
        for rule in RULES:
            print(f"{rule.rule_id:21s} (suppress: {rule.key})\n"
                  f"    {rule.summary}")
        return 0

    roots = ([Path(p) for p in args.paths] if args.paths
             else [REPO / top for top in TREE_DIRS])
    for root in roots:
        if not root.exists():
            print(f"analyzer: no such path: {root}", file=sys.stderr)
            return 2

    models = [backend_lexical.build_model(path, REPO)
              for path in _source_paths(roots)]
    findings = rules.run_all(models, None if args.paths else REPO)

    if args.json is not None:
        args.json.write_text(sarif.to_json(findings, len(models)))
    if args.sarif is not None:
        args.sarif.write_text(sarif.to_sarif(findings))

    for finding in findings:
        print(finding.render())
    if findings:
        print(f"\ntools/analyzer: {len(findings)} finding(s) in "
              f"{len(models)} file(s)", file=sys.stderr)
        return 1
    print(f"tools/analyzer: clean ({len(models)} files)")
    return 0
