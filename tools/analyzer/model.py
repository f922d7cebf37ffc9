"""Shared data model: findings, rules, and the per-file source model.

The lexical backend builds one ``SourceModel`` per file; the rules in
rules.py read nothing else.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path


@dataclasses.dataclass(frozen=True)
class Rule:
    """One analyzer rule: stable id, suppression key, one-line doc."""

    rule_id: str      # e.g. "A1-wallclock" (stable, appears in SARIF)
    key: str          # suppression key: `// analyzer: <key>(<reason>)`
    summary: str


RULES: tuple[Rule, ...] = (
    Rule("A1-wallclock", "wallclock",
         "wall-clock reads in src/ outside the util/obs timing shims "
         "break sweep determinism"),
    Rule("A1-unordered-iter", "unordered-iter",
         "iteration order of std::unordered_{map,set} is "
         "implementation-defined; it must not flow into ResultTable/"
         "EnergyProfile/exports"),
    Rule("A1-pointer-key", "pointer-key",
         "pointer-keyed std::map/std::set order depends on allocation "
         "addresses, not values"),
    Rule("A2-unattributed", "unattributed",
         "EnergyLedger::charge outside any lexical BRAIDIO_ENERGY_SPAN "
         "scope loses energy provenance"),
    Rule("A2-raw-literal", "raw-literal",
         "charge amounts must originate in the units layer (computed "
         "Joules / named constants), not raw numeric literals"),
    Rule("A3-raw-unit-param", "raw-unit-param",
         "public APIs in src/{energy,core,mac,phy,plan} must take strong "
         "unit types (util/units.hpp), not unit-suffixed doubles"),
    Rule("A4-missing-require", "missing-require",
         "an overload of a BRAIDIO_REQUIRE-checked function skips the "
         "precondition its sibling enforces"),
    Rule("A5-layering", "layering",
         "src/mac/ sits below the radio HAL boundary and must not "
         "include phy/ or core/ headers — modes, bitrates, and channel "
         "physics come from hal/; src/core/ and src/net/ include "
         "neither each other; src/plan/ includes neither"),
    Rule("A6-event-order", "event-order",
         "src/net/ event ordering must not depend on hash or address "
         "order: no unordered-container iteration, no pointer-keyed "
         "containers — the event schedule is a pure function of "
         "(config, seed)"),
    Rule("A8-one-planner", "one-planner",
         "in src/, OffloadPlanner::plan and plan_bidirectional are "
         "called only from plan/offload.cpp (plan_link) and "
         "core/efficiency.cpp — every engine plans through "
         "plan::plan_link"),
    Rule("A9-no-global-rng", "no-global-rng",
         "stochastic code takes an explicit util::Rng so runs replay bit "
         "for bit on every standard library: no rand()/random()/"
         "drand48(), no #include <random>, no std:: engine (mt19937, "
         "random_device, ...) or std::*_distribution anywhere, "
         "src/util/rng included"),
    Rule("A10-no-naked-stdout", "no-naked-stdout",
         "library code in src/ never prints: printf/puts/std::cout and "
         "friends only in util/log.cpp and util/contract.cpp"),
    Rule("A11-test-registration", "test-registration",
         "every src/**/*.cpp has a test registered in tests/CMakeLists.txt "
         "that includes its header (whole-tree runs only)"),
    Rule("A12-line-hygiene", "line-hygiene",
         "no tabs, no trailing whitespace, at most 80 columns"),
    Rule("A13-no-stray-threads", "no-stray-threads",
         "only src/sim/ spawns threads (std::thread/jthread, std::async, "
         "pthread_create); everything else uses sim::SweepRunner or "
         "sim::parallel_for"),
    Rule("A14-events-not-logs", "events-not-logs",
         "src/ outside util/ and obs/ posts simulator state as trace "
         "events, not Trace/Debug/Info log lines"),
    Rule("A15-test-only-header", "test-only-header",
         "every src/**/*.hpp is included by a file outside tests/ other "
         "than its own .cpp (src/, bench/, examples/, perfbench/src/); "
         "test-only code lives under tests/support/ (whole-tree runs "
         "only)"),
    Rule("bad-suppression", "bad-suppression",
         "a suppression annotation needs a non-empty reason"),
)

RULES_BY_KEY = {rule.key: rule for rule in RULES}
RULES_BY_ID = {rule.rule_id: rule for rule in RULES}


@dataclasses.dataclass(frozen=True)
class Finding:
    rule_id: str
    path: str     # repo-relative posix path
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule_id}] {self.message}"


@dataclasses.dataclass
class FunctionDef:
    """A function definition found in a file (lexical approximation)."""

    name: str
    params: str          # raw parameter-list text
    line: int
    body: str            # blanked body text (strings/comments removed)
    body_line: int       # line the body opens on


@dataclasses.dataclass
class ChargeCall:
    """An EnergyLedger::charge call site."""

    line: int
    amount_text: str     # second argument, verbatim (blanked)
    in_span_scope: bool  # lexically under a BRAIDIO_ENERGY_SPAN


@dataclasses.dataclass
class SourceModel:
    """Everything the rules need to know about one file."""

    path: Path
    rel: str                       # repo-relative posix path
    lines: list[str]
    blanked: str                   # comments/strings blanked, same layout
    suppressions: dict[int, dict[str, str]]   # line -> key -> reason
    bad_suppressions: list[Finding]
    functions: list[FunctionDef]
    charge_calls: list[ChargeCall]

    def suppressed(self, key: str, line: int) -> bool:
        """A `// analyzer: key(reason)` on the line or the line above."""
        for candidate in (line, line - 1):
            if key in self.suppressions.get(candidate, {}):
                return True
        return False
