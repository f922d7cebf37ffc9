"""Rule implementations A1-A15 over the SourceModel (DESIGN.md §13)."""

from __future__ import annotations

import re
from pathlib import Path

from model import RULES_BY_ID, Finding, SourceModel

# --- A1: determinism -------------------------------------------------

_WALLCLOCK_PATTERNS = [
    (re.compile(r"std::chrono::(?:system_clock|steady_clock|"
                r"high_resolution_clock)\b"),
     "std::chrono wall/monotonic clock"),
    (re.compile(r"\bclock_gettime\s*\("), "clock_gettime"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday"),
    (re.compile(r"\bstd::time\s*\(|\btime\s*\(\s*(?:nullptr|NULL|0)\s*\)"),
     "time()"),
    (re.compile(r"\b(?:std::)?(?:localtime|gmtime)\s*\("),
     "localtime/gmtime"),
]
# Timing shims: util owns logging timestamps, obs owns tracer clocks.
_WALLCLOCK_SHIMS = ("src/util/", "src/obs/")

_UNORDERED_DECL_RE = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<[^;(){}]*?>\s*"
    r"([A-Za-z_]\w*)\s*[;={]")
_SINK_RE = re.compile(
    r"\b(?:TablePrinter|ResultTable|RunRecord|EnergyProfile|add_row|"
    r"to_json|to_csv|to_collapsed_stack|to_chrome_counters|"
    r"export_\w+)\b")
_POINTER_KEY_RE = re.compile(
    r"std::(?:map|set|multimap|multiset)\s*<\s*(?:const\s+)?"
    r"[A-Za-z_][\w:]*\s*\*")

# --- A3: units discipline --------------------------------------------

_DOUBLE_PARAM_RE = re.compile(
    r"[(,]\s*(?:const\s+)?double\s+([A-Za-z_]\w*)\s*(?=[,)=])")
_UNIT_SUFFIXES = ("_j", "_s", "_w", "_dbm", "_hz", "_wh")
_UNIT_BARE_NAMES = {"joules", "seconds", "watts", "dbm", "hertz",
                    "watt_hours"}
_UNIT_TYPE_HINT = {
    "_j": "util::Joules", "_s": "util::Seconds", "_w": "util::Watts",
    "_dbm": "util::Dbm", "_hz": "util::Hertz", "_wh": "util::WattHours",
    "joules": "util::Joules", "seconds": "util::Seconds",
    "watts": "util::Watts", "dbm": "util::Dbm", "hertz": "util::Hertz",
    "watt_hours": "util::WattHours",
}
_A3_DIRS = ("src/energy/", "src/core/", "src/mac/", "src/phy/",
            "src/plan/")

# --- A4: contract coverage -------------------------------------------

_REQUIRE_RE = re.compile(r"\bBRAIDIO_(?:REQUIRE|ENSURE)\b")

# --- A5: layering ----------------------------------------------------

# Directory -> (banned-layer regex, why). mac/ sits below the radio HAL;
# net/ MAC policies talk to drivers only through hal/, like core/'s
# engines. core/ and net/ are sibling engines, so neither includes the
# other; plan/ (Eq. 1 and plan_link) sits below both and includes
# neither.
_A5_LAYERS = {
    "src/mac/": (
        re.compile(r'^\s*#\s*include\s*"((phy|core)/[^"]*)"'),
        "the MAC sits below the radio HAL and must not depend on "
        "{layer}/; take LinkMode/Bitrate/ChannelModel from hal/ instead",
    ),
    "src/net/": (
        re.compile(r'^\s*#\s*include\s*"((core)/[^"]*)"'),
        "net/ is a sibling engine of {layer}/ and must not include it; "
        "depend on hal/, mac/ and plan/ only",
    ),
    "src/core/": (
        re.compile(r'^\s*#\s*include\s*"((net)/[^"]*)"'),
        "core/ engines run their own slot loops and must not depend on "
        "the many-node simulator in {layer}/; share hal/, mac/ and plan/ "
        "instead",
    ),
    "src/plan/": (
        re.compile(r'^\s*#\s*include\s*"((core|net)/[^"]*)"'),
        "the planner sits below both engines and must not include "
        "{layer}/; it reads hal/ types only",
    ),
}

_NUMERIC_LITERAL_RE = re.compile(
    r"^[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?[fF]?$")
_WRAPPED_LITERAL_RE = re.compile(
    r"^(?:braidio::)?(?:util::)?Joules\s*\((.*)\)$", re.DOTALL)


def _in_src(model: SourceModel) -> bool:
    return model.rel.startswith("src/")


def check_wallclock(model: SourceModel) -> list[Finding]:
    if not _in_src(model) or model.rel.startswith(_WALLCLOCK_SHIMS):
        return []
    findings = []
    blanked_lines = model.blanked.split("\n")
    for lineno, line in enumerate(blanked_lines, 1):
        for pattern, label in _WALLCLOCK_PATTERNS:
            if pattern.search(line):
                if model.suppressed("wallclock", lineno):
                    continue
                findings.append(Finding(
                    "A1-wallclock", model.rel, lineno,
                    f"{label} in deterministic code — results must not "
                    "depend on the host clock; route timing through the "
                    "util/obs shims or suppress with a reason"))
    return findings


def check_unordered_iteration(model: SourceModel) -> list[Finding]:
    if not _in_src(model):
        return []
    names = set(_UNORDERED_DECL_RE.findall(model.blanked))
    if not names:
        return []
    findings = []
    for func in model.functions:
        # Sinks reach a function either in its body or through a
        # reference parameter (TablePrinter&, EnergyProfile&).
        if not _SINK_RE.search(func.params + " " + func.body):
            continue
        for name in sorted(names):
            iter_re = re.compile(
                rf"for\s*\([^;)]*:\s*[^;)]*\b{name}\b|"
                rf"\b{name}\s*\.\s*(?:begin|cbegin)\s*\(")
            for match in iter_re.finditer(func.body):
                lineno = (func.body_line +
                          func.body.count("\n", 0, match.start()))
                if model.suppressed("unordered-iter", lineno):
                    continue
                findings.append(Finding(
                    "A1-unordered-iter", model.rel, lineno,
                    f"iterating unordered container '{name}' in a "
                    "function that feeds ResultTable/EnergyProfile/"
                    "exports — order is implementation-defined; copy "
                    "into a sorted container first"))
    return findings


def check_pointer_keys(model: SourceModel) -> list[Finding]:
    if not _in_src(model):
        return []
    findings = []
    for lineno, line in enumerate(model.blanked.split("\n"), 1):
        if _POINTER_KEY_RE.search(line):
            if model.suppressed("pointer-key", lineno):
                continue
            findings.append(Finding(
                "A1-pointer-key", model.rel, lineno,
                "pointer-keyed ordered container — iteration order "
                "follows allocation addresses, which vary run to run; "
                "key by a value (name, index) instead"))
    return findings


def check_energy_attribution(model: SourceModel) -> list[Finding]:
    if not _in_src(model):
        return []
    findings = []
    for call in model.charge_calls:
        if not call.in_span_scope:
            if not model.suppressed("unattributed", call.line):
                findings.append(Finding(
                    "A2-unattributed", model.rel, call.line,
                    "EnergyLedger::charge outside any lexical "
                    "BRAIDIO_ENERGY_SPAN scope — the joules land in the "
                    "profile with no provenance; open a span or annotate "
                    "`// analyzer: unattributed(<reason>)`"))
        amount = call.amount_text.strip()
        wrapped = _WRAPPED_LITERAL_RE.match(amount)
        inner = wrapped.group(1).strip() if wrapped else amount
        if _NUMERIC_LITERAL_RE.match(inner):
            if not model.suppressed("raw-literal", call.line):
                findings.append(Finding(
                    "A2-raw-literal", model.rel, call.line,
                    f"charge amount '{amount}' is a raw numeric literal "
                    "— energy must be computed through the units layer "
                    "(power * time, battery drain) or a named constant"))
    return findings


def check_units_discipline(model: SourceModel) -> list[Finding]:
    if not model.rel.startswith(_A3_DIRS):
        return []
    if not model.rel.endswith(".hpp"):
        return []  # public API surface = headers
    findings = []
    for match in _DOUBLE_PARAM_RE.finditer(model.blanked):
        name = match.group(1)
        lowered = name.lower()
        hint = None
        for suffix in _UNIT_SUFFIXES:
            if lowered.endswith(suffix):
                hint = _UNIT_TYPE_HINT[suffix]
                break
        if hint is None and lowered in _UNIT_BARE_NAMES:
            hint = _UNIT_TYPE_HINT[lowered]
        if hint is None:
            continue
        lineno = model.blanked.count("\n", 0, match.start()) + 1
        if model.suppressed("raw-unit-param", lineno):
            continue
        findings.append(Finding(
            "A3-raw-unit-param", model.rel, lineno,
            f"public parameter 'double {name}' carries a unit in its "
            f"name — take {hint} (src/util/units.hpp) so mixups are "
            "compile errors"))
    return findings


def check_layering(model: SourceModel) -> list[Finding]:
    """A5: layer boundaries — mac/ may not include phy/ or core/,
    net/ may not include core/, core/ may not include net/, and plan/
    may include neither core/ nor net/.

    Include paths live inside string literals, which the blanker erases,
    so the directive is matched on the raw line; the blanked line is
    consulted only to skip includes that are commented out.
    """
    rule = next((entry for prefix, entry in _A5_LAYERS.items()
                 if model.rel.startswith(prefix)), None)
    if rule is None:
        return []
    include_re, why = rule
    findings = []
    blanked_lines = model.blanked.split("\n")
    for lineno, raw in enumerate(model.lines, 1):
        match = include_re.match(raw)
        if not match:
            continue
        if lineno <= len(blanked_lines) and "#" not in blanked_lines[lineno - 1]:
            continue  # the whole directive sits inside a comment
        if model.suppressed("layering", lineno):
            continue
        header, layer = match.group(1), match.group(2)
        directory = model.rel[:model.rel.index("/", 4) + 1]
        findings.append(Finding(
            "A5-layering", model.rel, lineno,
            f"#include \"{header}\" in {directory} — "
            + why.format(layer=layer)))
    return findings


# --- A6: net event ordering ------------------------------------------

_A6_DIR = "src/net/"
# The A1 decl regex only sees local/member declarations; in src/net/ a
# container arriving as a reference parameter is just as hazardous.
_UNORDERED_PARAM_RE = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<[^;(){}]*?>\s*"
    r"&?\s*([A-Za-z_]\w*)\s*[,)]")


def check_net_event_order(model: SourceModel) -> list[Finding]:
    """A6: src/net/ event ordering must not depend on hash or address.

    The network simulator's determinism guarantee (DESIGN.md §15) is
    that the event schedule is a pure function of (config, seed), so
    every container that can feed it must iterate in a deterministic
    index order. Unordered-container iteration (hash order) and
    pointer-keyed maps (allocation order) are banned outright in
    src/net/, sink or no sink — the schedule itself is the sink.
    """
    if not model.rel.startswith(_A6_DIR):
        return []
    findings = []
    names = set(_UNORDERED_DECL_RE.findall(model.blanked))
    names |= set(_UNORDERED_PARAM_RE.findall(model.blanked))
    for lineno, line in enumerate(model.blanked.split("\n"), 1):
        if (_POINTER_KEY_RE.search(line)
                and not model.suppressed("event-order", lineno)):
            findings.append(Finding(
                "A6-event-order", model.rel, lineno,
                "pointer-keyed container in src/net/ — event ordering "
                "would follow allocation addresses, which vary run to "
                "run; key by node index instead"))
        for name in sorted(names):
            iter_re = re.compile(
                rf"for\s*\([^;)]*:\s*[^;)]*\b{name}\b|"
                rf"\b{name}\s*\.\s*(?:begin|cbegin)\s*\(")
            if not iter_re.search(line):
                continue
            if model.suppressed("event-order", lineno):
                continue
            findings.append(Finding(
                "A6-event-order", model.rel, lineno,
                f"iterating unordered container '{name}' in src/net/ — "
                "hash order would flow into the event schedule; use an "
                "index-ordered vector instead"))
    return findings


# --- A8: one planning step -------------------------------------------

_A8_PLANNER_CALL_RE = re.compile(
    r"\bOffloadPlanner::(plan(?:_bidirectional)?)\s*\(")
# offload.cpp defines Eq. 1 and plan_link; efficiency.cpp's Fig. 9
# triangle is plain Eq. 1 by design.
_A8_ALLOWED = ("src/plan/offload.cpp", "src/core/efficiency.cpp")


def check_one_planner(model: SourceModel) -> list[Finding]:
    """A8: engines plan through plan::plan_link, never raw Eq. 1.

    plan_link (DESIGN.md §5) is the one planning step: Eq. 1 in either
    direction, Table 5 switch costs amortized over a dwell, and the
    best-exclusive-mode fallback. A direct OffloadPlanner::plan or
    plan_bidirectional call elsewhere in src/ skips the last two and
    forks the engines' rules again.
    """
    if not _in_src(model) or model.rel in _A8_ALLOWED:
        return []
    findings = []
    for lineno, line in enumerate(model.blanked.split("\n"), 1):
        match = _A8_PLANNER_CALL_RE.search(line)
        if not match:
            continue
        if model.suppressed("one-planner", lineno):
            continue
        findings.append(Finding(
            "A8-one-planner", model.rel, lineno,
            f"OffloadPlanner::{match.group(1)}() outside plan/offload.cpp "
            "— engines plan through plan::plan_link so every one gets "
            "the same switch amortization and single-mode fallback"))
    return findings


# --- A9-A14: repo hygiene over the whole tree ---------------------------

_TREE_DIRS = ("src/", "tests/", "bench/", "examples/")
_MAX_COLUMNS = 80

# util::Rng writes its generator and every distribution itself, so
# nothing in the tree needs <random>: its engines and distributions are
# banned everywhere, util/rng included. The standard leaves the
# distributions' algorithms to each library, so a stream drawn through
# them differs between libstdc++, libc++ and MSVC.
_STD_ENGINES = (
    r"minstd_rand0?|ranlux(?:24|48)(?:_base)?|knuth_b"
    r"|(?:mersenne_twister|linear_congruential|subtract_with_carry"
    r"|discard_block|independent_bits|shuffle_order)_engine"
    r"|seed_seq|generate_canonical")
_GLOBAL_RNG_PATTERNS = [
    (re.compile(r"\b(?:std::)?s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"\brandom\s*\(\s*\)"), "random()"),
    (re.compile(r"\bdrand48\s*\("), "drand48()"),
    (re.compile(r"#\s*include\s*<random>"), "#include <random>"),
    (re.compile(r"\bstd::random_device\b"), "std::random_device"),
    (re.compile(r"\bstd::default_random_engine\b"),
     "std::default_random_engine"),
    (re.compile(r"\bstd::mt19937(?:_64)?\b"), "raw std::mt19937"),
    (re.compile(r"\bstd::(?:" + _STD_ENGINES + r")\b"),
     "a std:: engine, adaptor or seeding helper"),
    (re.compile(r"\bstd::\w+_distribution\b"), "a std::*_distribution"),
]

_STDOUT_PATTERNS = [
    (re.compile(r"\b(?:std::)?f?printf\s*\("), "printf/fprintf"),
    (re.compile(r"\b(?:std::)?puts\s*\("), "puts"),
    (re.compile(r"\bputchar\s*\("), "putchar"),
    (re.compile(r"\bstd::(?:cout|cerr|clog)\b"), "std::cout/cerr/clog"),
]
# The contract failure path must not depend on the logger.
_STDOUT_HOMES = ("src/util/log.cpp", "src/util/contract.cpp")

# `(?!\s*::)` keeps non-spawning statics legal: std::thread::id,
# std::thread::hardware_concurrency(). std::this_thread never matches
# (the `::` between std and this_thread breaks the literal).
_THREAD_SPAWN_PATTERNS = [
    (re.compile(r"\bstd::j?thread\b(?!\s*::)"), "std::thread/std::jthread"),
    (re.compile(r"\bstd::async\s*\("), "std::async"),
    (re.compile(r"\bpthread_create\s*\("), "pthread_create"),
]

_INFO_LOG_PATTERNS = [
    (re.compile(r"\bBRAIDIO_LOG_(?:TRACE|DEBUG|INFO)\b"),
     "BRAIDIO_LOG_TRACE/DEBUG/INFO"),
    (re.compile(r"\bBRAIDIO_LOG\s*\(\s*LogLevel::(?:Trace|Debug|Info)\b"),
     "BRAIDIO_LOG(LogLevel::Trace/Debug/Info)"),
]

# Rule id -> (files it covers, banned tokens, what to do instead). The
# tokens are matched against blanked text, so comments and string
# literals never trip them.
_TOKEN_BANS = {
    "A9-no-global-rng": (
        lambda rel: rel.startswith(_TREE_DIRS),
        _GLOBAL_RNG_PATTERNS, "use braidio::util::Rng"),
    "A10-no-naked-stdout": (
        lambda rel: rel.startswith("src/") and rel not in _STDOUT_HOMES,
        _STDOUT_PATTERNS, "library code logs via util/log or returns data"),
    "A13-no-stray-threads": (
        lambda rel: (rel.startswith(_TREE_DIRS)
                     and not rel.startswith("src/sim/")),
        _THREAD_SPAWN_PATTERNS,
        "only src/sim/ spawns threads; use sim::SweepRunner or "
        "sim::parallel_for"),
    "A14-events-not-logs": (
        lambda rel: (rel.startswith("src/")
                     and not rel.startswith(("src/util/", "src/obs/"))),
        _INFO_LOG_PATTERNS,
        "sim state goes through obs::Tracer (BRAIDIO_TRACE_EVENT), not "
        "informational logging"),
}


def check_banned_tokens(model: SourceModel) -> list[Finding]:
    """A9/A10/A13/A14: tokens banned from (part of) the tree."""
    findings = []
    blanked_lines = model.blanked.split("\n")
    for rule_id, (in_scope, patterns, advice) in _TOKEN_BANS.items():
        if not in_scope(model.rel):
            continue
        key = RULES_BY_ID[rule_id].key
        for lineno, line in enumerate(blanked_lines, 1):
            for pattern, label in patterns:
                if pattern.search(line) and not model.suppressed(key, lineno):
                    findings.append(Finding(rule_id, model.rel, lineno,
                                            f"{label} — {advice}"))
    return findings


def check_line_hygiene(model: SourceModel) -> list[Finding]:
    """A12: no tabs, no trailing whitespace, 80 columns (.clang-format)."""
    if not model.rel.startswith(_TREE_DIRS):
        return []
    findings = []
    for lineno, line in enumerate(model.lines, 1):
        problems = []
        if "\t" in line:
            problems.append("tab character (2-space indent only)")
        if line != line.rstrip():
            problems.append("trailing whitespace")
        if len(line) > _MAX_COLUMNS:
            problems.append(f"line is {len(line)} columns "
                            f"(max {_MAX_COLUMNS})")
        if problems and model.suppressed("line-hygiene", lineno):
            continue
        findings.extend(Finding("A12-line-hygiene", model.rel, lineno,
                                problem) for problem in problems)
    return findings


_REGISTERED_TEST_RE = re.compile(r"braidio_test\(\s*([A-Za-z0-9_]+)\s*\)")
_INCLUDE_RE = re.compile(r'#include\s+"([^"]+\.hpp)"')


def check_test_registration(models: list[SourceModel],
                            tree: Path) -> list[Finding]:
    """A11: every src/**/*.cpp is covered by a registered test.

    A test covers a module when the file of a `braidio_test(<name>)` in
    tree/tests/CMakeLists.txt includes the module's header. Include
    paths sit inside string literals, which the blanker erases, so the
    raw lines are read. Needs every file of the tree in ``models``.
    """
    cmake = tree / "tests" / "CMakeLists.txt"
    registry = cmake.read_text() if cmake.is_file() else ""
    by_rel = {model.rel: model for model in models}
    covered: set[str] = set()
    findings = []
    for match in _REGISTERED_TEST_RE.finditer(registry):
        name = match.group(1)
        test = by_rel.get(f"tests/{name}.cpp")
        if test is None:
            findings.append(Finding(
                "A11-test-registration", "tests/CMakeLists.txt",
                registry.count("\n", 0, match.start()) + 1,
                f"registered test {name} has no tests/{name}.cpp"))
            continue
        for raw in test.lines:
            covered.update(_INCLUDE_RE.findall(raw))
    for model in models:
        if not (model.rel.startswith("src/") and model.rel.endswith(".cpp")):
            continue
        header = model.rel[len("src/"):-len(".cpp")] + ".hpp"
        if header in covered or model.suppressed("test-registration", 1):
            continue
        findings.append(Finding(
            "A11-test-registration", model.rel, 1,
            f"no registered test in tests/CMakeLists.txt includes "
            f"\"{header}\""))
    return findings


def check_header_includers(models: list[SourceModel],
                           tree: Path) -> list[Finding]:
    """A15: every src/**/*.hpp has an includer outside tests/.

    Its own .cpp does not count. The includers are the other files of
    src/, bench/ and examples/, and tree/perfbench/src/, which is read
    here only: no other rule walks it. A header whose only includers are
    tests is test support and belongs under tests/support/. Include
    paths sit inside string literals, which the blanker erases, so the
    raw lines are read. Needs every file of the tree in ``models``.
    """
    includers: dict[str, set[str]] = {}

    def scan(rel: str, lines: list[str]) -> None:
        for raw in lines:
            for header in _INCLUDE_RE.findall(raw):
                includers.setdefault(header, set()).add(rel)

    for model in models:
        if not model.rel.startswith("tests/"):
            scan(model.rel, model.lines)
    perfbench = tree / "perfbench" / "src"
    if perfbench.is_dir():
        for path in sorted(perfbench.rglob("*")):
            if path.suffix in (".cpp", ".hpp"):
                scan(path.relative_to(tree).as_posix(),
                     path.read_text().splitlines())
    findings = []
    for model in models:
        if not (model.rel.startswith("src/") and model.rel.endswith(".hpp")):
            continue
        header = model.rel[len("src/"):]
        own_source = model.rel[:-len(".hpp")] + ".cpp"
        if includers.get(header, set()) - {own_source}:
            continue
        if model.suppressed("test-only-header", 1):
            continue
        findings.append(Finding(
            "A15-test-only-header", model.rel, 1,
            f"no file outside tests/ but its own .cpp includes "
            f"\"{header}\" — delete it, or move it under tests/support/"))
    return findings


def _bare(name: str) -> str:
    return name.split("::")[-1].lstrip("~")


def check_contract_coverage(models: list[SourceModel]) -> list[Finding]:
    """A4 over a header/source pair: REQUIRE-checked overload siblings."""
    groups: dict[str, list[tuple[SourceModel, object]]] = {}
    for model in models:
        if not _in_src(model):
            continue
        for func in model.functions:
            name = _bare(func.name)
            qualifier = func.name.split("::")[:-1]
            if qualifier and _bare(qualifier[-1]) == name:
                continue  # constructor (Foo::Foo)
            groups.setdefault(name, []).append((model, func))
    findings = []
    for name, defs in sorted(groups.items()):
        if len(defs) < 2:
            continue
        signatures = {func.params for _, func in defs}
        if len(signatures) < 2:
            continue  # redefinition noise, not overloads
        checked = [f for _, f in defs if _REQUIRE_RE.search(f.body)]
        if not checked:
            continue
        for model, func in defs:
            if _REQUIRE_RE.search(func.body):
                continue
            if not func.params.strip():
                continue  # nothing to validate
            # Delegating overloads inherit the sibling's checks.
            if re.search(rf"\b{name}\s*\(", func.body[1:]):
                continue
            if model.suppressed("missing-require", func.line):
                continue
            findings.append(Finding(
                "A4-missing-require", model.rel, func.line,
                f"overload of '{name}' skips the BRAIDIO_REQUIRE "
                "precondition its sibling enforces — validate the same "
                "invariant or delegate to the checked overload"))
    return findings


def run_all(models: list[SourceModel],
            tree: Path | None = None) -> list[Finding]:
    """Every rule over ``models``; A11 and A15 too when ``tree`` names the
    root of a whole-tree run."""
    findings: list[Finding] = []
    pairs: dict[str, list[SourceModel]] = {}
    for model in models:
        findings.extend(model.bad_suppressions)
        findings.extend(check_wallclock(model))
        findings.extend(check_unordered_iteration(model))
        findings.extend(check_pointer_keys(model))
        findings.extend(check_energy_attribution(model))
        findings.extend(check_units_discipline(model))
        findings.extend(check_layering(model))
        findings.extend(check_net_event_order(model))
        findings.extend(check_one_planner(model))
        findings.extend(check_banned_tokens(model))
        findings.extend(check_line_hygiene(model))
        stem = re.sub(r"\.(?:hpp|cpp)$", "", model.rel)
        pairs.setdefault(stem, []).append(model)
    for stem in sorted(pairs):
        findings.extend(check_contract_coverage(pairs[stem]))
    if tree is not None:
        findings.extend(check_test_registration(models, tree))
        findings.extend(check_header_includers(models, tree))
    findings.sort(key=lambda f: (f.path, f.line, f.rule_id))
    return findings
