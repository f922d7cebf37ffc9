"""Pure-Python lexical backend, the analyzer's only frontend.

Builds the SourceModel without a compiler: comments/strings are blanked
with exact byte positions, lexical brace scopes drive the
BRAIDIO_ENERGY_SPAN containment check, and function definitions are
recovered with a parenthesis-matching scan.
"""

from __future__ import annotations

import re
from pathlib import Path

import cpp_source
import suppress
from model import ChargeCall, FunctionDef, SourceModel

# Candidate function definition: name(params) [qualifiers|init-list] {
_FUNC_RE = re.compile(
    r"\b([A-Za-z_~][\w:~]*)\s*"
    r"\(([^;(){}]*(?:\([^()]*\)[^;(){}]*)*)\)\s*"
    r"((?:const|noexcept|override|final|->\s*[\w:<>,&*\s]+)*"
    r"(?::[^;{}]*)?)\s*\{")

_NOT_FUNCTIONS = {
    "if", "for", "while", "switch", "catch", "return", "sizeof",
    "alignof", "alignas", "decltype", "static_assert", "new", "delete",
    "throw", "constexpr", "noexcept", "assert",
}

_SCOPE_TOKEN_RE = re.compile(
    r"\{|\}|\bBRAIDIO_ENERGY_SPAN\b|(?:\.|->)\s*charge\s*\(")


def _find_functions(blanked: str) -> list[FunctionDef]:
    functions: list[FunctionDef] = []
    for match in _FUNC_RE.finditer(blanked):
        name = match.group(1)
        bare = name.split("::")[-1].lstrip("~")
        if bare in _NOT_FUNCTIONS or not bare:
            continue
        if bare.startswith("operator"):
            continue
        open_brace = match.end() - 1
        depth = 0
        end = len(blanked)
        for i in range(open_brace, len(blanked)):
            if blanked[i] == "{":
                depth += 1
            elif blanked[i] == "}":
                depth -= 1
                if depth == 0:
                    end = i
                    break
        functions.append(FunctionDef(
            name=name,
            params=match.group(2).strip(),
            line=cpp_source.line_of(blanked, match.start(1)),
            body=blanked[open_brace:end + 1],
            body_line=cpp_source.line_of(blanked, open_brace),
        ))
    return functions


def _find_charge_calls(blanked: str) -> list[ChargeCall]:
    """Scope-stack scan: is each charge() under an open span scope?"""
    calls: list[ChargeCall] = []
    spanned_stack: list[bool] = [False]
    for match in _SCOPE_TOKEN_RE.finditer(blanked):
        token = match.group(0)
        if token == "{":
            spanned_stack.append(False)
        elif token == "}":
            if len(spanned_stack) > 1:
                spanned_stack.pop()
        elif token.startswith("BRAIDIO_ENERGY_SPAN"):
            spanned_stack[-1] = True
        else:  # .charge( / ->charge(
            open_paren = match.end() - 1
            close = cpp_source.matching_paren(blanked, open_paren)
            arg_text = blanked[open_paren + 1:close] if close > 0 else ""
            args = cpp_source.split_top_level_args(arg_text)
            calls.append(ChargeCall(
                line=cpp_source.line_of(blanked, match.start()),
                amount_text=args[1] if len(args) > 1 else "",
                in_span_scope=any(spanned_stack),
            ))
    return calls


def build_model(path: Path, repo: Path) -> SourceModel:
    text = path.read_text(encoding="utf-8", errors="replace")
    blanked, comments = cpp_source.blank_comments_and_strings(text)
    try:
        rel = path.resolve().relative_to(repo).as_posix()
    except ValueError:
        rel = path.as_posix()
    declared = suppress.pretend_path(comments)
    if declared is not None:
        rel = declared
    suppressions, bad = suppress.parse_suppressions(comments, rel)
    return SourceModel(
        path=path,
        rel=rel,
        lines=text.splitlines(),
        blanked=blanked,
        suppressions=suppressions,
        bad_suppressions=bad,
        functions=_find_functions(blanked),
        charge_calls=_find_charge_calls(blanked),
    )
