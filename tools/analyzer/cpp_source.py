"""Minimal C++ source scanner shared by the lexical backend.

This is not a compiler: it blanks comments and string/char literals
while preserving byte positions (so line/column math stays exact),
records every comment for suppression parsing, and provides small
structural helpers (matching parentheses, splitting top-level argument
lists). The lexical backend builds its scope and function models on
top of these primitives.
"""

from __future__ import annotations


def blank_comments_and_strings(text: str) -> tuple[str, list[tuple[int, str]]]:
    """Return (blanked_text, comments).

    Comments and the contents of string/char literals are replaced by
    spaces (newlines preserved), so regexes over the result cannot match
    inside either. ``comments`` is a list of (line, comment_text) with
    1-based lines; block comments contribute one entry per line.
    """
    out: list[str] = []
    comments: list[tuple[int, str]] = []
    i, n = 0, len(text)
    line = 1
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            start = i
            while i < n and text[i] != "\n":
                i += 1
            comments.append((line, text[start:i]))
            out.append(" " * (i - start))
            continue
        if ch == "/" and nxt == "*":
            start = i
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and
                                 text[i + 1] == "/"):
                i += 1
            i = min(i + 2, n)
            chunk = text[start:i]
            for offset, comment_line in enumerate(chunk.split("\n")):
                comments.append((line + offset, comment_line))
            out.append("".join("\n" if c == "\n" else " " for c in chunk))
            line += chunk.count("\n")
            continue
        if ch == "'" and _after_number(text, i):
            out.append(ch)  # digit separator: 1'000'000
            i += 1
            continue
        if ch in "\"'":
            quote = ch
            start = i
            i += 1
            # An unterminated literal stops at the newline, which stays.
            while i < n and text[i] not in (quote, "\n"):
                i += 2 if text[i] == "\\" else 1
            closed = i < n and text[i] == quote
            i = min(i + 1, n) if closed else min(i, n)
            chunk = text[start:i]
            inner = chunk[1:-1] if closed else chunk[1:]
            # Keep the delimiters so f("x") still scans as f(...).
            out.append(quote +
                       "".join("\n" if c == "\n" else " " for c in inner) +
                       (quote if closed else ""))
            line += chunk.count("\n")
            continue
        if ch == "\n":
            line += 1
        out.append(ch)
        i += 1
    return "".join(out), comments


def _after_number(text: str, index: int) -> bool:
    """True when the quote at ``index`` continues a numeric literal."""
    start = index
    while start > 0 and (text[start - 1].isalnum() or
                         text[start - 1] in "'."):
        start -= 1
    return start < index and text[start].isdigit()


def matching_paren(text: str, open_index: int) -> int:
    """Index of the ')' matching text[open_index] == '(', or -1."""
    depth = 0
    for i in range(open_index, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    return -1


def split_top_level_args(arg_text: str) -> list[str]:
    """Split an argument list on commas not nested in (), {}, or <>."""
    args: list[str] = []
    depth = 0
    angle = 0
    current: list[str] = []
    for ch in arg_text:
        if ch in "({[":
            depth += 1
        elif ch in ")}]":
            depth -= 1
        elif ch == "<":
            angle += 1
        elif ch == ">":
            angle = max(0, angle - 1)
        if ch == "," and depth == 0 and angle == 0:
            args.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    tail = "".join(current).strip()
    if tail:
        args.append(tail)
    return args


def line_of(text: str, index: int) -> int:
    """1-based line number of byte ``index`` in ``text``."""
    return text.count("\n", 0, index) + 1
