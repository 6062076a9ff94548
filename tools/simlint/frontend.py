"""The text frontend shared by every simlint rule pack.

Each source file is read and parsed once into a `SourceFile`: raw lines,
a code view with comments and string/char literals blanked, a view with
only comments blanked (for packs that match literal text such as wire-tag
chars), the joined code text with an offset -> line lookup, and the
per-line `// simlint:allow(<rule>) <reason>` suppressions. The packs then
run over that parsed set; they never re-read a file.

Nothing here imports outside the standard library, so the linter runs on a
bare python3.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

ALLOW_RE = re.compile(r"//\s*simlint:allow\(([\w-]+)\)\s*(.*)")


class Finding:
    """One lint finding; the driver renders it against the merged rule
    table as `file:line: [rule] message (detail)`."""

    def __init__(self, path: Path, line: int, rule: str, detail: str = ""):
        self.path = path
        self.line = line
        self.rule = rule
        self.detail = detail

    def render(self, rules: dict[str, str]) -> str:
        msg = rules.get(self.rule, self.rule)
        if self.detail:
            msg = f"{msg} ({self.detail})"
        return f"{self.path}:{self.line}: [{self.rule}] {msg}"


def strip_line(line: str, in_block: bool,
               keep_literals: bool) -> tuple[str, bool]:
    """Blank comments (and, unless keep_literals, string/char literal
    contents including the quotes) so rule regexes only see code. Returns
    (text, still_in_block_comment). Column positions are preserved so
    findings stay on the right line."""
    out = []
    i, n = 0, len(line)
    state = "block" if in_block else "code"
    while i < n:
        c = line[i]
        if state == "code":
            if c in "\"'":
                # raw strings R"( ... )" are rare here; handle the plain form
                j = i + 1
                while j < n:
                    if line[j] == "\\":
                        j += 2
                        continue
                    j += 1
                    if line[j - 1] == c:
                        break
                j = min(j, n)
                out.append(line[i:j] if keep_literals else " " * (j - i))
                i = j
                continue
            if c == "/" and i + 1 < n and line[i + 1] == "/":
                out.append(" " * (n - i))
                break
            if c == "/" and i + 1 < n and line[i + 1] == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            out.append(c)
            i += 1
        else:  # block comment
            if c == "*" and i + 1 < n and line[i + 1] == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(" ")
            i += 1
    return "".join(out), state == "block"


def line_index(text: str):
    """Offset -> 1-based line number lookup over a joined file text."""
    starts = [0] + [m.end() for m in re.finditer("\n", text)]

    def line_of(offset: int) -> int:
        lo, hi = 0, len(starts) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if starts[mid] <= offset:
                lo = mid
            else:
                hi = mid - 1
        return lo + 1

    return line_of


class SourceFile:
    """One parsed file. Unknown rule names and missing reasons in
    allow-comments are configuration errors (exit 2), not findings: a
    suppression that silently fails to parse would un-suppress itself on
    the next run."""

    def __init__(self, path: Path, rules: dict[str, str]):
        self.path = path
        try:
            self.raw = path.read_text(errors="replace").split("\n")
        except OSError as e:
            print(f"simlint: cannot read {path}: {e}", file=sys.stderr)
            sys.exit(2)
        self.code: list[str] = []
        self.nocomment: list[str] = []
        self.allows: dict[int, str] = {}
        in_code_block = in_nc_block = False
        for lineno, line in enumerate(self.raw, 1):
            am = ALLOW_RE.search(line)
            if am:
                rule, reason = am.group(1), am.group(2).strip()
                if rule not in rules:
                    print(f"{path}:{lineno}: simlint:allow names unknown rule "
                          f"'{rule}' (known: {', '.join(sorted(rules))})",
                          file=sys.stderr)
                    sys.exit(2)
                if not reason:
                    print(f"{path}:{lineno}: simlint:allow({rule}) is missing "
                          f"the mandatory reason text", file=sys.stderr)
                    sys.exit(2)
                self.allows[lineno] = rule
            code, in_code_block = strip_line(line, in_code_block, False)
            nc, in_nc_block = strip_line(line, in_nc_block, True)
            self.code.append(code)
            self.nocomment.append(nc)
        self.text = "\n".join(self.code)
        self.nocomment_text = "\n".join(self.nocomment)
        self.line_of = line_index(self.text)

    def suppressed(self, lineno: int, rule: str) -> bool:
        return (self.allows.get(lineno) == rule
                or self.allows.get(lineno - 1) == rule)


def files_from_compile_commands(db_path: Path, src_root: Path) -> list[Path]:
    """File list for a whole-tree run: every TU under src_root that appears
    in the compile database, plus a header sweep (headers never appear in
    the database but carry declarations the packs must see)."""
    try:
        entries = json.loads(db_path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        print(f"simlint: cannot load {db_path}: {e}", file=sys.stderr)
        sys.exit(2)
    root = src_root.resolve()
    out: set[Path] = set()
    for entry in entries:
        f = Path(entry["directory"], entry["file"]).resolve() \
            if not Path(entry["file"]).is_absolute() else Path(entry["file"])
        if f.is_relative_to(root):
            out.add(f)
    for pattern in ("*.hpp", "*.h"):
        out.update(h.resolve() for h in root.rglob(pattern))
    return sorted(out)


def match_paren(text: str, open_idx: int) -> int:
    """Index of the char matching text[open_idx] ('(' or '[' or '{')."""
    opener = text[open_idx]
    close = {"(": ")", "[": "]", "{": "}"}[opener]
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == opener:
            depth += 1
        elif text[i] == close:
            depth -= 1
            if depth == 0:
                return i
    return len(text) - 1


def split_top(text: str, sep: str, nest: str = "([{") -> list[str]:
    """Split on `sep` outside any bracket pair whose opener is in `nest`
    (pass "([{<" to also respect template argument lists)."""
    closers = {"(": ")", "[": "]", "{": "}", "<": ">"}
    opens, closes = set(nest), {closers[c] for c in nest}
    out, depth, cur = [], 0, []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in opens:
            depth += 1
        elif c in closes:
            depth -= 1
        if depth == 0 and text.startswith(sep, i):
            out.append("".join(cur))
            cur = []
            i += len(sep)
            continue
        cur.append(c)
        i += 1
    out.append("".join(cur))
    return out
