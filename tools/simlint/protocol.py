"""Protocol pack: protocol-conformance and observe-only purity rules.

Whole-program pass over the NodeMsg wire protocol and the config/observability
surface. Rules:

  duplicate-tag   two NodeMsg::Type enumerators share a wire tag char
  unhandled-tag   a dispatch switch or type table misses an enum value
  dead-send       a tag is sent but never actively handled (or only handled
                  in another replication protocol's files)
  dead-handler    an active handler is unreachable from any send site
  repl-command    a WSEQ* replication RESP command lacks a send or handle site
  observe-taint   src/obs/ code or a `// simlint:observe-only` function can
                  reach trace-digest notes, event scheduling, or KV mutation
  knob-drift      a field of a KNOB_STRUCTS struct is not mentioned in the
                  knob documentation (EXPERIMENTS.md)

Reachability is scoped by file: a file carrying `// simlint:protocol(<name>)`
holds one replication protocol's code, which runs only under that protocol;
every other file is shared code, which runs under all of them. A tag sent from
one protocol's files but actively handled only in another's is a dead-send
(and the handler a dead-handler). Active handlers are non-ignored case groups
of a switch over `Type`, plus `type == Type::kX` comparisons (how a protocol
object claims its own frames).

Functions marked `// simlint:observe-only` on their definition line or the
line above are observe-only seeds, like everything under src/obs/.
"""

from __future__ import annotations

import re
from collections import defaultdict, namedtuple

from frontend import Finding, SourceFile, match_paren

RULES = {
    "duplicate-tag": "two NodeMsg::Type values share a wire tag char",
    "unhandled-tag": "dispatch switch/type table does not cover every "
                     "NodeMsg::Type",
    "dead-send": "message tag is sent but never actively handled",
    "dead-handler": "handler is unreachable from any send site",
    "repl-command": "replication RESP command lacks a send or handle site",
    "observe-taint": "observe-only code reaches sim/KV-mutating operations",
    "knob-drift": "config knob is undocumented",
}


# Config structs whose every field is a knob that must be documented.
KNOB_STRUCTS = ("ServerConfig", "NicKvConfig", "RunOptions", "YcsbOptions",
                "OpenLoopOptions")


# ---------------------------------------------------------------------------
# Function table: file-scope and single-level in-class definitions, found by
# classifying every `{` from the text between it and the previous delimiter.
# Bodies give us the call sites the observe-taint pass chases.

NOT_A_FUNC = {
    "if", "for", "while", "switch", "return", "else", "do", "catch", "case",
    "new", "delete", "sizeof", "throw", "operator", "alignas", "decltype",
    "static_assert", "defined", "assert",
}


def _func_name(header: str) -> str | None:
    """Name of the function a `{`'s header declares, or None."""
    depth = 0
    idx = -1
    for i, ch in enumerate(header):
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth = max(0, depth - 1)
        elif ch == "(" and depth == 0:
            idx = i
            break
    if idx < 0:
        return None
    left = header[:idx]
    if "=" in left:  # assignment / lambda intro — not a definition header
        return None
    m = re.search(r"([A-Za-z_]\w*)\s*$", left)
    if not m or m.group(1) in NOT_A_FUNC:
        return None
    return m.group(1)


class Func:
    def __init__(self, name: str, sf: SourceFile, lo: int, hi: int):
        self.name = name
        self.sf = sf
        self.lo = lo      # offset of body '{'
        self.hi = hi      # offset one past body '}'
        self.line = sf.line_of(lo)
        self.calls: list[tuple[str, int]] = []
        self.annotated = False


CALL_RE = re.compile(r"(?<![\w:.])([A-Za-z_]\w*)\s*\(")
MEMBER_CALL_RE = re.compile(r"(?:\.|->|::)\s*([A-Za-z_]\w*)\s*\(")
ANNOT_RE = re.compile(r"//\s*simlint:observe-only")


def parse_funcs(sf: SourceFile) -> list[Func]:
    text = sf.text
    funcs: list[Func] = []
    stack: list[str] = []  # 'ns' | 'agg' | 'func' | 'other'
    last_delim = 0
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == ";":
            last_delim = i + 1
        elif c == "}":
            if stack:
                stack.pop()
            last_delim = i + 1
        elif c == "{":
            header = text[last_delim:i].strip()
            kind = "other"
            if re.search(r"\bnamespace\s*[\w:]*$", header):
                kind = "ns"
            elif (re.search(r"\b(?:class|struct|union|enum)\b", header)
                  and "(" not in header):
                kind = "agg"
            else:
                name = _func_name(header)
                if (name is not None
                        and all(k in ("ns", "agg") for k in stack)
                        and sum(1 for k in stack if k == "agg") <= 1):
                    hi = match_paren(text, i) + 1
                    f = Func(name, sf, i, hi)
                    lineno = f.line
                    # annotation on the definition line or the line above
                    for ln in (lineno, lineno - 1):
                        if (1 <= ln <= len(sf.raw)
                                and ANNOT_RE.search(sf.raw[ln - 1])):
                            f.annotated = True
                    funcs.append(f)
                    kind = "func"
            stack.append(kind)
            last_delim = i + 1
        i += 1
    for f in funcs:
        body = text[f.lo:f.hi]
        for m in CALL_RE.finditer(body):
            if m.group(1) not in NOT_A_FUNC:
                f.calls.append((m.group(1), f.lo + m.start(1)))
        for m in MEMBER_CALL_RE.finditer(body):
            if m.group(1) not in NOT_A_FUNC:
                f.calls.append((m.group(1), f.lo + m.start(1)))
    return funcs


# ---------------------------------------------------------------------------
# Protocol surface extraction.

ENUM_TYPE_RE = re.compile(r"\benum\s+class\s+Type\s*:\s*char\s*\{")
ENUM_ENTRY_RE = re.compile(r"\b(k\w+)\s*=\s*'(\\?[^'])'")
SEND_RE = re.compile(
    r"\bNodeMsg(?:\s+\w+)?\s*\{\s*(?:[\w:]+::)?\s*Type\s*::\s*(k\w+)")
CASE_RE = re.compile(r"\bcase\s+(?:[\w:]+::)?\s*Type\s*::\s*(k\w+)\s*:")
CMP_RE = re.compile(r"\btype\s*==\s*(?:[\w:]+::)?\s*Type\s*::\s*(k\w+)")
PROTOCOL_RE = re.compile(r"//\s*simlint:protocol\((\w+)\)")
LABEL_RE = re.compile(
    r"\bcase\s+(?:[\w:]+::)?\s*Type\s*::\s*(k\w+)\s*:|\bdefault\s*:")
SWITCH_RE = re.compile(r"\bswitch\s*\(")
IF_RE = re.compile(r"(?<![\w#])if\s*\(")
TYPE_TABLE_RE = re.compile(r"\bType\s+(k?\w+)\s*\[[^\]]*\]\s*=\s*\{")
# A counter bump through a metric handle: `c_x_.incr()`, `n_.c_x_.incr()`.
COUNTER_RE = re.compile(r"\b(?:\w+\s*(?:\.|->)\s*)+incr\s*\(")
WSEQ_RE = re.compile(r'"(WSEQ[A-Z0-9]*)"')
WSEQ_HANDLE_RE = re.compile(r"argv\s*\[\s*0\s*\]\s*[!=]=")
WSEQ_SEND_RE = re.compile(
    r'(?:emplace_back|push_back)\s*\(\s*"(WSEQ[A-Z0-9]*)"|\{\s*"(WSEQ[A-Z0-9]*)"')


# tags: kTag names (empty for default-only); ignore: the body takes no action
CaseGroup = namedtuple("CaseGroup", "tags line ignore")


class Dispatcher:
    def __init__(self, sf, line, groups):
        self.sf = sf
        self.line = line
        self.groups = groups
        self.covered = {t for g in groups for t in g.tags}
        # A switch whose every group is an ignore group is a validity table
        # (e.g. decode()): it must be exhaustive but handles nothing.
        self.is_table = all(g.ignore for g in groups)


def _blank_nonactions(body: str) -> str:
    """Blank everything in a case-group body that is not real handling work:
    if-headers, braces, bare break/return, [[fallthrough]], counter bumps.
    Remaining non-space chars mark 'action' offsets."""
    buf = list(body)

    def blank(a, b):
        for i in range(a, b):
            if buf[i] != "\n":
                buf[i] = " "

    for m in IF_RE.finditer(body):
        op = body.find("(", m.start())
        blank(m.start(), match_paren(body, op) + 1)
    for m in COUNTER_RE.finditer(body):
        op = body.find("(", m.end() - 1)
        cp = match_paren(body, op)
        end = cp + 1
        if end < len(body) and body[end:end + 1] == ";":
            end += 1
        blank(m.start(), end)
    out = "".join(buf)
    out = re.sub(r"\bbreak\s*;|\breturn\s*;|\belse\b|\[\[\w+\]\]\s*;?|[{};]",
                 lambda m: " " * len(m.group(0)), out)
    return out


def protocol_of(sf) -> str | None:
    """The file's `// simlint:protocol(<name>)`, or None for shared code."""
    m = PROTOCOL_RE.search("\n".join(sf.raw))
    return m.group(1) if m else None


def parse_dispatchers(sf):
    """All switches over NodeMsg::Type in this file."""
    text = sf.text
    out = []
    for sm in SWITCH_RE.finditer(text):
        op = text.find("(", sm.start())
        cp = match_paren(text, op)
        bo = cp + 1
        while bo < len(text) and text[bo].isspace():
            bo += 1
        if bo >= len(text) or text[bo] != "{":
            continue
        bc = match_paren(text, bo)
        body = text[bo:bc + 1]
        if not CASE_RE.search(body):
            continue
        # depth per char so only this switch's own labels count
        depth = [0] * len(body)
        d = 0
        for i, c in enumerate(body):
            if c == "{":
                d += 1
            elif c == "}":
                d -= 1
            depth[i] = d
        labels = [(m.start(), m.end(), m.group(1))
                  for m in LABEL_RE.finditer(body) if depth[m.start()] == 1]
        if not labels:
            continue
        groups = []
        i = 0
        while i < len(labels):
            j = i
            tags = []
            while j < len(labels):
                a, b, tag = labels[j]
                if tag is not None:  # `default:` handles nothing
                    tags.append(tag)
                # group continues while only whitespace separates labels
                nxt = labels[j + 1] if j + 1 < len(labels) else None
                if nxt and body[b:nxt[0]].strip() == "":
                    j += 1
                    continue
                break
            gb_lo = labels[j][1]
            gb_hi = labels[j + 1][0] if j + 1 < len(labels) else len(body) - 1
            ignore = not _blank_nonactions(body[gb_lo:gb_hi]).strip()
            if tags or not ignore:
                groups.append(CaseGroup(
                    tags, sf.line_of(bo + labels[i][0]), ignore))
            i = j + 1
        out.append(Dispatcher(sf, sf.line_of(sm.start()), groups))
    return out


# ---------------------------------------------------------------------------
# Observe-only taint.

SINK_RES = [
    ("trace-note", re.compile(
        r"\bTrace\s*::\s*note\s*\(|\btrace\s*\(\s*\)\s*\.\s*note\s*\(|"
        r"\btrace_?\s*\.\s*note\s*\(")),
    ("event-schedule", re.compile(
        r"\b(?:sim_?|sim\s*\(\s*\))\s*(?:\.|->)\s*(?:after|schedule|at)\s*\(|"
        r"->\s*submit\s*\(")),
    ("cpu-consume", re.compile(r"(?:\.|->)\s*consume\s*\(")),
    ("channel-send", re.compile(r"(?:\.|->)\s*send\s*\(")),
    ("kv-mutation", re.compile(
        r"commands_table_\s*\.\s*execute|backlog_\s*\.\s*(?:append|reset)|"
        r"\brdb\s*::\s*load|\bdup_record\b")),
]


def taint_pass(files, findings):
    funcs = [f for sf in files for f in parse_funcs(sf)]
    by_name = defaultdict(list)
    for f in funcs:
        by_name[f.name].append(f)
    unique = {n: fs[0] for n, fs in by_name.items() if len(fs) == 1}
    direct = {}
    for f in funcs:
        body = f.sf.text[f.lo:f.hi]
        for kind, rx in SINK_RES:
            m = rx.search(body)
            if m:
                direct[f] = (kind, f.sf.line_of(f.lo + m.start()))
                break
    memo = {}

    def chase(f, stack):
        if f in memo:
            return memo[f]
        if f in direct:
            memo[f] = [(f, None, direct[f])]
            return memo[f]
        if f in stack:
            return None
        stack = stack | {f}
        for name, off in f.calls:
            callee = unique.get(name)
            if callee is None or callee is f:
                continue
            r = chase(callee, stack)
            if r:
                memo[f] = [(f, off, None)] + r
                return memo[f]
        memo[f] = None
        return None

    seeds = [f for f in funcs
             if f.annotated or "/obs/" in f.sf.path.as_posix()
             or f.sf.path.as_posix().startswith("obs/")]
    for f in seeds:
        chain = chase(f, frozenset())
        if not chain:
            continue
        head = chain[0]
        if head[2] is not None:      # direct sink in the seed itself
            line = head[2][1]
            sink = head[2][0]
            via = f.name
        else:
            line = f.sf.line_of(head[1])
            tail = chain[-1]
            sink = tail[2][0]
            via = " -> ".join(c[0].name for c in chain)
        if not f.sf.suppressed(line, "observe-taint"):
            findings.append(Finding(
                f.sf.path, line, "observe-taint",
                f"{sink} reachable via {via}"))


# ---------------------------------------------------------------------------
# Config-knob drift.

def knob_pass(files, struct_names, doc_text, findings):
    for sf in files:
        for sm in re.finditer(
                r"\bstruct\s+(" + "|".join(map(re.escape, struct_names))
                + r")\b[^;{]*\{", sf.text):
            bo = sf.text.index("{", sm.start())
            bc = match_paren(sf.text, bo)
            span = list(sf.text[bo + 1:bc])
            # blank nested brace groups (default member init, sub-aggregates)
            d = 0
            for i, c in enumerate(span):
                if c == "{":
                    d += 1
                if d > 0 and c != "\n":
                    span[i] = " "
                if c == "}":
                    d -= 1
            flat = "".join(span)
            base = bo + 1
            for stmt_m in re.finditer(r"[^;]*;", flat):
                stmt = stmt_m.group(0)
                left = stmt.split("=")[0]
                if "(" in left or ")" in left:
                    continue
                fm = re.search(r"[\w:<>,&*\s]+?\b(\w+)\s*(?:\[[^\]]*\]\s*)?"
                               r"(?:=[^;]*)?;\s*$", stmt)
                if not fm:
                    continue
                name = fm.group(1)
                if name in ("struct", "class", "public", "private", "using",
                            "typedef", "enum"):
                    continue
                if re.match(r"\s*(?:using|typedef|friend|static_assert)\b",
                            stmt):
                    continue
                line = sf.line_of(base + stmt_m.start() + fm.start(1))
                if re.search(r"\b" + re.escape(name) + r"\b", doc_text):
                    continue
                if not sf.suppressed(line, "knob-drift"):
                    findings.append(Finding(
                        sf.path, line, "knob-drift",
                        f"{sm.group(1)}::{name} not mentioned in the knob "
                        f"documentation"))


# ---------------------------------------------------------------------------
# Driver.

def check(files: list[SourceFile], doc_text: str | None) -> list[Finding]:
    findings: list[Finding] = []

    # --- enums ------------------------------------------------------------
    by_char: dict[str, str] = {}
    enum_values: list[str] = []
    for sf in files:
        for em in ENUM_TYPE_RE.finditer(sf.text):
            bo = sf.text.index("{", em.start())
            bc = match_paren(sf.text, bo)
            for m in ENUM_ENTRY_RE.finditer(sf.nocomment_text, bo, bc):
                name, ch, line = m.group(1), m.group(2), sf.line_of(m.start())
                enum_values.append(name)
                if ch in by_char and by_char[ch] != name:
                    if not sf.suppressed(line, "duplicate-tag"):
                        findings.append(Finding(
                            sf.path, line, "duplicate-tag",
                            f"{name} and {by_char[ch]} both use tag '{ch}'"))
                else:
                    by_char.setdefault(ch, name)
    enum_set = set(enum_values)

    # --- dispatchers, tables, sends ---------------------------------------
    dispatchers = []
    for sf in files:
        dispatchers.extend(parse_dispatchers(sf))
    tables = []  # (sf, line, covered set)
    for sf in files:
        for tm in TYPE_TABLE_RE.finditer(sf.text):
            bo = sf.text.index("{", tm.end() - 1)
            bc = match_paren(sf.text, bo)
            covered = set(re.findall(r"\bType\s*::\s*(k\w+)",
                                     sf.text[bo:bc]))
            if covered:
                tables.append((sf, sf.line_of(tm.start()), covered))
    # Send and handler sites carry their file's protocol (None = shared).
    sends = defaultdict(list)  # tag -> [(sf, line, protocol)]
    active = defaultdict(list)  # tag -> [(sf, line, protocol)]
    for sf in files:
        proto = protocol_of(sf)
        for m in SEND_RE.finditer(sf.text):
            sends[m.group(1)].append((sf, sf.line_of(m.start()), proto))
        for m in CMP_RE.finditer(sf.text):
            active[m.group(1)].append((sf, sf.line_of(m.start()), proto))

    # --- unhandled-tag ----------------------------------------------------
    if enum_set:
        for d in dispatchers:
            missing = sorted(enum_set - d.covered)
            if missing and not d.sf.suppressed(d.line, "unhandled-tag"):
                findings.append(Finding(
                    d.sf.path, d.line, "unhandled-tag",
                    "switch misses " + ", ".join(missing)))
        for sf, line, covered in tables:
            missing = sorted(enum_set - covered)
            if missing and not sf.suppressed(line, "unhandled-tag"):
                findings.append(Finding(
                    sf.path, line, "unhandled-tag",
                    "type table misses " + ", ".join(missing)))

    # --- dead-send / dead-handler ----------------------------------------
    cased = set()
    for d in dispatchers:
        if d.is_table:
            cased |= d.covered
            continue
        for g in d.groups:
            cased |= set(g.tags)
            if not g.ignore:
                for t in g.tags:
                    active[t].append((d.sf, g.line, protocol_of(d.sf)))
    for tag in sorted(enum_set | set(sends) | set(active)):
        ssites = sends.get(tag, [])
        handlers = active.get(tag, [])
        if ssites and not handlers:
            sf, line, _ = ssites[0]
            if not sf.suppressed(line, "dead-send"):
                detail = ("never named in any dispatch switch"
                          if tag not in cased else
                          "every dispatch switch explicitly ignores it")
                findings.append(Finding(sf.path, line, "dead-send",
                                        f"{tag} is sent but {detail}"))
            continue
        if ssites and handlers:
            # Shared code runs under every protocol, so a shared site on
            # the other side covers any protocol file.
            s_protos = {p for _, _, p in ssites}
            h_protos = {p for _, _, p in handlers}
            for sf, line, p in ssites:
                if None not in h_protos and p not in h_protos \
                        and not sf.suppressed(line, "dead-send"):
                    findings.append(Finding(
                        sf.path, line, "dead-send",
                        f"{tag} sent from {p or 'shared'} code but handled "
                        f"only in {', '.join(sorted(h_protos))} protocol "
                        f"files"))
            for sf, line, p in handlers:
                if None not in s_protos and p is not None \
                        and p not in s_protos \
                        and not sf.suppressed(line, "dead-handler"):
                    findings.append(Finding(
                        sf.path, line, "dead-handler",
                        f"{tag} handled in {p} protocol files but sent only "
                        f"from {', '.join(sorted(s_protos))} protocol files"))
        if not ssites and handlers:
            for sf, line, _ in handlers:
                if not sf.suppressed(line, "dead-handler"):
                    findings.append(Finding(
                        sf.path, line, "dead-handler",
                        f"{tag} has an active handler but no send site "
                        f"exists anywhere"))

    # --- repl-command -----------------------------------------------------
    cmd_sites = defaultdict(lambda: {"send": [], "handle": []})
    for sf in files:
        for lineno, line in enumerate(sf.nocomment, 1):
            for m in WSEQ_RE.finditer(line):
                cmd = m.group(1)
                rec = cmd_sites[cmd]
                if WSEQ_HANDLE_RE.search(line):
                    rec["handle"].append((sf, lineno))
                sm = WSEQ_SEND_RE.search(line)
                if sm and (sm.group(1) or sm.group(2)) == cmd:
                    rec["send"].append((sf, lineno))
    for cmd in sorted(cmd_sites):
        rec = cmd_sites[cmd]
        for side, other in (("send", "handle"), ("handle", "send")):
            if rec[side] and not rec[other]:
                sf, line = rec[side][0]
                if not sf.suppressed(line, "repl-command"):
                    findings.append(Finding(
                        sf.path, line, "repl-command",
                        f"{cmd} has {len(rec[side])} {side} site(s) but no "
                        f"{other} site"))

    # --- observe-taint ----------------------------------------------------
    taint_pass(files, findings)

    # --- knob-drift -------------------------------------------------------
    if doc_text is not None:
        knob_pass(files, KNOB_STRUCTS, doc_text, findings)

    return findings
