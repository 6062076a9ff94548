#!/usr/bin/env python3
"""Self-test for simlint: runs the linter over fixtures/<pack>/ and asserts
that each rule fires where seeded, clean and suppressed fixtures pass,
allow-comments and exit codes behave, and --doc / --compile-commands
scoping work. It also checks the rule table itself: names are unique
across packs and every rule is fired by at least one bad fixture, so the
fixtures are the specification. Registered as the ctest `simlint_selftest`.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import simlint

HERE = Path(__file__).resolve().parent
LINT = HERE / "simlint.py"
FIXTURES = HERE / "fixtures"

checks = 0
failures: list[str] = []
fired: set[str] = set()


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(LINT), *args],
                          capture_output=True, text=True)


def expect(name: str, cond: bool, context: str = "") -> None:
    global checks
    checks += 1
    if cond:
        print(f"  ok  {name}")
    else:
        print(f"FAIL  {name}\n{context}")
        failures.append(name)


def count(out: str, rule: str) -> int:
    return out.count(f"[{rule}]")


def check_bad(fixture: str, rule: str, min_findings: int = 1,
              *extra: str) -> str:
    """A bad fixture must exit 1 with >= min_findings of the given rule,
    each carrying a file:line prefix. Returns stdout for extra checks."""
    r = run(str(FIXTURES / fixture), *extra)
    fired.update(re.findall(r"^\S+:\d+: \[([\w-]+)\]", r.stdout, re.M))
    hits = [l for l in r.stdout.splitlines() if f"[{rule}]" in l]
    expect(f"{fixture} exits 1", r.returncode == 1,
           f"rc={r.returncode}\n{r.stdout}{r.stderr}")
    expect(f"{fixture} reports >= {min_findings} [{rule}]",
           len(hits) >= min_findings, r.stdout)
    for l in hits:
        path, _, line = l.split(" ")[0].rstrip(":").rpartition(":")
        expect(f"{fixture} finding is file:line addressable",
               path.endswith(fixture) and line.isdigit(), l)
    return r.stdout


def check_passes(fixture: str) -> None:
    r = run(str(FIXTURES / fixture))
    expect(f"{fixture} passes", r.returncode == 0 and not r.stdout.strip(),
           f"rc={r.returncode}\n{r.stdout}{r.stderr}")


# --- clean and suppressed fixtures pass under every pack ---------------------
for clean in ("determinism/clean.cpp", "determinism/suppressed.cpp",
              "ownership/clean_weak.cpp", "ownership/suppressed.cpp",
              "protocol/clean.cpp", "protocol/suppressed.cpp"):
    check_passes(clean)

# --- determinism pack --------------------------------------------------------
check_bad("determinism/bad_raw_rng.cpp", "raw-rng", 4)
check_bad("determinism/bad_wall_clock.cpp", "wall-clock", 5)
out = check_bad("determinism/bad_unordered_iteration.cpp",
                "unordered-iteration", 2)
expect("point lookups on unordered containers are not flagged",
       len(out.splitlines()) == 2, out)
out = check_bad("determinism/bad_bare_assert.cpp", "bare-assert", 1)
expect("static_assert is not flagged", count(out, "bare-assert") == 1, out)
out = check_bad("determinism/bad_stdout_io.cpp", "stdout-io", 3)
expect("snprintf/fprintf(stderr) are not flagged",
       count(out, "stdout-io") == 3, out)

with tempfile.TemporaryDirectory() as td:
    # The blessed implementations keep their exemptions.
    sim = Path(td) / "src" / "sim"
    sim.mkdir(parents=True)
    rng = sim / "rng.cpp"
    rng.write_text("#include <random>\nstd::mt19937 g; // blessed home\n")
    clock = sim / "time.cpp"
    clock.write_text("#include <chrono>\nauto t = "
                     "std::chrono::steady_clock::now();\n")
    r = run(str(rng), str(clock))
    expect("src/sim/rng.* and src/sim/time.* are exempt from their rules",
           r.returncode == 0, f"rc={r.returncode}\n{r.stdout}")

    # src/obs/export* is the single blessed stdout writer in library code;
    # any other obs file writing to stdout is still a finding.
    obs = Path(td) / "src" / "obs"
    obs.mkdir(parents=True)
    exporter = obs / "export.cpp"
    exporter.write_text('#include <cstdio>\n'
                        'void emit() { printf("JSON: {}\\n"); }\n')
    other = obs / "metrics.cpp"
    other.write_text('#include <cstdio>\n'
                     'void leak() { printf("nope\\n"); }\n')
    r = run(str(exporter))
    expect("src/obs/export* is exempt from stdout-io",
           r.returncode == 0 and not r.stdout.strip(),
           f"rc={r.returncode}\n{r.stdout}")
    r = run(str(other))
    expect("other src/obs files still trigger stdout-io",
           r.returncode == 1 and "[stdout-io]" in r.stdout,
           f"rc={r.returncode}\n{r.stdout}")

# --- ownership pack ----------------------------------------------------------
out = check_bad("ownership/cycle_basic.cpp", "cycle")
expect("cycle path names the member edge", "member 'channel'" in out, out)
expect("cycle path names the capture edge",
       "set_on_message handler captures" in out, out)
expect("cycle path carries both classes",
       "ClientConn -> Channel" in out and "Channel -> ClientConn" in out, out)

out = check_bad("ownership/cycle_wrap.cpp", "cycle")
expect("cycle through a ReliableChannel::wrap handler is found",
       "wrap handler captures" in out and "NodeConn -> Channel" in out, out)

out = check_bad("ownership/bad_use_after_move.cpp", "use-after-move")
expect("use-after-move reports exactly the one bad function",
       count(out, "use-after-move") == 1, out)
expect("use-after-move names the moved identifier", "'payload'" in out, out)

out = check_bad("ownership/bad_unchecked_status.cpp", "unchecked-status", 2)
expect("unchecked-status flags discarded poll",
       "polled and discarded" in out, out)
expect("unchecked-status flags unread batch",
       "never reads .success" in out, out)

out = check_bad("ownership/bad_reentrant_handler.cpp", "reentrant-handler")
expect("reentrant-handler reports only the synchronous handlers",
       count(out, "reentrant-handler") == 2, out)

# --- protocol pack -----------------------------------------------------------
out = check_bad("protocol/bad_duplicate_tag.cpp", "duplicate-tag")
expect("duplicate-tag names both enumerators and the char",
       "kBeta" in out and "kAlpha" in out and "'x'" in out, out)

out = check_bad("protocol/bad_unhandled_tag.cpp", "unhandled-tag", 2)
expect("unhandled-tag: default does not count as handling",
       "switch misses kBeta, kGamma" in out, out)
expect("unhandled-tag: stale type tables are caught",
       "type table misses kGamma" in out, out)

out = check_bad("protocol/bad_dead_send.cpp", "dead-send")
expect("dead-send names the ignored-everywhere tag",
       "kDrop" in out and "explicitly ignores" in out, out)
expect("dead-send does not flag the handled tag", "kKeep" not in out, out)

out = check_bad("protocol/bad_dead_handler.cpp", "dead-handler")
expect("dead-handler names the never-sent tag",
       "kGhost" in out and "no send site" in out, out)
expect("dead-handler does not flag the live tag", "kLive" not in out, out)

out = check_bad("protocol/bad_mode_mismatch.cpp", "dead-send", 1,
                str(FIXTURES / "protocol" / "bad_mode_mismatch_quorum.cpp"))
expect("mode mismatch: send side names the sending protocol",
       "kState sent from chain code but handled only in quorum" in out, out)
expect("mode mismatch: handler side also flagged",
       "[dead-handler]" in out and "kState handled in quorum" in out, out)
expect("mode mismatch: the shared tag stays clean", "kData" not in out, out)

out = check_bad("protocol/bad_repl_command.cpp", "repl-command")
expect("repl-command names the orphaned command and missing side",
       "WSEQX" in out and "no handle site" in out, out)

out = check_bad("protocol/bad_observe_taint.cpp", "observe-taint")
expect("observe-taint reports the transitive chain",
       "sample -> nudge" in out and "event-schedule" in out, out)

out = check_bad("protocol/src/obs/bad_obs_sink.cpp", "observe-taint")
expect("obs/ files are observe-only without annotation",
       "trace-note" in out, out)

knobs_doc = str(FIXTURES / "protocol" / "knobs_doc.md")
out = check_bad("protocol/bad_knob.hpp", "knob-drift", 1, "--doc", knobs_doc)
expect("knob-drift flags only the undocumented field",
       "mystery_knob" in out and "documented_knob" not in out, out)
expect("knob-drift allow-comment works", "excused_knob" not in out, out)

r = run(str(FIXTURES / "protocol" / "bad_knob.hpp"),
        "--doc", str(FIXTURES / "protocol" / "no_such_doc.md"))
expect("missing --doc file exits 2", r.returncode == 2,
       f"rc={r.returncode}\n{r.stdout}{r.stderr}")
r = run(str(FIXTURES / "protocol" / "bad_knob.hpp"))
expect("knob pass is skipped without a doc", r.returncode == 0,
       f"rc={r.returncode}\n{r.stdout}{r.stderr}")

# --- suppression plumbing ----------------------------------------------------
for pack in ("determinism", "ownership", "protocol"):
    r = run(str(FIXTURES / pack / "bad_allow_missing_reason.cpp"))
    expect(f"{pack}: allow without reason exits 2", r.returncode == 2,
           f"rc={r.returncode}\n{r.stdout}{r.stderr}")
    expect(f"{pack}: allow without reason names the problem",
           "missing the mandatory reason" in r.stderr, r.stderr)

with tempfile.TemporaryDirectory() as td:
    bad = Path(td) / "unknown_rule.cpp"
    bad.write_text("// simlint:allow(not-a-rule) whatever\nint x;\n")
    r = run(str(bad))
    expect("allow with unknown rule exits 2", r.returncode == 2,
           f"rc={r.returncode}\n{r.stdout}{r.stderr}")
    for known in ("raw-rng", "cycle", "dead-send"):
        expect(f"unknown rule message lists known rule {known}",
               "unknown rule" in r.stderr and known in r.stderr, r.stderr)

# --- compile-commands scoping + header sweep ---------------------------------
# One violation per pack in each file: a TU inside --src-root, a header that
# only the sweep finds, and a TU outside the root that must be ignored.
VIOLATIONS = ("struct NodeMsg{n} {{\n"
              "  enum class Type : char {{ kA{n} = '{n}', kB{n} = '{n}' }};\n"
              "}};\n"
              "struct Cq{n} {{ int poll(); }};\n"
              "inline int f{n}(Cq{n}* cq) {{\n"
              "    cq->poll();\n"
              "    return rand();\n"
              "}}\n")
CC_RULES = (("duplicate-tag", 2), ("unchecked-status", 6), ("raw-rng", 7))
with tempfile.TemporaryDirectory() as td:
    root = Path(td)
    src = root / "src"
    src.mkdir()
    (src / "inside.cpp").write_text(VIOLATIONS.format(n=1))
    (src / "swept.hpp").write_text(VIOLATIONS.format(n=2))
    outside = root / "outside.cpp"
    outside.write_text(VIOLATIONS.format(n=3))
    (root / "compile_commands.json").write_text(json.dumps([
        {"directory": str(root), "file": str(src / "inside.cpp"),
         "command": "c++ -c inside.cpp"},
        {"directory": str(root), "file": str(outside),
         "command": "c++ -c outside.cpp"},
    ]))
    r = run("--compile-commands", str(root / "compile_commands.json"),
            "--src-root", str(src))
    for rule, line in CC_RULES:
        expect(f"compile-commands: src file linted [{rule}]",
               f"inside.cpp:{line}: [{rule}]" in r.stdout, r.stdout)
        expect(f"compile-commands: headers under src swept [{rule}]",
               f"swept.hpp:{line}: [{rule}]" in r.stdout, r.stdout)
    expect("compile-commands: files outside src-root ignored",
           r.returncode == 1 and "outside.cpp" not in r.stdout, r.stdout)

# --- the rule table ----------------------------------------------------------
# Importing simlint already merged the real packs; a duplicate name must be
# an error there rather than silently shadowing one pack's rule.
shadow = types.SimpleNamespace(__name__="shadow", RULES={"cycle": "again"})
try:
    simlint.merge_rules((*simlint.PACKS, shadow))
    rejected = ""
except ValueError as e:
    rejected = str(e)
expect("a rule defined by two packs is rejected at merge",
       "'cycle'" in rejected and "shadow" in rejected, rejected)
for rule in simlint.RULES:
    expect(f"[{rule}] is fired by a bad fixture", rule in fired,
           f"fired: {sorted(fired)}")

# -----------------------------------------------------------------------------
if failures:
    print(f"\nsimlint selftest: {len(failures)} of {checks} check(s) failed")
    sys.exit(1)
print(f"\nsimlint selftest: all {checks} checks passed")
sys.exit(0)
