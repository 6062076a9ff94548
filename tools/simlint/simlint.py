#!/usr/bin/env python3
"""simlint — the project lint for the SKV DES.

Every source file is parsed once by the text frontend (frontend.py) and
three rule packs run over the parsed set:

  determinism  raw-rng, wall-clock, unordered-iteration, bare-assert,
               stdout-io                               (determinism.py)
  ownership    cycle, use-after-move, unchecked-status,
               reentrant-handler                       (ownership.py)
  protocol     duplicate-tag, unhandled-tag, dead-send, dead-handler,
               repl-command, observe-taint, knob-drift (protocol.py)

Each pack module documents its rules; DESIGN.md §9, §10 and §14 give the
rationale. Rule names are unique across packs.

Suppressions
  A finding on line N is suppressed by a comment on line N or line N-1:
      // simlint:allow(<rule>) <reason>
  The reason is mandatory; an allow-comment without one, or one naming an
  unknown rule, is a configuration error.

Usage
  simlint.py --compile-commands build/compile_commands.json --src-root src
  simlint.py file1.cpp file2.hpp [--doc knobs.md]   # explicit files

knob-drift needs the knob documentation: --doc, or by default the
EXPERIMENTS.md next to --src-root when the file list comes from
--compile-commands. Without it the knob check is skipped.

Exit status: 0 clean, 1 findings, 2 usage/configuration error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import determinism
import ownership
import protocol
from frontend import Finding, SourceFile, files_from_compile_commands

PACKS = (determinism, ownership, protocol)


def merge_rules(packs) -> dict[str, str]:
    """One rule table over all packs. A name defined by two packs would
    silently shadow one of them in a plain dict merge, so it is an error."""
    rules: dict[str, str] = {}
    for pack in packs:
        for name, msg in pack.RULES.items():
            if name in rules:
                raise ValueError(f"rule '{name}' is defined by more than one "
                                 f"pack (second: {pack.__name__})")
            rules[name] = msg
    return rules


RULES = merge_rules(PACKS)


def report(findings: list[Finding], file_count: int) -> int:
    """Print findings (sorted for stable output) and the summary line;
    return the process exit status."""
    findings.sort(key=lambda f: (str(f.path), f.line, f.rule))
    for fi in findings:
        print(fi.render(RULES))
    if findings:
        print(f"simlint: {len(findings)} finding(s) in {file_count} file(s)",
              file=sys.stderr)
        return 1
    print(f"simlint: clean ({file_count} files)", file=sys.stderr)
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("files", nargs="*", type=Path,
                    help="explicit files to lint (overrides --compile-commands)")
    ap.add_argument("--compile-commands", type=Path,
                    help="compile_commands.json to take the file list from")
    ap.add_argument("--src-root", type=Path, default=Path("src"),
                    help="only lint files under this root (default: src)")
    ap.add_argument("--doc", type=Path,
                    help="knob documentation for knob-drift (default: "
                         "EXPERIMENTS.md next to --src-root with "
                         "--compile-commands)")
    args = ap.parse_args()

    if args.files:
        paths = args.files
    elif args.compile_commands:
        paths = files_from_compile_commands(args.compile_commands,
                                            args.src_root)
    else:
        ap.error("need either explicit files or --compile-commands")
    if not paths:
        print("simlint: no files to lint", file=sys.stderr)
        return 2

    doc = args.doc
    if doc is None and args.compile_commands and not args.files:
        doc = args.src_root.resolve().parent / "EXPERIMENTS.md"
        doc = doc if doc.exists() else None
    doc_text = None
    if doc is not None:
        try:
            doc_text = doc.read_text()
        except OSError as e:
            print(f"simlint: cannot read --doc {doc}: {e}", file=sys.stderr)
            return 2

    files = [SourceFile(p, RULES) for p in paths]
    findings: list[Finding] = []
    for pack in PACKS:
        findings.extend(pack.check(files, doc_text))
    return report(findings, len(files))


if __name__ == "__main__":
    sys.exit(main())
