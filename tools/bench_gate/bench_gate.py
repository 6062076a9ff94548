#!/usr/bin/env python3
"""bench_gate: perf-trajectory recorder and regression gate.

Consumes the schema-v1 ``JSON: {...}`` line a bench binary prints (see
EXPERIMENTS.md, "Bench JSON schema") and maintains a trajectory database —
a checked-in JSON file holding the recorded runs, newest last:

    {"schema_version": 1, "figure": "ycsb",
     "runs": [{"recorded_at_commit": "<sha>", "profile": "full",
               "series": [...]}, ...]}

Commands:

  record   Append the bench output as a new run of its profile.
           The working-tree commit is stamped for provenance.
  check    Diff the bench output against the *latest recorded run of the
           same profile*, field for field. The simulator is deterministic,
           so an unchanged model reproduces the recorded series exactly:
           any differing field — a throughput, a percentile, an error
           count, a config scalar — fails, and so does a series present on
           only one side. Each difference is printed with both values and
           the exit code is 1. An intended behaviour change re-records.
"""

import argparse
import json
import subprocess
import sys


def read_bench_doc(path):
    """The last `JSON: {...}` line of a bench output file ('-' = stdin)."""
    text = sys.stdin.read() if path == "-" else open(path).read()
    doc_line = None
    for line in text.splitlines():
        if line.startswith("JSON: "):
            doc_line = line[len("JSON: "):]
    if doc_line is None:
        raise SystemExit("bench_gate: no 'JSON: ' line in %s" % path)
    doc = json.loads(doc_line)
    if doc.get("schema_version") != 1:
        raise SystemExit("bench_gate: unsupported schema_version %r"
                         % doc.get("schema_version"))
    return doc


def load_db(path):
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        return None


def profile_of(doc):
    """The run's profile, taken from its series scalars (must agree)."""
    profiles = {s.get("profile", "default") for s in doc.get("series", [])}
    if len(profiles) != 1:
        raise SystemExit("bench_gate: bench output mixes profiles %s"
                         % sorted(profiles))
    return profiles.pop()


def head_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def cmd_record(args):
    doc = read_bench_doc(args.bench_output)
    db = load_db(args.db)
    if db is None:
        db = {"schema_version": 1, "figure": doc["figure"], "runs": []}
    if db.get("figure") != doc["figure"]:
        raise SystemExit("bench_gate: db is for figure %r, output is %r"
                         % (db.get("figure"), doc["figure"]))
    run = {
        "recorded_at_commit": args.commit or head_commit(),
        "profile": profile_of(doc),
        "series": doc["series"],
    }
    db["runs"].append(run)
    with open(args.db, "w") as f:
        json.dump(db, f, indent=1)
        f.write("\n")
    print("bench_gate: recorded run #%d (profile '%s', %d series) into %s"
          % (len(db["runs"]), run["profile"], len(run["series"]), args.db))
    return 0


ABSENT = "<absent>"


def point_label(i, item):
    """`points[op=all]` for op-keyed points, else the list index."""
    if isinstance(item, dict) and "op" in item:
        return "[op=%s]" % item["op"]
    return "[%d]" % i


def diff_fields(base, cur, path, out):
    """Append a (field path, baseline value, current value) row for every
    field that differs between two JSON values."""
    if isinstance(base, dict) and isinstance(cur, dict):
        for key in sorted(set(base) | set(cur)):
            sub = "%s.%s" % (path, key) if path else key
            diff_fields(base.get(key, ABSENT), cur.get(key, ABSENT), sub, out)
    elif isinstance(base, list) and isinstance(cur, list):
        for i in range(max(len(base), len(cur))):
            b = base[i] if i < len(base) else ABSENT
            c = cur[i] if i < len(cur) else ABSENT
            diff_fields(b, c, path + point_label(i, c if b is ABSENT else b),
                        out)
    elif base != cur:
        out.append((path, base, cur))


def cmd_check(args):
    doc = read_bench_doc(args.bench_output)
    profile = profile_of(doc)
    db = load_db(args.db)
    baseline = None
    if db is not None and db.get("figure") == doc["figure"]:
        for run in db.get("runs", []):
            if run.get("profile") == profile:
                baseline = run  # newest matching run wins
    if baseline is None:
        msg = ("bench_gate: no recorded baseline for figure %r profile %r"
               % (doc["figure"], profile))
        if args.require_baseline:
            raise SystemExit(msg)
        print(msg + " — nothing to gate against, passing")
        return 0

    base_by_name = {s["name"]: s for s in baseline["series"]}
    cur_by_name = {s["name"]: s for s in doc["series"]}
    diffs = []
    for name in sorted(set(base_by_name) | set(cur_by_name)):
        base = base_by_name.get(name)
        cur = cur_by_name.get(name)
        if base is None or cur is None:
            diffs.append((name, "(series)",
                          "present" if base else ABSENT,
                          "present" if cur else ABSENT))
            continue
        rows = []
        diff_fields(base, cur, "", rows)
        diffs.extend((name, field, b, c) for field, b, c in rows)

    commit = baseline.get("recorded_at_commit", "?")
    if diffs:
        print("bench_gate: FAIL — %d field(s) differ from baseline @ %s:"
              % (len(diffs), commit))
        for name, field, b, c in diffs:
            print("  %-32s %-24s %s -> %s" % (name, field, b, c))
        return 1
    print("bench_gate: OK — %d series identical to baseline @ %s"
          % (len(cur_by_name), commit))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(prog="bench_gate")
    sub = ap.add_subparsers(dest="cmd", required=True)

    rec = sub.add_parser("record", help="append a run to the trajectory db")
    rec.add_argument("--bench-output", required=True,
                     help="bench stdout capture ('-' = stdin)")
    rec.add_argument("--db", required=True, help="trajectory JSON file")
    rec.add_argument("--commit", default=None,
                     help="override the recorded commit id")
    rec.set_defaults(func=cmd_record)

    chk = sub.add_parser("check", help="gate a run against the baseline")
    chk.add_argument("--bench-output", required=True,
                     help="bench stdout capture ('-' = stdin)")
    chk.add_argument("--db", required=True, help="trajectory JSON file")
    chk.add_argument("--require-baseline", action="store_true",
                     help="fail when the db has no run for this profile")
    chk.set_defaults(func=cmd_check)

    args = ap.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
