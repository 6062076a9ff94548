#!/usr/bin/env python3
"""Self-test for bench_gate: record/check round-trip, exact series
comparison, profile isolation. Run by ctest as bench_gate_selftest."""

import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_gate  # noqa: E402

FAILED = 0


def check(name, cond):
    global FAILED
    if cond:
        print("  ok   %s" % name)
    else:
        print("  FAIL %s" % name)
        FAILED = 1


def bench_output(profile, kops, p99, failed=0, name="ycsb-A/zipfian/fanout"):
    doc = {
        "schema_version": 1,
        "figure": "ycsb",
        "series": [{
            "name": name,
            "profile": profile,
            "achieved_kops": kops,
            "failed": failed,
            "timed_out": 0,
            "points": [{"op": "all", "kops": kops, "p99_us": p99,
                        "p999_us": p99 * 1.5}],
        }],
    }
    return "noise line\nJSON: %s\n" % json.dumps(doc)


def write(path, text):
    with open(path, "w") as f:
        f.write(text)


def run(argv):
    try:
        return bench_gate.main(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 1


def main():
    tmp = tempfile.mkdtemp(prefix="bench_gate_selftest.")
    db = os.path.join(tmp, "BENCH_test.json")
    out = os.path.join(tmp, "bench.out")

    print("bench_gate selftest:")

    # No baseline: check passes unless --require-baseline.
    write(out, bench_output("smoke", 20.0, 15.0))
    check("no-baseline passes",
          run(["check", "--bench-output", out, "--db", db]) == 0)
    check("no-baseline fails with --require-baseline",
          run(["check", "--bench-output", out, "--db", db,
               "--require-baseline"]) != 0)

    # Record, then an identical run gates green.
    check("record succeeds",
          run(["record", "--bench-output", out, "--db", db,
               "--commit", "c0ffee"]) == 0)
    check("identical run passes",
          run(["check", "--bench-output", out, "--db", db,
               "--require-baseline"]) == 0)

    # Exact comparison: a one-digit drift in a p99 fails, and so does an
    # improvement — the simulator is deterministic, any change is drift.
    write(out, bench_output("smoke", 20.0, 15.001))
    check("one-digit p99 drift fails",
          run(["check", "--bench-output", out, "--db", db]) == 1)
    write(out, bench_output("smoke", 20.5, 15.0))
    check("throughput improvement fails",
          run(["check", "--bench-output", out, "--db", db]) == 1)

    # An added error fails.
    write(out, bench_output("smoke", 20.0, 15.0, failed=1))
    check("added error fails",
          run(["check", "--bench-output", out, "--db", db]) == 1)

    # Profile isolation: a 'full' run has no 'smoke' baseline.
    write(out, bench_output("full", 40.0, 15.0))
    check("other profile has no baseline",
          run(["check", "--bench-output", out, "--db", db,
               "--require-baseline"]) != 0)

    # Recording appends: the newest run of the profile is the baseline.
    write(out, bench_output("smoke", 30.0, 10.0))
    run(["record", "--bench-output", out, "--db", db, "--commit", "c0ffef"])
    with open(db) as f:
        trajectory = json.load(f)
    check("trajectory keeps both runs", len(trajectory["runs"]) == 2)
    check("gates against newest run",
          run(["check", "--bench-output", out, "--db", db]) == 0)
    write(out, bench_output("smoke", 20.0, 15.0))
    check("old-baseline numbers now fail",
          run(["check", "--bench-output", out, "--db", db]) == 1)

    # A series present on only one side fails.
    write(out, bench_output("smoke", 30.0, 10.0, name="ycsb-Z/zipfian/fanout"))
    check("renamed series fails",
          run(["check", "--bench-output", out, "--db", db]) == 1)

    # The failure report names the field and both values.
    write(out, bench_output("smoke", 30.0, 10.25))
    rows = []
    bench_gate.diff_fields(trajectory["runs"][-1]["series"][0],
                           json.loads(open(out).read().split("JSON: ")[1])
                           ["series"][0], "", rows)
    check("report names points[op=all].p99_us",
          ("points[op=all].p99_us", 10.0, 10.25) in rows)

    if FAILED:
        print("bench_gate selftest: FAILED")
        return 1
    print("bench_gate selftest: all passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
