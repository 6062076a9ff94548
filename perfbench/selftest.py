#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py [--seeds 7,1009] [--workloads a,b,...]

Run from the root of a checkout. Exits 0 only when every check passes:

1. Trajectory cross-check. `skv_perf xcheck` runs bench_ycsb's full profile
   (A/zipfian/fanout, seed 42) with preload called from the benchmark, as
   every benchmark run does. Its numbers must equal the series recorded in
   BENCH_ycsb.json exactly, which shows that moving preload out of
   run_open_loop kept the RNG fork order.
2. Observe-only. For each workload, the simulated results and the trace
   digest must be byte-identical across an untraced run, a run with the
   observe-only sampler, the traced run, and the `-pg` build.
3. Held-out seeds. For each seed, `run.py --trace 0` and `--trace 1` must
   pass every correctness check, and one seed run in two processes must give
   byte-identical simulated output. Gain claims made later must also hold on
   a seed that was not used while writing them.
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

BENCHMARKED = ("ycsb-a-skv", "ycsb-b-big", "ycsb-a-quorum-4k")

failures = []


def check(ok, what):
    print("%s  %s" % ("ok  " if ok else "FAIL", what), flush=True)
    if not ok:
        failures.append(what)


def raw_tool(exe, args, cwd=None):
    """stdout of one skv_perf invocation (must exit 0)."""
    proc = subprocess.run([exe] + args, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        bench.fail("skv_perf %s exited with %d" % (" ".join(args),
                                                  proc.returncode))
    return proc.stdout.strip().splitlines()[-1]


def raw_object(text, key):
    """The exact bytes of the JSON object `"key":{...}` inside `text`."""
    start = text.index('"%s":{' % key) + len(key) + 3
    depth = 0
    for i in range(start, len(text)):
        depth += {"{": 1, "}": -1}.get(text[i], 0)
        if depth == 0:
            return text[start:i + 1]
    raise ValueError("unterminated object " + key)


def trajectory_crosscheck(rel):
    path = os.path.join(bench.ROOT, "BENCH_ycsb.json")
    with open(path) as f:
        doc = json.load(f)
    full = [r for r in doc["runs"] if r["profile"] == "full"]
    recorded = next(s for s in full[-1]["series"]
                    if s["name"] == "ycsb-A/zipfian/fanout")
    got = json.loads(raw_tool(rel, ["xcheck", "--seed", str(recorded["seed"])]))
    same = all(got[k] == recorded[k] for k in got if k != "points")
    same = same and got["points"] == recorded["points"]
    check(same, "xcheck reproduces BENCH_ycsb.json ycsb-A/zipfian/fanout "
                "(achieved %.3f kops, p99 %.3f us)"
          % (got["achieved_kops"], got["points"][0]["p99_us"]))


def observe_only(rel, pg, workload, seed):
    args = ["--workload", workload, "--seed", str(seed)]
    untraced = raw_tool(rel, ["run"] + args)
    plain = raw_object(untraced, "sim")
    with_sampler = raw_tool(rel, ["run"] + args + ["--observer", "1"])
    sampled = raw_object(with_sampler, "sim")
    trace = raw_tool(rel, ["trace"] + args)
    traced = raw_object(trace, "sim")
    gdir = os.path.join(bench.build_root(), "pg-run")
    os.makedirs(gdir, exist_ok=True)
    profiled = raw_object(raw_tool(pg, ["run"] + args, cwd=gdir), "sim")
    check(sampled == plain, "%s: sampler on/off byte-identical" % workload)
    check(traced == plain, "%s: traced/untraced byte-identical" % workload)
    check(profiled == plain, "%s: -pg build byte-identical" % workload)
    ratio = (json.loads(trace)["run_cpu_s"]
             / json.loads(with_sampler)["run_cpu_s"])
    print("      %s: obs.trace_overhead_ratio %.3f" % (workload, ratio))


def held_out(rel, workload, seed):
    args = ["--workload", workload, "--seed", str(seed)]
    first = raw_object(raw_tool(rel, ["run"] + args), "sim")
    second = raw_object(raw_tool(rel, ["run"] + args), "sim")
    check(first == second, "%s seed %d: two processes byte-identical"
          % (workload, seed))
    for trace in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, os.path.join(bench.BENCH_DIR, "run.py"),
             "--workload", workload, "--seed", str(seed), "--seconds", "0",
             "--trace", trace],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout else "{}"
        ok = proc.returncode == 0 and json.loads(last).get("correct") is True
        check(ok, "%s seed %d: run.py --trace %s passes every check"
              % (workload, seed, trace))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="7,1009")
    ap.add_argument("--workloads", default=",".join(BENCHMARKED))
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    workloads = args.workloads.split(",")
    rel, pg = bench.build_all()
    trajectory_crosscheck(rel)
    for w in workloads:
        observe_only(rel, pg, w, bench.sub_seed(seeds[0], 0))
    for w in workloads:
        for s in seeds:
            held_out(rel, w, s)
    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
