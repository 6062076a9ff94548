#!/usr/bin/env python3
"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds perfbench/ (an optimized tree and
a `-pg` tree) under $CARGO_TARGET_DIR (default `.bench_build`), runs the
workload in its own single-threaded process, checks the outputs, and prints
one line per metric followed by a JSON result as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (host time of the untraced runs and
the simulated results); --trace 1 reports the per-layer metrics from a traced
run, the isolated replays and the gprof module profile. The exit code is 0
only when every correctness check passed. See perfbench/README.md.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")

WORKLOADS = ("ycsb-a-skv", "ycsb-b-big", "ycsb-a-quorum-4k")

# Simulated metrics are medians over this many seeds derived from --seed.
SUB_SEEDS = 8


def sub_seed(seed, i):
    return seed * 1000 + i


# name -> unit, in print order.
END_TO_END = {
    "host_us_per_op": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_kops": "kops/s",
    "sim_p50_us": "us",
    "sim_p99_us": "us",
    "sim_p999_us": "us",
    "sim_read_p99_us": "us",
    "sim_write_p99_us": "us",
    "sim_capacity_kops": "kops/s",
}

# src/ namespace -> module name used in the *.host_share metrics.
MODULES = {
    "sim": "sim", "net": "net", "rdma": "rdma", "cpu": "cpu", "kv": "kv",
    "server": "server", "offload": "skv", "nic": "nic", "workload": "workload",
    "obs": "obs",
}
SHARE_MODULES = ("sim", "net", "rdma", "cpu", "kv", "server", "skv", "nic",
                 "workload", "obs", "other")

PER_LAYER_UNITS = {
    "sim.events_per_op": "events/op",
    "sim.host_ns_per_event": "ns",
    "sim.pending_events_peak": "count",
    "sim.queue_ns_per_event": "ns",
    "net.msgs_per_op": "msgs/op",
    "net.bytes_per_op": "B/op",
    "net.fault_drops": "count",
    "net.drops_in_flight": "count",
    "rdma.wr_posts_per_op": "wr/op",
    "rdma.write_imm_per_op": "wr/op",
    "rdma.rdma_write_us": "us",
    "rdma.reply_us": "us",
    "cpu.master_util": "ratio",
    "cpu.master_busy_us_per_op": "us",
    "cpu.nic_util": "ratio",
    "cpu.slave_util_max": "ratio",
    "kv.commands_per_op": "cmds/op",
    "kv.host_ns_per_command": "ns",
    "kv.rss_bytes_per_key": "B",
    "server.master_apply_us": "us",
    "server.cmd_service_us": "us",
    "server.rel_retransmits": "count",
    "server.rel_acks_per_op": "acks/op",
    "server.parked_replies_peak": "count",
    "skv.offload_request_us": "us",
    "skv.nic_fanout_us": "us",
    "skv.slave_ack_us": "us",
    "skv.repl_requests_per_op": "reqs/op",
    "skv.fanout_sends_per_op": "sends/op",
    "nic.mem_used_bytes": "B",
    "nic.mem_reserve_rejects": "count",
    "workload.retries": "count",
    "workload.peak_queued": "count",
    "workload.timed_out": "count",
    "obs.trace_overhead_ratio": "ratio",
    "obs.stage_sum_error_pct": "%",
}
SPAN_METRICS = ("cluster_start", "preload", "run_open_loop", "replay_queue",
                "replay_kv")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    """Exit nonzero without printing a result."""
    log("perfbench: " + msg)
    sys.exit(2)


# --- build ------------------------------------------------------------------

def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(tree, extra_flags):
    """Configure (once) and build one tree of perfbench/; returns skv_perf."""
    bdir = os.path.join(build_root(), tree)
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = [cmake, "-S", BENCH_DIR, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + extra_flags
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(bdir, ignore_errors=True)
            fail("configure failed for " + tree)
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run([cmake, "--build", bdir, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed for " + tree)
    return os.path.join(bdir, "skv_perf")


def build_all():
    # Both trees are built on the first run, so a later traced run never
    # pays for a build.
    rel = build("rel", [])
    pg = build("pg", ["-DCMAKE_CXX_FLAGS=-pg", "-DCMAKE_EXE_LINKER_FLAGS=-pg"])
    return rel, pg


def run_tool(exe, args, cwd=None):
    """Run skv_perf and parse the JSON object on its last stdout line."""
    proc = subprocess.run([exe] + args, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True)
    if proc.returncode != 0:
        fail("%s %s exited with %d" % (os.path.basename(exe), " ".join(args),
                                       proc.returncode))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("no output from skv_perf " + " ".join(args))
    return json.loads(lines[-1])


# --- correctness gate ---------------------------------------------------------

def sim_checks(doc, sim, checks):
    """Checks on one repetition's simulated results; returns failures."""
    bad = []
    wl = doc["workload"]
    if not checks["converged"]:
        bad.append("a slave did not converge after the run")
    if not checks["replicas_equal"]:
        bad.append("a slave's keyspace differs from the master's")
    if checks["write_kinds"] > 1:
        bad.append("the mix issues %d write kinds; sim_write_p99_us covers "
                   "only one" % checks["write_kinds"])
    lost = sim["arrivals"] - sim["completed"]
    if sim["failed"] or sim["timed_out"] or lost:
        bad.append("fail_ratio > 0: failed=%d timed_out=%d unfinished=%d"
                   % (sim["failed"], sim["timed_out"], lost))
    n = sim["completed"]
    for kind in ("read", "update", "insert", "scan", "rmw"):
        p = wl[kind + "_share"]
        got = sim["op_counts"][kind] / n if n else 0.0
        tol = 4.0 * (p * (1.0 - p) / max(n, 1)) ** 0.5 + 1e-3
        if abs(got - p) > tol:
            bad.append("%s share %.4f differs from the mix's %.4f" % (kind, got, p))
    if n * 0.001 < 10:
        bad.append("p999 has %.1f samples beyond it (< 10)" % (n * 0.001))
    for kind in ("reads", "writes"):
        if sim[kind] * 0.01 < 10:
            bad.append("%s p99 has %.1f samples beyond it (< 10)"
                       % (kind[:-1], sim[kind] * 0.01))
    return bad


def result(correct, sims, metrics, units):
    """Print every metric by name with its unit, then the JSON result."""
    for name, value in metrics.items():
        print("%-28s %14.6f %s" % (name, value, units[name]))
    attempted = max(sum(s["arrivals"] for s in sims), 1)
    failed = sum(s["failed"] + s["timed_out"] + s["arrivals"] - s["completed"]
                 for s in sims)
    out = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(out), flush=True)
    return 0 if correct else 1


# --- --trace 0: end-to-end ----------------------------------------------------

def end_to_end(rel, args):
    """Repetitions cycle through SUB_SEEDS seeds derived from --seed, each
    in a fresh process, until --seconds have passed. There is at least one
    per sub-seed and one more, so a repeated sub-seed always checks that two
    processes agree. Host metrics are over every repetition; simulated
    metrics are medians over the sub-seeds, so they are a deterministic
    function of --seed."""
    t0 = time.monotonic()
    docs = []
    while len(docs) <= SUB_SEEDS or time.monotonic() - t0 < args.seconds:
        seed = sub_seed(args.seed, len(docs) % SUB_SEEDS)
        docs.append(run_tool(rel, ["run", "--workload", args.workload,
                                   "--seed", str(seed)]))
    sims = [d["sim"] for d in docs[:SUB_SEEDS]]
    bad = []
    for d in docs[:SUB_SEEDS]:
        bad += sim_checks(d, d["sim"], d["checks"])
    for k, d in enumerate(docs[SUB_SEEDS:]):
        if d["sim"] != sims[k % SUB_SEEDS]:
            bad.append("seed %d gave different simulated results in two "
                       "processes" % d["seed"])
    cap = run_tool(rel, ["capacity", "--workload", args.workload, "--seed",
                         str(sub_seed(args.seed, 0))])
    fewest = min(s["completed"] for s in sims)
    log("repetitions: %d over %d sub-seeds; p999 over >= %d samples per "
        "sub-seed (>= %d beyond it)" % (len(docs), SUB_SEEDS, fewest,
                                        fewest // 1000))
    for key in ("cpu_us_per_op", "wall_us_per_op", "setup_cpu_s",
                "setup_wall_s"):
        log("%s per repetition: %s" % (key, " ".join(
            "%.4g" % d[key] for d in docs)))

    def med(key, source):
        return statistics.median(x[key] for x in source)

    def trimmed_mean(key):
        """Mean over the repetitions without the fastest and the slowest.
        The machine's speed comes in phases, so repetitions cluster in two
        or more modes; a mean weighs them by time spent in each, where a
        median jumps from one mode to the other."""
        xs = sorted(d[key] for d in docs)
        return statistics.mean(xs[1:-1])

    # Host time is the thread CPU time of the measuring process. Wall time
    # also holds time the thread spent preempted or stolen by the
    # hypervisor.
    metrics = {
        "host_us_per_op": trimmed_mean("cpu_us_per_op"),
        "setup_s": trimmed_mean("setup_cpu_s"),
        "peak_rss_mb": med("peak_rss_mb", docs),
    }
    for key in ("sim_kops", "sim_p50_us", "sim_p99_us", "sim_p999_us",
                "sim_read_p99_us", "sim_write_p99_us"):
        metrics[key] = med(key, sims)
    metrics["sim_capacity_kops"] = cap["sim_capacity_kops"]
    for msg in bad:
        log("CHECK FAILED: " + msg)
    return result(not bad, sims, metrics, END_TO_END)


# --- --trace 1: per layer -----------------------------------------------------

FLAT_LINE = re.compile(
    r"^\s*([\d.]+)\s+([\d.]+)\s+([\d.]+)\s+(?:\d+\s+[\d.]+\s+[\d.]+\s+)?(\S.*)$")
NAMESPACE = re.compile(r"skv::(\w+)::")


def module_of(symbol):
    """Module of a profiled function: the first skv::<module>:: named in it,
    so std::_Function_handler<..., skv::workload::...> lambdas and std
    containers of skv types count for the module they serve."""
    m = NAMESPACE.search(symbol)
    if m is None:
        return "other"
    return MODULES.get(m.group(1), "other")


def module_shares(pg, args):
    """Profile one untraced `run` in the -pg build; self-time share (%) per
    module, and the run's simulated results."""
    gdir = os.path.join(build_root(), "pg-run")
    os.makedirs(gdir, exist_ok=True)
    gmon = os.path.join(gdir, "gmon.out")
    if os.path.exists(gmon):
        os.remove(gmon)
    doc = run_tool(pg, ["run", "--workload", args.workload, "--seed",
                        str(sub_seed(args.seed, 0))], cwd=gdir)
    gprof = shutil.which("gprof")
    if gprof is None or not os.path.exists(gmon):
        fail("gprof or gmon.out missing")
    flat = subprocess.run([gprof, "-b", "-p", "--demangle", pg, gmon],
                          stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    if flat.returncode != 0:
        fail("gprof failed")
    self_s = {m: 0.0 for m in SHARE_MODULES}
    for line in flat.stdout.splitlines():
        m = FLAT_LINE.match(line)
        if m:
            self_s[module_of(m.group(4))] += float(m.group(3))
    total = sum(self_s.values())
    if total <= 0:
        fail("empty gprof profile")
    shares = {m + ".host_share": 100.0 * v / total for m, v in self_s.items()}
    return shares, doc


def per_layer(rel, pg, args):
    """A traced repetition, an untraced one and a -pg one of sub-seed 0, each
    in a fresh process, so they start from the same cold heap. The untraced
    one runs the same observe-only sampler as the traced one, so the two
    differ only in tracing."""
    common = ["--workload", args.workload, "--seed", str(sub_seed(args.seed, 0))]
    untraced = run_tool(rel, ["run"] + common + ["--observer", "1"])
    traced = run_tool(rel, ["trace"] + common)
    shares, pg_doc = module_shares(pg, args)
    bad = sim_checks(traced, traced["sim"], traced["checks"])
    err = traced["metrics"]["obs.stage_sum_error_pct"]
    if err > 1.0:
        bad.append("critical-path stages miss e2e by %.3f%% (> 1%%)" % err)
    # Observe-only: tracing, the sampler and the -pg build must not move any
    # simulated result or the trace digest.
    if traced["sim"] != untraced["sim"]:
        bad.append("tracing changed the simulated results")
    if pg_doc["sim"] != untraced["sim"]:
        bad.append("the -pg build changed the simulated results")
    values = dict(traced["metrics"])
    values["sim.host_ns_per_event"] = (untraced["run_cpu_s"] * 1e9
                                       / untraced["run_events"])
    values["kv.rss_bytes_per_key"] = untraced["rss_bytes_per_key"]
    values["obs.trace_overhead_ratio"] = (traced["run_cpu_s"]
                                          / untraced["run_cpu_s"])
    metrics = {name: values[name] for name in PER_LAYER_UNITS}
    units = dict(PER_LAYER_UNITS)
    for span in traced["spans"]:
        if span["name"] in SPAN_METRICS:
            name = "bench.%s_s" % span["name"]
            metrics[name] = span["self_s"]
            units[name] = "s"
    for name, v in shares.items():
        metrics[name] = v
        units[name] = "%"
    for msg in bad:
        log("CHECK FAILED: " + msg)
    return result(not bad, [traced["sim"]], metrics, units)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")
    if not os.path.exists(os.path.join(ROOT, "src", "sim", "simulation.hpp")):
        fail("no simulator sources under %s/src" % ROOT)
    rel, pg = build_all()
    if args.trace:
        return per_layer(rel, pg, args)
    return end_to_end(rel, args)


if __name__ == "__main__":
    sys.exit(main())
