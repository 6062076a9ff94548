// skv_perf: the measuring program behind perfbench/run.py.
//
// It drives the simulator only through its public API: an offload::Cluster
// configured like bench_ycsb's make_ycsb_cluster, the open-loop YCSB driver
// (workload::ycsb::run_open_loop), public counters, and the observe-only
// tracer. Host time is read here, around calls into the simulator; nothing
// under src/ reads a wall clock.
//
// Modes (one workload per process, single-threaded):
//   run       one repetition: set up, run, check; report its host times,
//             peak RSS, simulated results and correctness checks
//   capacity  bisect the offered rate for the highest one that keeps
//             p99 <= 100 us with no growing backlog (simulated only)
//   trace     one traced repetition with an observe-only sampler, plus
//             isolated replays of the event queue and the command table;
//             reports per-layer metrics and bench spans (run.py adds the
//             ones that compare against an untraced `run` process)
//   xcheck    bench_ycsb's full-profile A/zipfian/fanout run, with preload
//             split out as in `run`, printed in bench_ycsb's field layout
//
// Every mode prints one JSON object on stdout. Diagnostics go to stderr.
//
// Usage: skv_perf <mode> --workload NAME --seed N [--observer 0|1]

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "kv/command.hpp"
#include "kv/db.hpp"
#include "kv/object.hpp"
#include "obs/export.hpp"
#include "sim/event_queue.hpp"
#include "skv/cluster.hpp"
#include "workload/runner.hpp"
#include "workload/ycsb/open_loop.hpp"
#include "workload/ycsb/workload_mix.hpp"

using namespace skv;
using workload::ycsb::OpenLoopOptions;
using workload::ycsb::OpenLoopResult;
using workload::ycsb::YcsbOp;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU time this thread has used, in seconds. Unlike wall time it leaves
/// out time the thread spent preempted or stolen by the hypervisor.
double thread_cpu_s() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// --- workloads ---------------------------------------------------------------

struct WorkloadDef {
    const char* name;
    workload::ycsb::Workload mix;
    std::uint64_t records;
    std::size_t value_bytes;
    server::ReplicationMode mode;
    double offered_kops;
    sim::Duration warmup;
    sim::Duration measure;
};

/// perfbench/README.md says why each workload was chosen. Windows hold at
/// least 12k arrivals, so p999 has at least 12 samples beyond it.
const WorkloadDef kWorkloads[] = {
    {"ycsb-a-skv", workload::ycsb::Workload::kA, 10'000, 64,
     server::ReplicationMode::kFanout, 160.0, sim::milliseconds(50),
     sim::milliseconds(250)},
    {"ycsb-b-big", workload::ycsb::Workload::kB, 100'000, 64,
     server::ReplicationMode::kFanout, 160.0, sim::milliseconds(50),
     sim::milliseconds(250)},
    {"ycsb-a-quorum-4k", workload::ycsb::Workload::kA, 10'000, 4096,
     server::ReplicationMode::kQuorum, 40.0, sim::milliseconds(50),
     sim::milliseconds(300)},
};

const WorkloadDef* find_workload(const std::string& name) {
    for (const auto& w : kWorkloads) {
        if (name == w.name) return &w;
    }
    return nullptr;
}

/// bench_ycsb's make_ycsb_cluster: 3 slaves, commit gating on one replica
/// ack, no stale reads.
offload::ClusterConfig cluster_config(const WorkloadDef& w,
                                      std::uint64_t seed) {
    offload::ClusterConfig cfg;
    cfg.seed = seed;
    cfg.n_slaves = 3;
    cfg.offload = true;
    cfg.server_tmpl.ack_interval = sim::milliseconds(20);
    cfg.server_tmpl.ack_on_apply = true;
    cfg.server_tmpl.wait_for_slaves = 1;
    cfg.server_tmpl.wait_timeout = sim::milliseconds(150);
    cfg.server_tmpl.serve_stale_reads = false;
    cfg.server_tmpl.replication_mode = w.mode;
    return cfg;
}

OpenLoopOptions open_loop_options(const WorkloadDef& w) {
    OpenLoopOptions opts;
    opts.ycsb = workload::ycsb::YcsbOptions::standard(w.mix);
    opts.ycsb.record_count = w.records;
    opts.ycsb.value_bytes = w.value_bytes;
    opts.connections = 256;
    opts.offered_kops = w.offered_kops;
    opts.warmup = w.warmup;
    opts.measure = w.measure;
    // Preload is called from here (timed as set-up) with the spec
    // run_open_loop would build, so the RNG fork order is unchanged.
    opts.preload = false;
    return opts;
}

/// The exact spec run_open_loop passes to preload_keyspace.
workload::WorkloadSpec preload_spec(const OpenLoopOptions& opts) {
    workload::WorkloadSpec pspec;
    pspec.key_count = opts.ycsb.record_count;
    pspec.key_dist = workload::KeyDist::kUniform;
    pspec.value_bytes = opts.ycsb.value_bytes;
    pspec.key_prefix = opts.ycsb.key_prefix;
    return pspec;
}

// --- host process ------------------------------------------------------------

/// A "Vm*:" field of /proc/self/status in kB (0 when unavailable).
long proc_status_kb(const char* field) {
    std::ifstream in("/proc/self/status");
    std::string line;
    const std::size_t n = std::strlen(field);
    while (std::getline(in, line)) {
        if (line.compare(0, n, field) == 0) {
            return std::strtol(line.c_str() + n, nullptr, 10);
        }
    }
    return 0;
}

// --- bench-side spans (host time) --------------------------------------------

/// Host-time spans recorded around calls into the simulator. Self time is a
/// span's duration minus the part covered by its children.
class SpanLog {
public:
    struct Span {
        std::string name;
        int parent = -1;
        double dur_s = 0;
        double child_s = 0;
    };

    void open(std::string name) {
        Span s;
        s.name = std::move(name);
        s.parent = stack_.empty() ? -1 : stack_.back();
        spans_.push_back(std::move(s));
        starts_.push_back(Clock::now());
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
    }
    void close() {
        const int id = stack_.back();
        stack_.pop_back();
        Span& s = spans_[static_cast<std::size_t>(id)];
        s.dur_s = seconds_since(starts_[static_cast<std::size_t>(id)]);
        if (s.parent >= 0) {
            spans_[static_cast<std::size_t>(s.parent)].child_s += s.dur_s;
        }
    }
    [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

private:
    std::vector<Span> spans_;
    std::vector<Clock::time_point> starts_;
    std::vector<int> stack_;
};

/// Optional span scope: a no-op when `log` is null.
class SpanScope {
public:
    SpanScope(SpanLog* log, const char* name) : log_(log) {
        if (log_ != nullptr) log_->open(name);
    }
    ~SpanScope() {
        if (log_ != nullptr) log_->close();
    }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

private:
    SpanLog* log_;
};

// --- set-up ------------------------------------------------------------------

struct SetUp {
    std::unique_ptr<offload::Cluster> cluster;
    OpenLoopOptions opts;
    double setup_s = 0;
    double setup_cpu_s = 0;
    long rss_before_preload_kb = 0;
    long rss_after_preload_kb = 0;
};

/// Build, start and preload a cluster for `w`. Set-up time covers
/// construction, start() and preload_keyspace().
SetUp set_up(const WorkloadDef& w, std::uint64_t seed, SpanLog* spans) {
    SetUp s;
    s.opts = open_loop_options(w);
    const auto t0 = Clock::now();
    const double cpu0 = thread_cpu_s();
    {
        SpanScope span(spans, "cluster_start");
        s.cluster = std::make_unique<offload::Cluster>(cluster_config(w, seed));
        s.cluster->start();
    }
    s.rss_before_preload_kb = proc_status_kb("VmRSS:");
    {
        SpanScope span(spans, "preload");
        workload::preload_keyspace(*s.cluster, preload_spec(s.opts));
    }
    s.setup_s = seconds_since(t0);
    s.setup_cpu_s = thread_cpu_s() - cpu0;
    s.rss_after_preload_kb = proc_status_kb("VmRSS:");
    return s;
}

// --- counters ----------------------------------------------------------------

/// Public counters of every layer, read at one instant.
struct Counters {
    std::int64_t now_ns = 0;
    std::uint64_t events = 0;
    std::uint64_t fabric_msgs = 0;
    std::uint64_t fabric_bytes = 0;
    std::uint64_t fault_drops = 0;
    std::uint64_t drops_in_flight = 0;
    std::uint64_t wr_posts = 0;
    std::uint64_t write_imm = 0;
    std::int64_t master_busy_ns = 0;
    std::vector<std::int64_t> slave_busy_ns;
    std::vector<std::int64_t> nic_busy_ns;
    std::uint64_t commands = 0;
    std::uint64_t rel_retransmits = 0;
    std::uint64_t rel_acks = 0;
    std::uint64_t repl_requests = 0;
    std::uint64_t fanout_sends = 0;
    std::uint64_t nic_mem_rejects = 0;
    std::uint64_t cmd_service_count = 0;
    double cmd_service_sum_ns = 0;

    static Counters read(offload::Cluster& c) {
        Counters k;
        k.now_ns = c.sim().now().ns();
        k.events = c.sim().events_executed();
        k.fabric_msgs = c.fabric().messages_sent();
        k.fabric_bytes = c.fabric().bytes_sent();
        k.fault_drops = c.fabric().obs().counter("fault_drops");
        k.drops_in_flight = c.fabric().dropped_in_flight();
        k.wr_posts = c.rdma().obs().counter("wr_posts");
        k.write_imm = c.rdma().obs().counter("write_with_imm");
        k.master_busy_ns = c.master().node().core->total_busy().ns();
        k.commands = c.master().commands_processed();
        k.rel_retransmits = c.master().stats().counter("rel.retransmits");
        k.rel_acks = c.master().stats().counter("rel.acks_sent");
        for (int i = 0; i < c.slave_count(); ++i) {
            auto& s = c.slave(i);
            k.slave_busy_ns.push_back(s.node().core->total_busy().ns());
            k.commands += s.commands_processed();
            k.rel_retransmits += s.stats().counter("rel.retransmits");
            k.rel_acks += s.stats().counter("rel.acks_sent");
        }
        if (auto* nk = c.nic_kv()) {
            k.rel_retransmits += nk->stats().counter("rel.retransmits");
            k.rel_acks += nk->stats().counter("rel.acks_sent");
            k.repl_requests = nk->stats().counter("repl_requests");
            k.fanout_sends = nk->stats().counter("fanout_sends");
        }
        if (auto* nic = c.smartnic()) {
            for (int i = 0; i < nic->core_count(); ++i) {
                k.nic_busy_ns.push_back(nic->core(i).total_busy().ns());
            }
            k.nic_mem_rejects = nic->obs().counter("mem_reserve_rejects");
        }
        const auto snap = c.master().stats().snapshot();
        if (auto it = snap.timers.find("cmd.service"); it != snap.timers.end()) {
            k.cmd_service_count = it->second.count;
            k.cmd_service_sum_ns = it->second.sum_ns;
        }
        return k;
    }
};

double busy_share(std::int64_t busy_delta_ns, std::int64_t span_ns) {
    return span_ns > 0 ? static_cast<double>(busy_delta_ns) /
                             static_cast<double>(span_ns)
                       : 0.0;
}

// --- observe-only sampler ----------------------------------------------------

/// Bench callback scheduled into the simulation that only reads: queue
/// depth, parked replies, NIC memory, and counter snapshots at the window
/// edges. It never sends, consumes CPU, draws randomness or notes the trace,
/// so enabling it must leave every simulated result and the trace digest
/// unchanged (checked by perfbench/selftest.py).
class Observer {
public:
    Observer(offload::Cluster& c, sim::Duration period, sim::SimTime begin,
             sim::SimTime end)
        : c_(c), period_(period), begin_(begin), end_(end) {}

    Observer(const Observer&) = delete;
    Observer& operator=(const Observer&) = delete;

    void arm() {
        c_.sim().at(begin_, [this]() {
            at_begin = Counters::read(c_);
            tick();
        });
        c_.sim().at(end_, [this]() { at_end = Counters::read(c_); });
    }

    std::size_t pending_peak = 0;
    std::size_t parked_peak = 0;
    std::size_t nic_mem_peak = 0;
    /// Observer events executed inside the window (excluded from events/op).
    std::uint64_t own_events = 1;
    Counters at_begin;
    Counters at_end;

private:
    void tick() {
        pending_peak = std::max(pending_peak, c_.sim().events_pending());
        parked_peak = std::max(parked_peak, c_.master().parked_replies());
        if (auto* nic = c_.smartnic()) {
            nic_mem_peak = std::max(nic_mem_peak, nic->memory_used());
        }
        if (c_.sim().now() + period_ < end_) {
            ++own_events;
            c_.sim().after(period_, [this]() { tick(); });
        }
    }

    offload::Cluster& c_;
    sim::Duration period_;
    sim::SimTime begin_;
    sim::SimTime end_;
};

// --- one repetition ----------------------------------------------------------

struct Rep {
    OpenLoopResult res;
    double setup_s = 0;
    double setup_cpu_s = 0;
    double run_s = 0;
    double run_cpu_s = 0;
    std::uint64_t run_events = 0;
    std::uint64_t trace_digest = 0;
    bool converged = false;
    bool replicas_equal = false;
    long rss_preload_delta_kb = 0;
};

/// Tearing down a cluster of hundreds of MB object by object costs up to a
/// second of host time. The measuring process is one-shot, so the last
/// cluster is parked in a holder that is never destroyed, and the OS
/// reclaims it at exit. (exit() still runs atexit handlers, which is where
/// the -pg build writes gmon.out.)
void keep_until_exit(std::unique_ptr<offload::Cluster> c) {
    static auto* kept = new std::unique_ptr<offload::Cluster>();
    *kept = std::move(c); // frees the previously kept one, if any
}

/// After the run, let replication settle (bounded) and check convergence
/// and replica contents. Runs after every metric is taken.
void settle_and_verify(offload::Cluster& c, Rep& rep) {
    auto& sim = c.sim();
    const sim::SimTime stop = sim.now() + sim::seconds(2);
    while (sim.now() < stop && !c.converged()) {
        sim.run_until(sim.now() + sim::milliseconds(5));
    }
    rep.converged = c.converged();
    rep.replicas_equal = true;
    for (int i = 0; i < c.slave_count(); ++i) {
        if (!c.slave(i).db().equals(c.master().db())) rep.replicas_equal = false;
    }
}

/// One set-up + run + check. With `observer` non-null, an observe-only
/// sampler covering the measurement window is armed and handed back.
Rep run_rep(const WorkloadDef& w, std::uint64_t seed, bool trace_stages,
            std::unique_ptr<Observer>* observer, SpanLog* spans) {
    Rep rep;
    SetUp s;
    {
        SpanScope span(spans, "setup");
        s = set_up(w, seed, spans);
    }
    rep.setup_s = s.setup_s;
    rep.setup_cpu_s = s.setup_cpu_s;
    rep.rss_preload_delta_kb = s.rss_after_preload_kb - s.rss_before_preload_kb;
    s.opts.trace_stages = trace_stages;
    offload::Cluster& c = *s.cluster;

    if (observer != nullptr) {
        const sim::SimTime begin = c.sim().now() + w.warmup;
        *observer = std::make_unique<Observer>(c, sim::microseconds(10), begin,
                                               begin + w.measure);
        (*observer)->arm();
    }

    const std::uint64_t ev0 = c.sim().events_executed();
    const auto t0 = Clock::now();
    const double cpu0 = thread_cpu_s();
    {
        SpanScope span(spans, "run_open_loop");
        rep.res = workload::ycsb::run_open_loop(c, s.opts);
    }
    rep.run_s = seconds_since(t0);
    rep.run_cpu_s = thread_cpu_s() - cpu0;
    rep.run_events = c.sim().events_executed() - ev0;
    rep.trace_digest = c.sim().trace_digest();
    settle_and_verify(c, rep);
    keep_until_exit(std::move(s.cluster));
    return rep;
}

// --- output helpers ----------------------------------------------------------

std::size_t kind(YcsbOp::Kind k) { return static_cast<std::size_t>(k); }

constexpr YcsbOp::Kind kWriteKinds[] = {YcsbOp::Kind::kUpdate,
                                        YcsbOp::Kind::kInsert,
                                        YcsbOp::Kind::kRmw};

/// The simulated results of a repetition, in a fixed format: byte-identical
/// for the same seed on any build.
void write_sim(obs::JsonWriter& j, const Rep& r) {
    const auto& res = r.res;
    const auto& rd = res.per_type[kind(YcsbOp::Kind::kRead)];
    // OpenLoopResult keeps a p99 per op type, not the samples, so the write
    // p99 is that of the one write kind the workload issues; write_checks
    // fails a run with more than one.
    double write_p99 = 0;
    std::uint64_t writes = 0;
    for (auto k : kWriteKinds) {
        const auto& t = res.per_type[kind(k)];
        if (t.ops == 0) continue;
        write_p99 = t.p99_us;
        writes += t.ops;
    }
    char digest[32];
    std::snprintf(digest, sizeof(digest), "%016" PRIx64, r.trace_digest);
    j.key("sim").begin_object();
    j.kv("sim_kops", res.achieved_kops)
        .kv("sim_p50_us", res.run.p50_us)
        .kv("sim_p99_us", res.run.p99_us)
        .kv("sim_p999_us", res.run.p999_us)
        .kv("sim_read_p99_us", rd.p99_us)
        .kv("sim_write_p99_us", write_p99)
        .kv("arrivals", res.arrivals)
        .kv("completed", res.completed)
        .kv("failed", res.failed)
        .kv("timed_out", res.timed_out)
        .kv("retries", res.retries)
        .kv("peak_queued", res.peak_queued)
        .kv("reads", rd.ops)
        .kv("writes", writes)
        .kv("master_util", res.run.master_cpu_util)
        .kv("trace_digest", std::string_view(digest));
    j.key("op_counts").begin_object();
    for (int t = 0; t < YcsbOp::kKindCount; ++t) {
        const auto& s = res.per_type[static_cast<std::size_t>(t)];
        j.kv(workload::ycsb::to_string(static_cast<YcsbOp::Kind>(t)), s.ops);
    }
    j.end_object();
    j.end_object();
}

void write_checks(obs::JsonWriter& j, const Rep& r) {
    std::int64_t write_kinds = 0;
    for (auto k : kWriteKinds) {
        if (r.res.per_type[kind(k)].ops > 0) ++write_kinds;
    }
    j.key("checks").begin_object();
    j.kv("converged", static_cast<std::int64_t>(r.converged))
        .kv("replicas_equal", static_cast<std::int64_t>(r.replicas_equal))
        .kv("write_kinds", write_kinds);
    j.end_object();
}

void write_workload(obs::JsonWriter& j, const WorkloadDef& w) {
    j.key("workload").begin_object();
    const auto mix = workload::ycsb::standard_mix(w.mix);
    j.kv("name", std::string_view(w.name))
        .kv("ycsb", workload::ycsb::to_string(w.mix))
        .kv("records", w.records)
        .kv("value_bytes", static_cast<std::uint64_t>(w.value_bytes))
        .kv("protocol", server::to_string(w.mode))
        .kv("offered_kops", w.offered_kops)
        .kv("measure_ms", w.measure.ms())
        .key("read_share").value(mix.read, 6)
        .key("update_share").value(mix.update, 6)
        .key("insert_share").value(mix.insert, 6)
        .key("scan_share").value(mix.scan, 6)
        .key("rmw_share").value(mix.rmw, 6);
    j.end_object();
}

void emit(obs::JsonWriter& j) {
    std::printf("%s\n", j.str().c_str());
    std::fflush(stdout);
}

// --- modes -------------------------------------------------------------------

/// One repetition: set up, run, check. perfbench/run.py starts a fresh
/// process per repetition, so each one sees the same cold heap and its
/// VmHWM is the workload's own peak.
int mode_run(const WorkloadDef& w, std::uint64_t seed, bool observer) {
    std::unique_ptr<Observer> sampler;
    const Rep r = run_rep(w, seed, false, observer ? &sampler : nullptr, nullptr);
    obs::JsonWriter j;
    j.begin_object().kv("mode", "run");
    write_workload(j, w);
    j.kv("seed", seed);
    const double completed =
        static_cast<double>(std::max<std::uint64_t>(r.res.completed, 1));
    j.key("setup_wall_s").value(r.setup_s, 9);
    j.key("setup_cpu_s").value(r.setup_cpu_s, 9);
    j.key("wall_us_per_op").value(r.run_s * 1e6 / completed, 6);
    j.key("cpu_us_per_op").value(r.run_cpu_s * 1e6 / completed, 6);
    j.key("peak_rss_mb")
        .value(static_cast<double>(proc_status_kb("VmHWM:")) / 1024.0, 3);
    j.key("run_wall_s").value(r.run_s, 9);
    j.key("run_cpu_s").value(r.run_cpu_s, 9);
    j.kv("run_events", r.run_events);
    constexpr double kNodes = 1 + 3; // master + slaves hold the keyspace
    j.key("rss_bytes_per_key")
        .value(static_cast<double>(r.rss_preload_delta_kb) * 1024.0 /
                   (static_cast<double>(w.records) * kNodes),
               3);
    write_sim(j, r);
    write_checks(j, r);
    j.end_object();
    emit(j);
    return 0;
}

/// Capacity probes: a short warm-up, then a window holding about this many
/// arrivals, so each probe's p99 rests on ~150 samples at any rate.
constexpr sim::Duration kProbeWarmup = sim::milliseconds(20);
constexpr double kProbeOps = 15'000;
/// A probe whose window arrivals have not all completed by then has a
/// growing backlog; overloaded probes otherwise spend seconds of host time
/// draining a collapsed queue.
constexpr sim::Duration kProbeDrain = sim::milliseconds(100);

/// One capacity probe: does `kops` keep p99 <= 100 us with no growing
/// backlog (every window arrival completed within the drain, nothing
/// failed)? The probe runs in a forked child, so every probe starts from
/// the same set-up state (exactly what a fresh set-up would build) without
/// paying for it again.
bool capacity_ok(SetUp& s, double kops) {
    struct Verdict {
        int ok;
        double achieved_kops;
        double p99_us;
    } v{};
    std::fflush(stdout);
    std::fflush(stderr);
    int fds[2];
    if (pipe(fds) != 0) {
        std::perror("pipe");
        std::exit(1);
    }
    const pid_t pid = fork();
    if (pid < 0) {
        std::perror("fork");
        std::exit(1);
    }
    if (pid == 0) {
        close(fds[0]);
        s.opts.offered_kops = kops;
        s.opts.warmup = kProbeWarmup;
        s.opts.measure = sim::Duration(static_cast<std::int64_t>(
            kProbeOps / kops * 1e6));
        s.opts.drain = kProbeDrain;
        const OpenLoopResult r =
            workload::ycsb::run_open_loop(*s.cluster, s.opts);
        v.ok = r.run.p99_us <= 100.0 && r.completed == r.arrivals &&
               r.failed == 0 && r.timed_out == 0;
        v.achieved_kops = r.achieved_kops;
        v.p99_us = r.run.p99_us;
        const bool sent = write(fds[1], &v, sizeof(v)) ==
                          static_cast<ssize_t>(sizeof(v));
        _exit(sent ? 0 : 1);
    }
    close(fds[1]);
    const bool got = read(fds[0], &v, sizeof(v)) == static_cast<ssize_t>(sizeof(v));
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        std::fprintf(stderr, "capacity probe at %.2f kops failed\n", kops);
        std::exit(1);
    }
    std::fprintf(stderr,
                 "capacity probe %.2f kops: achieved %.2f p99 %.1f us %s\n",
                 kops, v.achieved_kops, v.p99_us, v.ok ? "ok" : "over");
    return v.ok != 0;
}

/// Bracket the capacity by doubling or halving from the offered rate, then
/// bisect to 1% of the offered rate.
int mode_capacity(const WorkloadDef& w, std::uint64_t seed) {
    SetUp s = set_up(w, seed, nullptr);
    int probes = 1;
    double lo = w.offered_kops;
    double hi = w.offered_kops;
    if (capacity_ok(s, lo)) {
        do {
            lo = hi;
            hi *= 2;
            ++probes;
        } while (capacity_ok(s, hi));
    } else {
        do {
            hi = lo;
            lo /= 2;
            ++probes;
        } while (lo >= 1 && !capacity_ok(s, lo));
    }
    const double resolution = 0.01 * w.offered_kops;
    while (hi - lo > resolution && lo >= 1) {
        const double mid = 0.5 * (lo + hi);
        (capacity_ok(s, mid) ? lo : hi) = mid;
        ++probes;
    }
    keep_until_exit(std::move(s.cluster));
    obs::JsonWriter j;
    j.begin_object()
        .kv("mode", "capacity")
        .key("sim_capacity_kops").value(lo, 3)
        .kv("probes", probes)
        .end_object();
    emit(j);
    return 0;
}

/// Isolated replay of EventQueue::schedule/cancel/pop at `depth` pending
/// events: each step pops the earliest event and schedules its successor,
/// and every other step also arms a timer and cancels the previous one
/// (the lazily cancelled retry-timer pattern). Returns host ns per pop.
double replay_queue(std::size_t depth, std::uint64_t seed) {
    sim::EventQueue q;
    sim::Rng rng(seed);
    const double mean_gap_ns = 50'000.0;
    for (std::size_t i = 0; i < depth; ++i) {
        q.schedule(sim::SimTime(static_cast<std::int64_t>(
                       rng.next_exponential(mean_gap_ns))),
                   [] {});
    }
    const std::uint64_t steps = 400'000;
    sim::EventId timer;
    std::uint64_t sink = 0;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < steps; ++i) {
        auto [at, fn] = q.pop();
        fn();
        sink += static_cast<std::uint64_t>(at.ns());
        q.schedule(at + sim::Duration(static_cast<std::int64_t>(
                            rng.next_exponential(mean_gap_ns)) + 1),
                   [] {});
        if ((i & 1U) == 0) {
            if (timer.valid()) q.cancel(timer);
            timer = q.schedule(at + sim::milliseconds(1), [] {});
        }
    }
    const double s = seconds_since(t0);
    if (sink == 42) std::fprintf(stderr, " ");
    return s * 1e9 / static_cast<double>(steps);
}

/// Isolated replay of the workload's command mix (GET for reads, SET for
/// writes, MGET for scans) through CommandTable::execute on a keyspace of
/// the run's size. Returns host ns per command.
double replay_kv(const WorkloadDef& w, std::uint64_t seed) {
    const OpenLoopOptions opts = open_loop_options(w);
    kv::Database db([]() -> std::int64_t { return 0; });
    const std::string value(w.value_bytes, 'v');
    for (std::uint64_t i = 0; i < w.records; ++i) {
        db.set(opts.ycsb.key_prefix + std::to_string(i),
               kv::Object::make_string(value));
    }
    auto frontier = std::make_shared<workload::KeyFrontier>(w.records);
    workload::ycsb::MixGenerator mix(opts.ycsb, sim::Rng(seed), frontier);
    std::vector<std::vector<std::string>> cmds;
    const std::size_t n = 200'000;
    cmds.reserve(n);
    while (cmds.size() < n) {
        YcsbOp op = mix.next();
        switch (op.kind) {
        case YcsbOp::Kind::kRead:
            cmds.push_back({"GET", op.key});
            break;
        case YcsbOp::Kind::kUpdate:
        case YcsbOp::Kind::kInsert:
            cmds.push_back({"SET", op.key, op.value});
            break;
        case YcsbOp::Kind::kScan: {
            std::vector<std::string> argv{"MGET"};
            argv.insert(argv.end(), op.scan_keys.begin(), op.scan_keys.end());
            cmds.push_back(std::move(argv));
            break;
        }
        case YcsbOp::Kind::kRmw:
            cmds.push_back({"GET", op.key});
            cmds.push_back({"SET", op.key, op.value});
            break;
        }
    }
    const auto& table = kv::CommandTable::instance();
    sim::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
    std::string reply;
    std::size_t bytes = 0;
    const auto t0 = Clock::now();
    for (const auto& argv : cmds) {
        reply.clear();
        (void)table.execute(db, rng, argv, reply);
        bytes += reply.size();
    }
    const double s = seconds_since(t0);
    if (bytes == 0) std::fprintf(stderr, "kv replay produced no replies\n");
    return s * 1e9 / static_cast<double>(cmds.size());
}

int mode_trace(const WorkloadDef& w, std::uint64_t seed) {
    SpanLog spans;
    std::unique_ptr<Observer> ob;
    Rep traced;
    {
        SpanScope span(&spans, "rep_traced");
        traced = run_rep(w, seed, true, &ob, &spans);
    }

    double queue_ns = 0;
    double kv_ns = 0;
    {
        SpanScope span(&spans, "replay_queue");
        queue_ns = replay_queue(std::max<std::size_t>(ob->pending_peak, 1), seed);
    }
    {
        SpanScope span(&spans, "replay_kv");
        kv_ns = replay_kv(w, seed);
    }

    // Window deltas, per op that arrived in the window.
    const Counters& a = ob->at_begin;
    const Counters& b = ob->at_end;
    const double ops = static_cast<double>(std::max<std::uint64_t>(
        traced.res.arrivals, 1));
    auto per_op = [ops](auto after, auto before) {
        return static_cast<double>(after - before) / ops;
    };
    const std::int64_t span_ns = b.now_ns - a.now_ns;
    double slave_util_max = 0;
    for (std::size_t i = 0; i < a.slave_busy_ns.size(); ++i) {
        slave_util_max = std::max(
            slave_util_max,
            busy_share(b.slave_busy_ns[i] - a.slave_busy_ns[i], span_ns));
    }
    double nic_util = 0;
    for (std::size_t i = 0; i < a.nic_busy_ns.size(); ++i) {
        nic_util = std::max(
            nic_util, busy_share(b.nic_busy_ns[i] - a.nic_busy_ns[i], span_ns));
    }
    const auto& st = traced.res.run.stages;
    const double stage_err_pct =
        st.e2e_us > 0 ? 100.0 * std::fabs(st.critical_sum_us - st.e2e_us) /
                            st.e2e_us
                      : 100.0;
    const std::uint64_t services = b.cmd_service_count - a.cmd_service_count;

    obs::JsonWriter j;
    auto put = [&j](const char* name, double v, int decimals = 6) {
        j.key(name).value(v, decimals);
    };
    j.begin_object().kv("mode", "trace");
    write_workload(j, w);
    j.kv("seed", seed);
    j.key("metrics").begin_object();
    put("sim.events_per_op", per_op(b.events, a.events + ob->own_events));
    put("sim.pending_events_peak", static_cast<double>(ob->pending_peak), 0);
    put("sim.queue_ns_per_event", queue_ns, 3);
    put("net.msgs_per_op", per_op(b.fabric_msgs, a.fabric_msgs));
    put("net.bytes_per_op", per_op(b.fabric_bytes, a.fabric_bytes), 3);
    put("net.fault_drops", static_cast<double>(b.fault_drops - a.fault_drops), 0);
    put("net.drops_in_flight",
        static_cast<double>(b.drops_in_flight - a.drops_in_flight), 0);
    put("rdma.wr_posts_per_op", per_op(b.wr_posts, a.wr_posts));
    put("rdma.write_imm_per_op", per_op(b.write_imm, a.write_imm));
    put("rdma.rdma_write_us", st.rdma_write_us);
    put("rdma.reply_us", st.reply_us);
    put("cpu.master_util",
        busy_share(b.master_busy_ns - a.master_busy_ns, span_ns));
    put("cpu.master_busy_us_per_op",
        per_op(b.master_busy_ns, a.master_busy_ns) / 1e3);
    put("cpu.nic_util", nic_util);
    put("cpu.slave_util_max", slave_util_max);
    put("kv.commands_per_op", per_op(b.commands, a.commands));
    put("kv.host_ns_per_command", kv_ns, 3);
    put("server.master_apply_us", st.master_apply_us);
    put("server.cmd_service_us",
        services > 0 ? (b.cmd_service_sum_ns - a.cmd_service_sum_ns) / 1e3 /
                           static_cast<double>(services)
                     : 0.0);
    put("server.rel_retransmits",
        static_cast<double>(b.rel_retransmits - a.rel_retransmits), 0);
    put("server.rel_acks_per_op", per_op(b.rel_acks, a.rel_acks));
    put("server.parked_replies_peak", static_cast<double>(ob->parked_peak), 0);
    put("skv.offload_request_us", st.offload_request_us);
    put("skv.nic_fanout_us", st.nic_fanout_us);
    put("skv.slave_ack_us", st.slave_ack_us);
    put("skv.repl_requests_per_op", per_op(b.repl_requests, a.repl_requests));
    put("skv.fanout_sends_per_op", per_op(b.fanout_sends, a.fanout_sends));
    put("nic.mem_used_bytes", static_cast<double>(ob->nic_mem_peak), 0);
    put("nic.mem_reserve_rejects",
        static_cast<double>(b.nic_mem_rejects - a.nic_mem_rejects), 0);
    put("workload.retries", static_cast<double>(traced.res.retries), 0);
    put("workload.peak_queued", static_cast<double>(traced.res.peak_queued), 0);
    put("workload.timed_out", static_cast<double>(traced.res.timed_out), 0);
    put("obs.stage_sum_error_pct", stage_err_pct);
    j.end_object();
    j.key("spans").begin_array();
    for (const auto& sp : spans.spans()) {
        j.begin_object()
            .kv("name", std::string_view(sp.name))
            .kv("parent", sp.parent)
            .key("dur_s").value(sp.dur_s, 6)
            .key("self_s").value(sp.dur_s - sp.child_s, 6)
            .end_object();
    }
    j.end_array();
    j.kv("stage_requests", st.requests);
    j.key("stage_e2e_us").value(st.e2e_us, 6);
    j.key("stage_critical_sum_us").value(st.critical_sum_us, 6);
    j.key("run_wall_s").value(traced.run_s, 9);
    j.key("run_cpu_s").value(traced.run_cpu_s, 9);
    write_sim(j, traced);
    write_checks(j, traced);
    j.end_object();
    emit(j);
    return 0;
}

/// bench_ycsb's full profile, A/zipfian/fanout, seed as given (42 in the
/// recorded trajectory), printed in the trajectory's field layout.
int mode_xcheck(std::uint64_t seed) {
    WorkloadDef w = kWorkloads[0];
    w.offered_kops = 40.0;
    w.warmup = sim::milliseconds(300);
    w.measure = sim::seconds(2);
    SetUp s = set_up(w, seed, nullptr);
    const OpenLoopResult r = workload::ycsb::run_open_loop(*s.cluster, s.opts);
    obs::JsonWriter j;
    j.begin_object()
        .kv("name", "ycsb-A/zipfian/fanout")
        .kv("offered_kops", r.offered_kops)
        .kv("achieved_kops", r.achieved_kops)
        .kv("arrivals", r.arrivals)
        .kv("completed", r.completed)
        .kv("failed", r.failed)
        .kv("timed_out", r.timed_out)
        .kv("retries", r.retries)
        .kv("peak_queued", r.peak_queued);
    j.key("points").begin_array();
    j.begin_object()
        .kv("op", "all")
        .kv("kops", r.run.throughput_kops)
        .kv("mean_us", r.run.mean_us)
        .kv("p50_us", r.run.p50_us)
        .kv("p95_us", r.run.p95_us)
        .kv("p99_us", r.run.p99_us)
        .kv("p999_us", r.run.p999_us)
        .kv("ops", r.run.ops)
        .kv("errors", r.run.errors)
        .kv("cpu_util", r.run.master_cpu_util)
        .end_object();
    for (int t = 0; t < YcsbOp::kKindCount; ++t) {
        const auto& st = r.per_type[static_cast<std::size_t>(t)];
        if (st.ops == 0) continue;
        j.begin_object()
            .kv("op", to_string(static_cast<YcsbOp::Kind>(t)))
            .kv("ops", st.ops)
            .kv("mean_us", st.mean_us)
            .kv("p50_us", st.p50_us)
            .kv("p95_us", st.p95_us)
            .kv("p99_us", st.p99_us)
            .kv("p999_us", st.p999_us)
            .end_object();
    }
    j.end_array().end_object();
    emit(j);
    return 0;
}

int usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s run|capacity|trace|xcheck --workload NAME "
                 "--seed N [--observer 0|1]\n",
                 argv0);
    return 2;
}

} // namespace

int main(int argc, char** argv) {
    if (argc < 2) return usage(argv[0]);
    const std::string mode = argv[1];
    std::string name;
    std::uint64_t seed = 42;
    bool observer = false;
    for (int i = 2; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char* val = argv[i + 1];
        if (flag == "--workload") {
            name = val;
        } else if (flag == "--seed") {
            seed = std::strtoull(val, nullptr, 10);
        } else if (flag == "--observer") {
            observer = std::strcmp(val, "1") == 0;
        } else {
            return usage(argv[0]);
        }
    }
    if (mode == "xcheck") return mode_xcheck(seed);
    const WorkloadDef* w = find_workload(name);
    if (w == nullptr) {
        std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
        return 2;
    }
    if (mode == "run") return mode_run(*w, seed, observer);
    if (mode == "capacity") return mode_capacity(*w, seed);
    if (mode == "trace") return mode_trace(*w, seed);
    return usage(argv[0]);
}
