#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "chaos_support.hpp"
#include "check/history.hpp"
#include "check/linearize.hpp"
#include "kv/resp.hpp"
#include "net/fault.hpp"
#include "skv/cluster.hpp"
#include "workload/retry_client.hpp"

namespace skv::offload {
namespace {

// The cluster factory, client fleet, linearizability gate, and raw shell
// live in chaos_support.hpp, shared with the protocol-matrix suite.
using chaos::CrashClusterOpts;
using chaos::Fleet;
using chaos::RawConn;
using chaos::gate_linearizable;
using chaos::make_crash_cluster;

// ---------------------------------------------------------------------------
// Scenario 1: master crash + failover. The master dies mid-workload and
// stays dead; clients must ride over to the promoted stand-in and every
// op must complete (successfully or with an explicit failure) inside its
// deadline. The recorded history must be linearizable.
TEST(ChaosCrash, MasterCrashFailoverLinearizable) {
    for (const std::uint64_t seed : {9101ull, 9202ull, 9303ull}) {
        auto c = make_crash_cluster(seed);
        Fleet fleet;
        fleet.spawn(*c, 3, 40, 0.5);
        c->sim().run_until(c->sim().now() + sim::milliseconds(400));
        ASSERT_FALSE(fleet.all_idle()) << "workload finished pre-crash";
        const auto crash_at = c->sim().now();
        c->crash_node(-1);

        ASSERT_TRUE(fleet.drain(*c, sim::seconds(60))) << "seed " << seed;
        EXPECT_EQ(fleet.history.size(), fleet.ops_issued) << "seed " << seed;
        EXPECT_GT(fleet.total_retries(), 0u) << "seed " << seed;
        EXPECT_EQ(c->nic_kv()->stats().counter("failovers"), 1u)
            << "seed " << seed;
        int promoted = 0;
        for (int i = 0; i < c->slave_count(); ++i) {
            if (c->slave(i).role() == server::Role::kMaster) ++promoted;
        }
        EXPECT_EQ(promoted, 1) << "seed " << seed;
        // Progress resumed after the crash, not just before it.
        bool ok_after_crash = false;
        for (const auto& cl : fleet.clients) {
            if (cl->last_ok_at() > crash_at) ok_after_crash = true;
        }
        EXPECT_TRUE(ok_after_crash) << "seed " << seed;
        gate_linearizable(*c, fleet.history, "master-crash");
    }
}

// Scenario 2: slave crash during replication fan-out under commit gating.
// Writes park on replica acks; the crash must unblock them via the
// detector (flush or -WAITTIMEOUT + retry), and the warm restart must
// partially resync without corrupting the history.
TEST(ChaosCrash, SlaveCrashDuringFanoutLinearizable) {
    for (const std::uint64_t seed : {9404ull, 9505ull, 9606ull}) {
        auto c = make_crash_cluster(seed);
        Fleet fleet;
        fleet.spawn(*c, 3, 40, 0.7);
        c->sim().run_until(c->sim().now() + sim::milliseconds(300));
        ASSERT_FALSE(fleet.all_idle()) << "workload finished pre-crash";
        c->crash_node(0);
        c->sim().run_until(c->sim().now() + sim::milliseconds(800));
        c->restart_node(0, server::KvServer::RecoveryMode::kWarm);

        ASSERT_TRUE(fleet.drain(*c, sim::seconds(60))) << "seed " << seed;
        EXPECT_EQ(fleet.history.size(), fleet.ops_issued) << "seed " << seed;
        // Gating was actually exercised.
        EXPECT_GT(c->master().stats().counter("writes_parked"), 0u)
            << "seed " << seed;
        gate_linearizable(*c, fleet.history, "slave-crash");
        // The restarted slave rejoins and converges.
        c->sim().run_until(c->sim().now() + sim::seconds(8));
        EXPECT_TRUE(c->converged()) << "seed " << seed;
        EXPECT_TRUE(c->master().db().equals(c->slave(0).db()))
            << "seed " << seed;
    }
}

// Scenario 3: crash + partition at the same time. One slave is fully
// partitioned, another crashes; the master keeps serving through the
// survivor, then both impairments heal.
TEST(ChaosCrash, CrashPlusPartitionLinearizable) {
    for (const std::uint64_t seed : {9707ull, 9808ull, 9909ull}) {
        CrashClusterOpts o;
        o.n_slaves = 3;
        auto c = make_crash_cluster(seed, o);
        Fleet fleet;
        fleet.spawn(*c, 3, 40, 0.5);
        c->sim().run_until(c->sim().now() + sim::milliseconds(300));
        ASSERT_FALSE(fleet.all_idle()) << "workload finished pre-fault";

        net::FaultSpec cut;
        cut.blocked = true;
        c->fabric().faults().set_endpoint(c->slave(2).node().ep, cut);
        c->sim().run_until(c->sim().now() + sim::milliseconds(200));
        c->crash_node(1);
        c->sim().run_until(c->sim().now() + sim::seconds(1));
        c->restart_node(1, server::KvServer::RecoveryMode::kWarm);
        c->fabric().faults().clear_endpoint(c->slave(2).node().ep);

        ASSERT_TRUE(fleet.drain(*c, sim::seconds(60))) << "seed " << seed;
        EXPECT_EQ(fleet.history.size(), fleet.ops_issued) << "seed " << seed;
        gate_linearizable(*c, fleet.history, "crash+partition");
        c->sim().run_until(c->sim().now() + sim::seconds(10));
        EXPECT_TRUE(c->converged()) << "seed " << seed;
    }
}

// Scenario 4: seeded restart storm across the slaves (warm restarts) with
// the workload running throughout.
TEST(ChaosCrash, RestartStormLinearizable) {
    for (const std::uint64_t seed : {8111ull, 8222ull, 8333ull}) {
        CrashClusterOpts o;
        o.n_slaves = 3;
        auto c = make_crash_cluster(seed, o);
        Fleet fleet;
        fleet.spawn(*c, 4, 60, 0.5, sim::milliseconds(60));
        Cluster::CrashStormSpec storm;
        storm.crashes = 6;
        storm.downtime = sim::milliseconds(400);
        const int scheduled = c->schedule_crash_storm(storm);
        EXPECT_GT(scheduled, 0) << "seed " << seed;
        // The storm spans at most ~6 * 900ms; the paced workload runs
        // ~3.6s, so crashes land while clients are live.
        ASSERT_TRUE(fleet.drain(*c, sim::seconds(90))) << "seed " << seed;
        EXPECT_EQ(fleet.history.size(), fleet.ops_issued) << "seed " << seed;
        EXPECT_EQ(c->master().role(), server::Role::kMaster)
            << "seed " << seed;
        gate_linearizable(*c, fleet.history, "restart-storm");
        c->sim().run_until(c->sim().now() + sim::seconds(10));
        EXPECT_TRUE(c->converged()) << "seed " << seed;
    }
}

// Scenario 5: cold restarts recover from the periodic RDB snapshot plus
// backlog partial resync instead of process memory.
TEST(ChaosCrash, ColdRestartStormRecoversFromSnapshot) {
    for (const std::uint64_t seed : {8444ull, 8555ull, 8666ull}) {
        CrashClusterOpts o;
        o.persist_interval = sim::milliseconds(200);
        auto c = make_crash_cluster(seed, o);
        Fleet fleet;
        fleet.spawn(*c, 3, 50, 0.7, sim::milliseconds(60));
        Cluster::CrashStormSpec storm;
        storm.crashes = 4;
        storm.min_gap = sim::milliseconds(400);
        storm.max_gap = sim::seconds(1);
        storm.downtime = sim::milliseconds(500);
        storm.mode = server::KvServer::RecoveryMode::kCold;
        EXPECT_GT(c->schedule_crash_storm(storm), 0) << "seed " << seed;

        ASSERT_TRUE(fleet.drain(*c, sim::seconds(90))) << "seed " << seed;
        EXPECT_EQ(fleet.history.size(), fleet.ops_issued) << "seed " << seed;
        gate_linearizable(*c, fleet.history, "cold-storm");

        c->sim().run_until(c->sim().now() + sim::seconds(10));
        EXPECT_TRUE(c->converged()) << "seed " << seed;
        std::uint64_t cold = 0;
        std::uint64_t snaps = 0;
        for (int i = 0; i < c->slave_count(); ++i) {
            cold += c->slave(i).stats().counter("cold_recoveries");
            snaps += c->slave(i).stats().counter("snapshots_persisted");
        }
        EXPECT_GT(cold, 0u) << "seed " << seed;
        EXPECT_GT(snaps, 0u) << "seed " << seed;
        for (int i = 0; i < c->slave_count(); ++i) {
            EXPECT_TRUE(c->master().db().equals(c->slave(i).db()))
                << "seed " << seed << " slave" << i;
        }
    }
}

// ---------------------------------------------------------------------------
// Self-test: the checker must provably reject a real injected consistency
// bug. With stale replica reads enabled and no commit gating, a read
// served by a replication-cut slave observes an old value; the recorded
// history is genuinely non-linearizable and the gate must say so.
TEST(ChaosCrash, CheckerRejectsInjectedStaleRead) {
    CrashClusterOpts o;
    o.wait_for_slaves = 0;
    o.serve_stale_reads = true; // the injected bug
    auto c = make_crash_cluster(7777, o);
    check::History hist;
    auto record = [&](check::OpType type, const std::string& value, bool found,
                      std::int64_t invoke, std::int64_t complete) {
        check::Op op;
        op.client = type == check::OpType::kWrite ? 1 : 2;
        op.seq = static_cast<std::uint64_t>(invoke);
        op.type = type;
        op.key = "sk";
        op.value = value;
        op.found = found;
        op.invoke_ns = invoke;
        op.complete_ns = complete;
        hist.record(op);
    };

    RawConn master(*c, 0, "w");
    ASSERT_TRUE(master.connected());
    std::int64_t t0 = c->sim().now().ns();
    EXPECT_TRUE(master.call({"SET", "sk", "v1"}).is_ok());
    record(check::OpType::kWrite, "v1", true, t0, c->sim().now().ns());
    c->sim().run_until(c->sim().now() + sim::seconds(1));
    ASSERT_TRUE(c->converged());

    // Cut replication to slave0 (both the NIC fan-out and the direct
    // master link), then overwrite the key. slave0 keeps v1 forever.
    net::FaultSpec cut;
    cut.blocked = true;
    c->fabric().faults().set_pair(c->nic_kv()->endpoint(),
                                  c->slave(0).node().ep, cut);
    c->fabric().faults().set_pair(c->master().node().ep,
                                  c->slave(0).node().ep, cut);
    t0 = c->sim().now().ns();
    EXPECT_TRUE(master.call({"SET", "sk", "v2"}).is_ok());
    record(check::OpType::kWrite, "v2", true, t0, c->sim().now().ns());
    c->sim().run_until(c->sim().now() + sim::milliseconds(100));

    RawConn stale(*c, 1, "r");
    ASSERT_TRUE(stale.connected());
    t0 = c->sim().now().ns();
    const auto v = stale.call({"GET", "sk"});
    ASSERT_EQ(v.kind, kv::resp::Value::Kind::kBulk);
    EXPECT_EQ(v.str, "v1") << "expected the injected stale read";
    record(check::OpType::kRead, v.str, true, t0, c->sim().now().ns());

    const auto res = check::check_history(hist);
    EXPECT_FALSE(res.linearizable)
        << "checker failed to reject an injected stale read";
}

// Duplicate-suppressed write retries never double-apply, across both the
// direct-retry path and the replicated stream (APPEND makes re-execution
// visible as a doubled suffix).
TEST(ChaosCrash, DuplicateWriteRetryNeverDoubleApplies) {
    CrashClusterOpts o;
    o.wait_for_slaves = 0;
    auto c = make_crash_cluster(4242, o);
    RawConn conn(*c, 0, "dup");
    ASSERT_TRUE(conn.connected());

    auto v1 = conn.call({"WSEQ", "7", "1", "APPEND", "dk", "x"});
    ASSERT_EQ(v1.kind, kv::resp::Value::Kind::kInteger);
    EXPECT_EQ(v1.num, 1);
    // The "retry": same client, same sequence. The cached reply comes
    // back; the command must NOT run again.
    auto v2 = conn.call({"WSEQ", "7", "1", "APPEND", "dk", "x"});
    ASSERT_EQ(v2.kind, kv::resp::Value::Kind::kInteger);
    EXPECT_EQ(v2.num, 1);
    EXPECT_GE(c->master().stats().counter("dup_suppressed"), 1u);

    auto v3 = conn.call({"WSEQ", "7", "2", "APPEND", "dk", "y"});
    ASSERT_EQ(v3.kind, kv::resp::Value::Kind::kInteger);
    EXPECT_EQ(v3.num, 2);
    // A stale (superseded) sequence is refused outright.
    auto v4 = conn.call({"WSEQ", "7", "1", "APPEND", "dk", "z"});
    EXPECT_TRUE(v4.is_error());
    EXPECT_EQ(v4.str.find("DUPSEQ"), 0u);

    auto got = conn.call({"GET", "dk"});
    ASSERT_EQ(got.kind, kv::resp::Value::Kind::kBulk);
    EXPECT_EQ(got.str, "xy");

    // The replicated stream carried the tags: slaves applied each write
    // exactly once too.
    c->sim().run_until(c->sim().now() + sim::seconds(2));
    ASSERT_TRUE(c->converged());
    for (int i = 0; i < c->slave_count(); ++i) {
        EXPECT_TRUE(c->master().db().equals(c->slave(i).db())) << i;
    }
}

// Satellite: retransmit exhaustion. A one-directional NIC->slave cut with
// a deliberately slow probe detector: the reliable layer must reach its
// terminal broken state first and that event alone must invalidate the
// slave in Nic-KV's node table and the master's replica count.
TEST(ChaosCrash, RetransmitExhaustionBreaksLinkAndInvalidates) {
    CrashClusterOpts o;
    o.waiting_time = sim::seconds(30); // probes can't win this race
    auto c = make_crash_cluster(5151, o);
    ASSERT_EQ(c->nic_kv()->valid_slaves(), 2);
    ASSERT_EQ(c->master().available_slaves(), 2);

    net::FaultSpec cut;
    cut.blocked = true;
    c->fabric().faults().set_pair(c->nic_kv()->endpoint(),
                                  c->slave(0).node().ep, cut);

    // Traffic to retransmit: fan-out frames pile up unacked on the cut
    // link while the healthy replica keeps the writes committing.
    RawConn conn(*c, 0, "rt");
    ASSERT_TRUE(conn.connected());
    for (int i = 0; i < 20; ++i) {
        conn.call({"SET", "rk" + std::to_string(i), "v"});
    }
    // Default ReliableParams: 8 retries, RTO 5ms doubling to 160ms —
    // terminal broken well under 3 seconds.
    c->sim().run_until(c->sim().now() + sim::seconds(3));

    EXPECT_GE(c->nic_kv()->stats().counter("links_broken"), 1u);
    EXPECT_GE(c->nic_kv()->stats().counter("failures_detected"), 1u);
    EXPECT_EQ(c->nic_kv()->valid_slaves(), 1);
    EXPECT_EQ(c->master().available_slaves(), 1);
    EXPECT_GT(c->nic_kv()->stats().counter("rel.retransmits"), 0u);
}

// Acceptance: with every server down, ops never hang — each completes
// with an explicit failure/timeout inside its deadline.
TEST(ChaosCrash, TotalOutageOpsFailExplicitlyWithinDeadline) {
    CrashClusterOpts o;
    o.n_slaves = 1;
    auto c = make_crash_cluster(6161, o);
    Fleet fleet;
    fleet.spawn(*c, 2, 6, 1.0, sim::milliseconds(150));
    c->sim().run_until(c->sim().now() + sim::milliseconds(300));
    ASSERT_FALSE(fleet.all_idle());
    const auto outage_at = c->sim().now();
    c->crash_node(-1);
    c->crash_node(0);

    ASSERT_TRUE(fleet.drain(*c, sim::seconds(40))) << "clients hung";
    EXPECT_EQ(fleet.history.size(), fleet.ops_issued);
    const auto deadline = sim::seconds(4);
    for (const auto& op : fleet.history.ops()) {
        EXPECT_LE(op.complete_ns - op.invoke_ns, deadline.ns())
            << "op exceeded its deadline";
        if (op.invoke_ns > outage_at.ns()) {
            EXPECT_NE(op.outcome, check::Outcome::kOk)
                << "op succeeded against a fully crashed cluster";
        }
    }
}

// Satellite: timeout/backoff determinism. The full crash scenario — with
// retries, backoff jitter, and failover — is a pure function of the seed:
// double-running it yields bit-identical trace digests and histories.
TEST(ChaosCrash, CrashScenarioDeterministicWithRetries) {
    auto run_once = [](std::uint64_t seed) {
        auto c = make_crash_cluster(seed);
        Fleet fleet;
        fleet.spawn(*c, 2, 25, 0.5);
        c->sim().run_until(c->sim().now() + sim::milliseconds(300));
        EXPECT_FALSE(fleet.all_idle());
        c->crash_node(-1);
        c->sim().run_until(c->sim().now() + sim::milliseconds(400));
        c->crash_node(0);
        c->sim().run_until(c->sim().now() + sim::milliseconds(500));
        c->restart_node(0, server::KvServer::RecoveryMode::kWarm);
        EXPECT_TRUE(fleet.drain(*c, sim::seconds(60)));
        std::string fp;
        fp += std::to_string(c->sim().events_executed()) + "|";
        fp += std::to_string(c->sim().trace_digest()) + "|";
        fp += fleet.history.to_json() + "|";
        fp += c->nic_kv()->stats().format() + "|";
        fp += std::to_string(fleet.ok());
        return fp;
    };
    EXPECT_EQ(run_once(31), run_once(31));
    EXPECT_NE(run_once(31), run_once(32));
}

} // namespace
} // namespace skv::offload
