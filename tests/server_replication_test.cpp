#include <gtest/gtest.h>

#include "kv/resp.hpp"
#include "skv/cluster.hpp"

namespace skv::server {
namespace {

using offload::Cluster;
using offload::ClusterConfig;

/// Baseline (host-side fan-out) replication tests, run over the RDMA
/// transport like the paper's RDMA-Redis.
class BaselineReplTest : public ::testing::Test {
protected:
    std::unique_ptr<Cluster> make(int slaves, std::uint64_t seed = 5) {
        ClusterConfig cfg;
        cfg.seed = seed;
        cfg.n_slaves = slaves;
        cfg.offload = false;
        cfg.transport = Transport::kRdma;
        auto c = std::make_unique<Cluster>(cfg);
        c->start();
        return c;
    }

    /// Issue commands through a real client connection and wait.
    void run_commands(Cluster& c,
                      const std::vector<std::vector<std::string>>& cmds) {
        auto node = c.add_client_host("tester");
        net::ChannelPtr ch;
        c.connect_client(node, [&](net::ChannelPtr x) { ch = std::move(x); });
        c.sim().run_until(c.sim().now() + sim::milliseconds(10));
        ASSERT_TRUE(ch);
        ch->set_on_message([](std::string) {});
        for (const auto& cmd : cmds) ch->send(kv::resp::command(cmd));
        c.sim().run_until(c.sim().now() + sim::milliseconds(100));
    }
};

TEST_F(BaselineReplTest, SlavesRegisterWithMaster) {
    auto c = make(3);
    EXPECT_EQ(c->master().role(), Role::kMaster);
    EXPECT_EQ(c->master().slave_count(), 3u);
    EXPECT_EQ(c->master().available_slaves(), 3);
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(c->slave(i).role(), Role::kSlave);
    }
}

TEST_F(BaselineReplTest, WritesReachEverySlave) {
    auto c = make(3);
    run_commands(*c, {{"SET", "k1", "v1"},
                      {"SET", "k2", "v2"},
                      {"LPUSH", "l", "a", "b"},
                      {"GETDEL", "k2"}}); // replicated as DEL
    EXPECT_TRUE(c->converged());
    for (int i = 0; i < 3; ++i) {
        EXPECT_TRUE(c->master().db().equals(c->slave(i).db())) << i;
    }
}

TEST_F(BaselineReplTest, ReadsAreNotReplicated) {
    auto c = make(1);
    run_commands(*c, {{"SET", "k", "v"}, {"GET", "k"}, {"GET", "k"}});
    // Only the SET went into the replication stream.
    EXPECT_EQ(c->master().stats().counter("repl_sends"), 1u);
}

TEST_F(BaselineReplTest, FailedWritesNotReplicated) {
    auto c = make(1);
    run_commands(*c, {{"SET", "s", "str"}, {"INCR", "s"}, {"DEL", "nope"}});
    // INCR failed (-ERR) and DEL was a no-op: one replicated command only.
    EXPECT_EQ(c->master().stats().counter("repl_sends"), 1u);
    EXPECT_TRUE(c->converged());
}

TEST_F(BaselineReplTest, LateSlaveFullSyncsExistingData) {
    ClusterConfig cfg;
    cfg.n_slaves = 0;
    // A tiny backlog guarantees the late slave's offset 0 has already been
    // evicted, forcing the full-RDB path rather than a partial resync.
    cfg.server_tmpl.backlog_bytes = 64;
    auto c = std::make_unique<Cluster>(cfg);
    c->start();
    run_commands(*c, {{"SET", "pre", "existing"}, {"SET", "pre2", "more"},
                      {"SET", "pre3", "even-more"}});

    // Attach a brand-new slave after the fact through the harness parts:
    // re-use slave machinery by building a second cluster is complex, so
    // drive the protocol directly: a fresh server + slaveof_baseline.
    auto node = c->add_client_host("late-slave");
    ServerConfig scfg;
    scfg.name = "late";
    scfg.transport = Transport::kRdma;
    KvServer late(c->sim(), c->costs(),
                  KvServer::Transports{&c->fabric(), &c->tcp(), &c->cm()}, node,
                  scfg);
    late.start();
    late.slaveof_baseline(c->master().node().ep, 6380);
    c->sim().run_until(c->sim().now() + sim::milliseconds(100));

    EXPECT_EQ(c->master().stats().counter("sync_full"), 1u);
    EXPECT_TRUE(late.db().equals(c->master().db()));
    EXPECT_EQ(late.slave_applied_offset(), c->master().master_offset());

    // And the steady-state stream now flows to it.
    run_commands(*c, {{"SET", "post", "streamed"}});
    c->sim().run_until(c->sim().now() + sim::milliseconds(50));
    EXPECT_NE(late.db().lookup("post"), nullptr);
}

TEST_F(BaselineReplTest, SlaveRejectsDirectWrites) {
    auto c = make(1);
    // Connect a client to the slave directly.
    auto node = c->add_client_host("writer");
    net::ChannelPtr ch;
    c->cm().connect(node, c->slave(0).node().ep, 6379,
                    [&](rdma::RingChannelPtr x) { ch = x; });
    c->sim().run_until(c->sim().now() + sim::milliseconds(5));
    ASSERT_TRUE(ch);
    std::string reply;
    ch->set_on_message([&](std::string m) { reply += m; });
    ch->send(kv::resp::command({"SET", "k", "v"}));
    ch->send(kv::resp::command({"GET", "k"}));
    c->sim().run_until(c->sim().now() + sim::milliseconds(10));
    EXPECT_NE(reply.find("-READONLY"), std::string::npos);
    EXPECT_NE(reply.find("$-1"), std::string::npos); // GET is served
}

TEST_F(BaselineReplTest, NonDeterministicCommandsConverge) {
    auto c = make(2);
    run_commands(*c, {{"INCRBYFLOAT", "f", "0.1"},
                      {"INCRBYFLOAT", "f", "0.2"}});
    EXPECT_TRUE(c->converged());
    for (int i = 0; i < 2; ++i) {
        EXPECT_TRUE(c->master().db().equals(c->slave(i).db()))
            << "slave " << i << " diverged on effect-replicated commands";
    }
}

TEST_F(BaselineReplTest, ExpiresConvergeViaAbsoluteDeadlines) {
    auto c = make(1);
    run_commands(*c, {{"SET", "k", "v"}, {"EXPIRE", "k", "100"}});
    EXPECT_TRUE(c->converged());
    const auto m = c->master().db().expire_at("k");
    const auto s = c->slave(0).db().expire_at("k");
    ASSERT_TRUE(m.has_value());
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(*m, *s); // PEXPIREAT rewrite: identical absolute deadline
}

TEST_F(BaselineReplTest, AcksAdvanceSlaveOffsets) {
    auto c = make(2);
    run_commands(*c, {{"SET", "a", "1"}, {"SET", "b", "2"}});
    c->sim().run_until(c->sim().now() + sim::milliseconds(300));
    // After a few ack intervals the master knows the slaves are current.
    EXPECT_TRUE(c->converged());
}

/// Property test: a random command stream leaves master and slaves with
/// byte-identical databases.
class ReplConvergenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReplConvergenceTest, RandomStreamConverges) {
    ClusterConfig cfg;
    cfg.seed = GetParam();
    cfg.n_slaves = 2;
    cfg.offload = false;
    Cluster c(cfg);
    c.start();

    auto node = c.add_client_host("fuzzer");
    net::ChannelPtr ch;
    c.connect_client(node, [&](net::ChannelPtr x) { ch = std::move(x); });
    c.sim().run_until(c.sim().now() + sim::milliseconds(10));
    ASSERT_TRUE(ch);
    ch->set_on_message([](std::string) {});

    sim::Rng rng(GetParam() ^ 0xABCD);
    auto key = [&] { return "k" + std::to_string(rng.next_below(20)); };
    for (int i = 0; i < 400; ++i) {
        std::vector<std::string> cmd;
        switch (rng.next_below(10)) {
            case 0: cmd = {"SET", key(), "v" + std::to_string(i)}; break;
            case 1: cmd = {"DEL", key()}; break;
            case 2: cmd = {"INCR", "ctr" + std::to_string(rng.next_below(3))}; break;
            case 3: cmd = {"LPUSH", "l" + std::to_string(rng.next_below(3)),
                           "e" + std::to_string(i)}; break;
            case 4: cmd = {"RPOP", "l" + std::to_string(rng.next_below(3))}; break;
            case 5: cmd = {"INCRBYFLOAT", "f" + std::to_string(rng.next_below(3)),
                           "0.1"}; break;
            // Seconds 0 is in the past: replicated as DEL, else PEXPIREAT.
            case 6: cmd = {"EXPIRE", key(), std::to_string(rng.next_below(100))}; break;
            // Replicated as DEL when the key exists.
            case 7: cmd = {"GETDEL", key()}; break;
            case 8: cmd = {"LPOP", "l" + std::to_string(rng.next_below(3))}; break;
            case 9: cmd = {"APPEND", key(), "x"}; break;
        }
        ch->send(kv::resp::command(cmd));
    }
    c.sim().run_until(c.sim().now() + sim::milliseconds(500));

    ASSERT_TRUE(c.converged());
    for (int i = 0; i < 2; ++i) {
        ASSERT_TRUE(c.master().db().equals(c.slave(i).db())) << "slave " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplConvergenceTest,
                         ::testing::Values(101u, 202u, 303u, 404u));

/// WSEQ duplicate-suppression table: bounded by dup_table_max with LRU
/// eviction, and evictions are replicated so replica tables track the
/// master's in exact lockstep (a promoted stand-in must agree on which
/// retries are still suppressed).
class DupTableLruTest : public ::testing::Test {
protected:
    std::unique_ptr<Cluster> make(std::size_t cap) {
        ClusterConfig cfg;
        cfg.seed = 7;
        cfg.n_slaves = 1;
        cfg.offload = false;
        cfg.server_tmpl.dup_table_max = cap;
        auto c = std::make_unique<Cluster>(cfg);
        c->start();
        return c;
    }

    /// Send commands in order on one connection and let them all land.
    void run_commands(Cluster& c,
                      const std::vector<std::vector<std::string>>& cmds) {
        auto node = c.add_client_host("dup-tester");
        net::ChannelPtr ch;
        c.connect_client(node, [&](net::ChannelPtr x) { ch = std::move(x); });
        c.sim().run_until(c.sim().now() + sim::milliseconds(10));
        ASSERT_TRUE(ch);
        ch->set_on_message([](std::string) {});
        for (const auto& cmd : cmds) ch->send(kv::resp::command(cmd));
        c.sim().run_until(c.sim().now() + sim::milliseconds(200));
    }

    static std::vector<std::string> tagged_set(std::uint64_t client,
                                               std::uint64_t seq) {
        return {"WSEQ", std::to_string(client), std::to_string(seq),
                "SET", "dk" + std::to_string(client), "v"};
    }
};

TEST_F(DupTableLruTest, CapEvictsLeastRecentClient) {
    auto c = make(/*cap=*/4);
    std::vector<std::vector<std::string>> cmds;
    for (std::uint64_t cl = 1; cl <= 8; ++cl) cmds.push_back(tagged_set(cl, 1));
    run_commands(*c, cmds);

    EXPECT_EQ(c->master().dup_entries(), 4u);
    EXPECT_EQ(c->master().stats().counter("dup_evictions"), 4u);
    for (std::uint64_t cl = 1; cl <= 4; ++cl) {
        EXPECT_FALSE(c->master().dup_has(cl)) << "client " << cl;
    }
    for (std::uint64_t cl = 5; cl <= 8; ++cl) {
        EXPECT_TRUE(c->master().dup_has(cl)) << "client " << cl;
    }
}

TEST_F(DupTableLruTest, RetryTouchKeepsLiveClientResident) {
    auto c = make(/*cap=*/4);
    std::vector<std::vector<std::string>> cmds;
    for (std::uint64_t cl = 1; cl <= 4; ++cl) cmds.push_back(tagged_set(cl, 1));
    // Client 1 retries its write mid-stream: the dup hit must refresh its
    // LRU position (and never re-apply the command).
    cmds.push_back(tagged_set(1, 1));
    for (std::uint64_t cl = 5; cl <= 7; ++cl) cmds.push_back(tagged_set(cl, 1));
    run_commands(*c, cmds);

    EXPECT_EQ(c->master().stats().counter("dup_suppressed"), 1u);
    EXPECT_EQ(c->master().stats().counter("dup_evictions"), 3u);
    EXPECT_TRUE(c->master().dup_has(1)) << "live retrier was evicted";
    for (std::uint64_t cl = 2; cl <= 4; ++cl) {
        EXPECT_FALSE(c->master().dup_has(cl)) << "client " << cl;
    }
    // The retry replayed the cached result: the write applied exactly once.
    EXPECT_EQ(c->master().stats().counter("repl_sends"),
              7u + 3u); // 7 writes + 3 replicated evictions
}

TEST_F(DupTableLruTest, ReplicaTableTracksMasterInLockstep) {
    auto c = make(/*cap=*/4);
    std::vector<std::vector<std::string>> cmds;
    for (std::uint64_t cl = 1; cl <= 4; ++cl) cmds.push_back(tagged_set(cl, 1));
    cmds.push_back(tagged_set(2, 1)); // touch: master-side LRU refresh only
    for (std::uint64_t cl = 5; cl <= 7; ++cl) cmds.push_back(tagged_set(cl, 1));
    run_commands(*c, cmds);
    ASSERT_TRUE(c->converged());

    // The replica never runs its own LRU scan — it obeys the replicated
    // WSEQEVICT stream — so even though the touch that saved client 2 was
    // invisible to it, its table is byte-for-byte the master's.
    EXPECT_EQ(c->slave(0).stats().counter("dup_evictions_applied"),
              c->master().stats().counter("dup_evictions"));
    EXPECT_EQ(c->slave(0).dup_entries(), c->master().dup_entries());
    for (std::uint64_t cl = 1; cl <= 7; ++cl) {
        EXPECT_EQ(c->slave(0).dup_has(cl), c->master().dup_has(cl))
            << "client " << cl;
    }
    EXPECT_TRUE(c->master().dup_has(2)) << "touched client should survive";
}

} // namespace
} // namespace skv::server
