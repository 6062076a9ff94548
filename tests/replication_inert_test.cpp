// Off-protocol frames stay inert: a node running one replication protocol
// that receives a frame owned by another protocol neither applies it nor
// lets it move commit state. Pins each receiver's reaction per (mode, tag)
// pair: counted as unexpected, or (kChainSet) dropped without a count.
#include <gtest/gtest.h>

#include "kv/resp.hpp"
#include "server/reliable.hpp"
#include "skv/cluster.hpp"

namespace skv::offload {
namespace {

using server::NodeMsg;
using server::ReplicationMode;

enum class Target : std::uint8_t { kSlave, kMaster, kNic };

struct InertCase {
    ReplicationMode mode;
    Target target;
    NodeMsg::Type tag;
    /// Whether the receiver counts the frame as unexpected (else it is
    /// dropped without any count).
    bool counted;
};

std::string case_name(const testing::TestParamInfo<InertCase>& info) {
    const InertCase& p = info.param;
    static const char* const kTargets[] = {"Slave", "Master", "Nic"};
    return std::string(server::to_string(p.mode)) +
           kTargets[static_cast<int>(p.target)] + "Tag" +
           static_cast<char>(p.tag);
}

class OffProtocolFrame : public testing::TestWithParam<InertCase> {};

TEST_P(OffProtocolFrame, StaysInert) {
    const InertCase& p = GetParam();
    ClusterConfig cfg;
    cfg.seed = 5;
    cfg.n_slaves = 2;
    cfg.offload = true;
    cfg.server_tmpl.replication_mode = p.mode;
    cfg.server_tmpl.wait_for_slaves = 1;
    Cluster c(cfg);
    c.start();
    auto run_for = [&c](sim::Duration d) { c.sim().run_until(c.sim().now() + d); };

    net::EndpointId ep = c.nic_kv()->endpoint();
    std::uint16_t port = c.nic_kv()->config().port;
    obs::Registry* stats = &c.nic_kv()->stats();
    const char* malformed = "malformed";
    const char* unexpected = "unexpected_msgs";
    server::KvServer* host = nullptr;
    if (p.target != Target::kNic) {
        host = p.target == Target::kSlave ? &c.slave(0) : &c.master();
        ep = host->node().ep;
        port = static_cast<std::uint16_t>(host->config().port + 1);
        stats = &host->stats();
        malformed = "node_msgs_malformed";
        unexpected = "node_msgs_unexpected";
    }

    // A master gets a write parked on replica acks first (its replicas are
    // dead), so a frame that moved its commit state would release it.
    net::ChannelPtr client;
    if (p.target == Target::kMaster) {
        c.crash_node(0);
        c.crash_node(1);
        c.connect_client(c.add_client_host("writer"),
                         [&](net::ChannelPtr ch) { client = std::move(ch); });
        run_for(sim::milliseconds(10));
        ASSERT_TRUE(client);
        client->set_on_message([](std::string) {});
        client->send(kv::resp::command({"SET", "parked", "v"}));
        run_for(sim::milliseconds(5));
        ASSERT_EQ(c.master().parked_replies(), 1u);
    }

    // The test's end of the node link speaks the same reliable envelope.
    net::ChannelPtr raw;
    c.cm().connect(c.add_client_host("foreign"), ep, port,
                   [&](net::ChannelPtr ch) { raw = std::move(ch); });
    run_for(sim::milliseconds(10));
    ASSERT_TRUE(raw);
    auto link = server::ReliableChannel::wrap(c.sim(), raw);
    link->set_on_message([](std::string) {});

    const std::uint64_t unexpected_before = stats->counter(unexpected);
    const std::int64_t applied_before =
        host != nullptr ? host->slave_applied_offset() : 0;
    const std::int64_t offset =
        p.target == Target::kMaster ? c.master().master_offset() + (1 << 20)
                                    : applied_before;
    link->send(NodeMsg{p.tag, offset,
                       kv::resp::command({"SET", "inert", "x"})}
                   .encode());
    run_for(sim::milliseconds(20));

    EXPECT_EQ(stats->counter(malformed), 0u);
    EXPECT_EQ(stats->counter(unexpected),
              unexpected_before + (p.counted ? 1 : 0));
    if (host != nullptr) {
        EXPECT_EQ(host->slave_applied_offset(), applied_before);
        EXPECT_EQ(host->db().lookup("inert"), nullptr);
        EXPECT_EQ(host->stats().counter("chain_sets"), 0u);
    }
    if (p.target == Target::kMaster) {
        EXPECT_EQ(c.master().parked_replies(), 1u);
    }
    if (p.target == Target::kNic) {
        EXPECT_EQ(c.nic_kv()->stats().counter("quorum_acks"), 0u);
        EXPECT_EQ(c.nic_kv()->stats().counter("read_repairs"), 0u);
    }
}

constexpr ReplicationMode kFanout = ReplicationMode::kFanout;
constexpr ReplicationMode kChain = ReplicationMode::kChain;
constexpr ReplicationMode kQuorum = ReplicationMode::kQuorum;

INSTANTIATE_TEST_SUITE_P(
    ModeByForeignTag, OffProtocolFrame,
    testing::Values(
        InertCase{kFanout, Target::kSlave, NodeMsg::Type::kChainData, true},
        InertCase{kQuorum, Target::kSlave, NodeMsg::Type::kChainData, true},
        InertCase{kChain, Target::kMaster, NodeMsg::Type::kQuorumCommit, true},
        InertCase{kFanout, Target::kMaster, NodeMsg::Type::kQuorumCommit, true},
        InertCase{kFanout, Target::kNic, NodeMsg::Type::kQuorumAck, true},
        InertCase{kFanout, Target::kNic, NodeMsg::Type::kReadRepair, true},
        InertCase{kChain, Target::kNic, NodeMsg::Type::kQuorumAck, true},
        InertCase{kChain, Target::kNic, NodeMsg::Type::kReadRepair, true},
        InertCase{kFanout, Target::kSlave, NodeMsg::Type::kChainSet, false},
        InertCase{kQuorum, Target::kSlave, NodeMsg::Type::kChainSet, false}),
    case_name);

} // namespace
} // namespace skv::offload
