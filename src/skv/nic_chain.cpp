// simlint:protocol(chain)
// Chain replication, Nic-KV side (DESIGN.md §13).
#include "skv/nic_kv.hpp"

namespace skv::offload {

using server::NodeMsg;

void NicChain::fan_out(const NodeMsg& msg) {
    // A single send to the chain head (the first valid member); members
    // relay the frame downstream themselves, so the NIC pays one hop
    // regardless of chain length.
    for (auto& e : n_.nodes_) {
        if (!NicKv::live_slave(e)) continue;
        cpu::Core& core = n_.nic_.core(e.core_idx);
        core.consume(n_.costs_.jittered(n_.rng_, n_.costs_.nic_repl_fanout_per_slave) +
                     n_.costs_.copy_cost(msg.body.size()));
        e.channel->send(
            NodeMsg{NodeMsg::Type::kChainData, msg.field, msg.body}.encode());
        n_.c_fanout_sends_.incr();
        return;
    }
    // No live member: the write stays in the master's backlog and is served
    // to the next chain via resync; the master's commit gate holds it back
    // from clients meanwhile.
}

// simlint:observe-only
std::vector<std::string> NicChain::order() const {
    std::vector<std::string> out;
    for (const auto& e : n_.nodes_) {
        if (NicKv::live_slave(e)) out.push_back(e.name);
    }
    return out;
}

void NicChain::on_membership_change() {
    // Splice the chain from the failure detector's view: valid members in
    // registration order, each told its successor ("" marks the tail). The
    // assignment carries the current fan-out cursor as the member's read
    // floor — a re-spliced-in laggard must not serve tail reads until it
    // has applied at least that much. While the master is down the chain
    // carries no commits (the promoted stand-in serves solo), so members
    // are told to leave ("-"): a leased tail would otherwise keep
    // answering reads that miss the stand-in's writes.
    std::vector<NicKv::NodeEntry*> chain;
    for (auto& e : n_.nodes_) {
        if (NicKv::live_slave(e)) chain.push_back(&e);
    }
    const bool feeding = n_.master_valid();
    for (std::size_t i = 0; i < chain.size(); ++i) {
        std::string body;
        if (!feeding) {
            body = "-";
        } else if (i + 1 < chain.size()) {
            body = chain[i + 1]->name;
        }
        n_.nic_.core(0).consume(n_.costs_.event_dispatch);
        chain[i]->channel->send(
            NodeMsg{NodeMsg::Type::kChainSet, n_.fanout_offset_, body}.encode());
    }
    // Ranges the old chain never relayed to a (re)joining member can only
    // come from the master's backlog.
    if (feeding) {
        for (auto* e : chain) {
            if (e->repl_offset < n_.fanout_offset_) n_.request_resync(*e);
        }
    }
}

} // namespace skv::offload
