// simlint:protocol(quorum)
// Quorum replication, Nic-KV side (DESIGN.md §13).
#include <algorithm>
#include <functional>

#include "skv/nic_kv.hpp"

namespace skv::offload {

using server::NodeMsg;

void NicQuorum::fan_out(const NodeMsg& msg) {
    NicReplication::fan_out(msg);
    // An injected zero-ack majority (split-brain self-test) advances the
    // watermark on the master's copy alone, i.e. right here; for a real
    // majority this recompute is a cheap no-op until acks arrive.
    recompute_watermark();
}

void NicQuorum::on_master_registered(const net::ChannelPtr& ch) {
    if (watermark_ <= 0 || !ch->open()) return;
    // A (re)attaching master learns the current commit watermark at once
    // instead of waiting for the next ack-driven advance — parked replies
    // it re-accumulates would otherwise stall until new writes.
    n_.nic_.core(0).consume(n_.costs_.event_dispatch);
    ch->send(NodeMsg{NodeMsg::Type::kQuorumCommit, watermark_, ""}.encode());
}

bool NicQuorum::on_frame(const net::ChannelPtr& ch, const NodeMsg& msg) {
    if (msg.type == NodeMsg::Type::kQuorumAck) {
        handle_ack(ch, msg);
        return true;
    }
    if (msg.type == NodeMsg::Type::kReadRepair) {
        handle_read_repair(msg);
        return true;
    }
    return false;
}

int NicQuorum::pick_stand_in() const {
    int pick = -1;
    std::int64_t best = -1;
    for (std::size_t i = 0; i < n_.nodes_.size(); ++i) {
        const auto& e = n_.nodes_[i];
        if (e.is_master || !e.valid || !e.channel) continue;
        const std::int64_t off = std::max(e.quorum_ack, e.repl_offset);
        if (off > best) {
            best = off;
            pick = static_cast<int>(i);
        }
    }
    return pick;
}

int NicQuorum::slave_acks_needed() const {
    const int forced = n_.cfg_.quorum_slave_acks_override;
    if (forced >= 0) return forced;
    // Replica set = master + every registered slave (fixed-n ABD). The
    // master's own copy counts toward the majority, so the NIC needs
    // majority(n) - 1 slave acks. Dead slaves stay in the denominator:
    // shrinking it on failure would silently weaken the quorum.
    const int replicas = 1 + static_cast<int>(n_.slave_count());
    return replicas / 2 + 1 - 1;
}

void NicQuorum::handle_ack(const net::ChannelPtr& ch, const NodeMsg& msg) {
    n_.nic_.core(0).consume(n_.costs_.event_dispatch);
    NicKv::NodeEntry* e = n_.find_by_channel(ch);
    if (e == nullptr || e->is_master) return;
    e->quorum_ack = std::max(e->quorum_ack, msg.field);
    e->repl_offset = std::max(e->repl_offset, msg.field);
    n_.stats_.incr("quorum_acks");
    recompute_watermark();
}

void NicQuorum::recompute_watermark() {
    const int need = slave_acks_needed();
    std::int64_t mark = 0;
    if (need <= 0) {
        // The master's copy alone is a majority (solo bootstrap, or the
        // injected split-brain override).
        mark = n_.fanout_offset_;
    } else {
        std::vector<std::int64_t> acks;
        for (const auto& e : n_.nodes_) {
            if (!e.is_master) acks.push_back(e.quorum_ack);
        }
        if (static_cast<int>(acks.size()) < need) return;
        std::sort(acks.begin(), acks.end(), std::greater<>());
        mark = acks[static_cast<std::size_t>(need - 1)];
    }
    if (mark <= watermark_) return;
    watermark_ = mark;
    net::Channel* master = n_.open_master_link();
    if (master == nullptr) return;
    n_.nic_.core(0).consume(n_.costs_.event_dispatch);
    master->send(NodeMsg{NodeMsg::Type::kQuorumCommit, watermark_, ""}.encode());
    n_.stats_.incr("quorum_commits");
}

void NicQuorum::handle_read_repair(const NodeMsg& msg) {
    // ABD read phase 2: the master pushed the not-yet-majority backlog
    // suffix; re-fan it to replicas that have not acknowledged it. Overlap
    // with data already applied is harmless (stale-skip on the slave).
    n_.nic_.core(0).consume(n_.costs_.jittered(n_.rng_, n_.costs_.nic_repl_parse));
    const std::int64_t end = msg.field + static_cast<std::int64_t>(msg.body.size());
    const std::string wire =
        NodeMsg{NodeMsg::Type::kReplData, msg.field, msg.body}.encode();
    for (auto& e : n_.nodes_) {
        if (!NicKv::live_slave(e) || e.quorum_ack >= end) continue;
        cpu::Core& core = n_.nic_.core(e.core_idx);
        core.consume(n_.costs_.jittered(n_.rng_, n_.costs_.nic_repl_fanout_per_slave) +
                     n_.costs_.copy_cost(msg.body.size()));
        e.channel->send(wire);
        n_.stats_.incr("read_repair_sends");
    }
    n_.stats_.incr("read_repairs");
}

} // namespace skv::offload
