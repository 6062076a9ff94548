// simlint:protocol(quorum)
// Quorum replication, Host-KV side (DESIGN.md §13).
#include <algorithm>

#include "server/kv_server.hpp"

namespace skv::server {

bool QuorumReplication::committed(std::int64_t offset) const {
    if (!gating()) return true;
    // Quorum commits are released by the NIC's ack aggregation, not by
    // per-slave ack counting. A master with no registered replicas
    // (bootstrap, or a promoted stand-in serving solo) is its own
    // majority-of-one, matching fan-out's need==0 behavior.
    if (s_.slaves_.empty() && s_.available_slaves_ <= 0) return true;
    return commit_offset_ >= offset;
}

bool QuorumReplication::on_frame(const NodeMsg& msg) {
    if (msg.type == NodeMsg::Type::kQuorumCommit && s_.role_ != Role::kSlave) {
        // The NIC released a new majority watermark.
        commit_offset_ = std::max(commit_offset_, msg.field);
        c_commit_updates_.incr();
        s_.flush_parked();
        return true;
    }
    return false;
}

void QuorumReplication::on_progress() {
    // Slave: report applied progress to the NIC's ack aggregation.
    const auto& link = s_.nic_registration_;
    if (s_.role_ != Role::kSlave || !link || !link->open()) return;
    s_.self_.core->consume(s_.costs_.event_dispatch);
    link->send(NodeMsg{NodeMsg::Type::kQuorumAck, s_.applied_offset_, s_.cfg_.name}.encode());
}

void QuorumReplication::on_read_parked(std::int64_t offset) {
    // ABD read phase 2: this read observed state at `offset`, which is not
    // yet majority-acknowledged. Push the missing backlog suffix back
    // through the NIC so it reaches a majority before the parked reply
    // releases. High-water deduped: concurrent parked reads share one
    // write-back.
    if (!s_.nic_attached_ || !s_.nic_link_ || !s_.nic_link_->open()) return;
    if (offset <= read_repair_sent_ || offset <= commit_offset_) return;
    const std::int64_t from = std::max<std::int64_t>(commit_offset_, 0);
    if (!s_.backlog_.can_serve(from)) return; // resync machinery covers laggards
    const std::string range = s_.backlog_.read_from(from);
    if (range.empty()) return;
    s_.self_.core->consume(s_.costs_.jittered(s_.rng_, s_.costs_.offload_request_build) +
                           s_.costs_.copy_cost(range.size()));
    s_.nic_link_->send(NodeMsg{NodeMsg::Type::kReadRepair, from, range}.encode());
    read_repair_sent_ = s_.backlog_.master_offset();
}

} // namespace skv::server
