// simlint:protocol(chain)
// Chain replication, Host-KV side (DESIGN.md §13).
#include <algorithm>

#include "server/kv_server.hpp"
#include "sim/check.hpp"

namespace skv::server {

bool ChainReplication::committed(std::int64_t offset) const {
    if (!gating()) return true;
    // Chain commit = the tail applied it, which in an in-order chain
    // means every live member did: require all valid links, so a tail
    // read can never miss an acked write. The detector's member count
    // is a floor on the requirement: a healed member the NIC already
    // splices back in (it may become the leased tail) can be missing
    // from slaves_ until it re-registers, and committing without its
    // ack in that window would let the new tail serve stale reads.
    const int members = s_.cfg_.offload_replication ? s_.available_slaves_ : 0;
    return acked(std::max(valid_slaves(), members), offset);
}

bool ChainReplication::on_frame(const NodeMsg& msg) {
    if (msg.type == NodeMsg::Type::kChainSet) {
        handle_set(msg);
        return true;
    }
    if (msg.type == NodeMsg::Type::kChainData && s_.role_ == Role::kSlave) {
        // Relay downstream first (so the hop overlaps our own apply), then
        // apply locally.
        forward_frame(msg.field, msg.body);
        if (s_.tracer_ != nullptr && s_.tracer_->enabled()) {
            s_.tracer_->repl_slave_apply(msg.field, s_.obs_track_);
        }
        s_.apply_repl_stream(msg.field, msg.body);
        return true;
    }
    return false;
}

bool ChainReplication::serve_replica_read() {
    // The tail's copy is the chain's committed prefix (every acked write
    // passed through it), so the tail may answer reads while its probe
    // lease is fresh and it has caught up to its assignment-time floor.
    if (!read_ok()) return false;
    c_tail_reads_.incr();
    return true;
}

bool ChainReplication::on_link_broken(const net::Channel* raw) {
    if (succ_link_.get() != raw) return false;
    s_.drop_link(succ_link_);
    // No redial on our own: the NIC's failure detector re-splices the
    // chain and sends a fresh assignment (possibly naming someone else).
    return true;
}

void ChainReplication::on_crash() {
    succ_link_.reset(); // no close(): a dead process sends no FIN
    reset();
}

void ChainReplication::reset() {
    member_ = false;
    is_tail_ = false;
    succ_.clear();
    ++dial_epoch_; // orphan any in-flight successor dial
    s_.drop_link(succ_link_);
    fwd_pending_.clear();
    fwd_pending_bytes_ = 0;
}

void ChainReplication::handle_set(const NodeMsg& msg) {
    if (s_.role_ != Role::kSlave) return;
    c_sets_.incr();
    if (msg.body == "-") {
        // The master died: the chain carries no commits until it returns,
        // so leave it (and stop serving leased tail reads immediately).
        reset();
        return;
    }
    member_ = true;
    // The NIC's fan-out cursor at assignment time: data this member may
    // still be missing from before the splice. Reads stay refused until
    // the local apply cursor passes it.
    read_floor_ = msg.field;
    is_tail_ = msg.body.empty();
    if (msg.body == succ_ && (is_tail_ || (succ_link_ && succ_link_->open()))) {
        return; // no successor change and the link is healthy
    }
    // Successor changed (or its link died): drop the old link and any
    // frames buffered for it — the NIC resyncs the new successor's gap.
    s_.drop_link(succ_link_);
    fwd_pending_.clear();
    fwd_pending_bytes_ = 0;
    succ_ = msg.body;
    if (!is_tail_) dial_successor();
}

void ChainReplication::dial_successor() {
    const auto at = succ_.find('@');
    if (at == std::string::npos) return;
    const auto ep = static_cast<net::EndpointId>(std::stoul(succ_.substr(at + 1)));
    SKV_CHECK(s_.cfg_.transport == Transport::kRdma,
              "chain replication requires the RDMA transport");
    // A promotion leaves the chain (reset), which supersedes a dial still
    // in flight.
    s_.dial_node(
        ep, static_cast<std::uint16_t>(s_.cfg_.port + 1), &dial_epoch_,
        &succ_link_,
        [this](const net::ChannelPtr& ch) {
            // Relay frames that arrived while the dial was in flight.
            while (!fwd_pending_.empty()) {
                auto [off, data] = std::move(fwd_pending_.front());
                fwd_pending_.pop_front();
                fwd_pending_bytes_ -= data.size();
                ch->send(NodeMsg{NodeMsg::Type::kChainData, off, data}.encode());
            }
        },
        [this]() {
            // A tail needs no successor; a node off the chain waits for a
            // fresh assignment.
            if (!is_tail_ && member_) dial_successor();
        });
}

void ChainReplication::forward_frame(std::int64_t offset,
                                     const std::string& bytes) {
    if (is_tail_ || succ_.empty()) return;
    if (succ_link_ && succ_link_->open()) {
        s_.self_.core->consume(s_.costs_.jittered(s_.rng_, s_.costs_.repl_feed_slave) +
                               s_.costs_.copy_cost(bytes.size()));
        succ_link_->send(NodeMsg{NodeMsg::Type::kChainData, offset, bytes}.encode());
        c_forwards_.incr();
        return;
    }
    // Successor link still dialing: hold the frame (bounded). Overflow is
    // dropped — the NIC's stall resync serves the successor from the
    // master's backlog instead.
    if (fwd_pending_bytes_ + bytes.size() <= kFwdPendingCap) {
        fwd_pending_bytes_ += bytes.size();
        fwd_pending_.emplace_back(offset, bytes);
    }
}

// simlint:observe-only
bool ChainReplication::read_ok() const {
    if (s_.role_ != Role::kSlave || !member_ || !is_tail_) return false;
    if (s_.applied_offset_ < read_floor_) return false; // still catching up
    // Probe lease: a tail the NIC can no longer reach must stop answering
    // before the detector excludes it from the commit set, or a partitioned
    // stale tail would serve reads that miss newer acked writes.
    return s_.sim_.now().ns() - s_.last_probe_ns_ <= s_.cfg_.chain_read_lease.ns();
}

} // namespace skv::server
