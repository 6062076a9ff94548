#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>

#include "net/channel.hpp"
#include "server/config.hpp"
#include "server/protocol.hpp"

namespace skv::server {

class KvServer;

/// Host-KV's half of a replication protocol (DESIGN.md §13). The base class
/// is fan-out: a master commits at min(wait_for_slaves, valid slaves) acks,
/// replicas refuse reads when stale reads are off, and no frame belongs to
/// it. Chain and quorum override only the hooks they change. Protocol
/// classes are KvServer's friends and work on its state directly.
class Replication {
public:
    explicit Replication(KvServer& server) : s_(server) {}
    virtual ~Replication() = default;
    Replication(const Replication&) = delete; // callbacks capture `this`
    Replication& operator=(const Replication&) = delete;

    /// Commit predicate: may a reply parked at stream `offset` go out?
    [[nodiscard]] virtual bool committed(std::int64_t offset) const;
    /// First look at every node frame; true when the protocol consumed it.
    /// Frames it leaves take KvServer's off-protocol path.
    virtual bool on_frame(const NodeMsg& /*msg*/) { return false; }
    /// A replica got a read while stale reads are off: may it answer?
    virtual bool serve_replica_read() { return false; }
    /// A read was parked behind the commit gate at `offset`.
    virtual void on_read_parked(std::int64_t /*offset*/) {}
    /// Progress report time (KvServer::send_ack).
    virtual void on_progress() {}
    /// The node was promoted to stand-in master or demoted to slave.
    virtual void on_role_change() {}
    /// A node link broke; true when it was one the protocol dialed.
    virtual bool on_link_broken(const net::Channel* /*raw*/) { return false; }
    /// The process crashed: forget volatile state without closing links.
    virtual void on_crash() {}

protected:
    /// Whether commit gating applies here at all (a gating master).
    [[nodiscard]] bool gating() const;
    [[nodiscard]] int valid_slaves() const;
    /// Whether at least `need` valid slaves acknowledged `offset`.
    [[nodiscard]] bool acked(int need, std::int64_t offset) const;

    KvServer& s_;
};

/// The node's protocol object for `mode` (a new protocol adds one line).
std::unique_ptr<Replication> make_replication(KvServer& server,
                                              ReplicationMode mode);

/// Chain replication, member side: relays kChainData to the successor the
/// NIC assigned (kChainSet) and serves tail reads under a probe lease.
class ChainReplication final : public Replication {
public:
    using Replication::Replication;
    [[nodiscard]] bool committed(std::int64_t offset) const override;
    bool on_frame(const NodeMsg& msg) override;
    bool serve_replica_read() override;
    void on_role_change() override { reset(); }
    bool on_link_broken(const net::Channel* raw) override;
    void on_crash() override;

private:
    void handle_set(const NodeMsg& msg);
    void forward_frame(std::int64_t offset, const std::string& bytes);
    void dial_successor();
    /// Leave the chain: drop the successor link and anything buffered.
    void reset();
    /// Whether this node may answer a read right now as the chain tail.
    [[nodiscard]] bool read_ok() const;

    bool member_ = false;    // holds a live kChainSet assignment
    bool is_tail_ = false;
    std::string succ_;       // successor "<name>@<ep>", "" = tail
    net::ChannelPtr succ_link_;
    std::uint64_t dial_epoch_ = 0;
    std::int64_t read_floor_ = 0;
    /// Frames to relay that arrived while the successor link was dialing.
    /// Bounded; overflow drops (the NIC's stall resync heals the gap).
    std::deque<std::pair<std::int64_t, std::string>> fwd_pending_;
    std::size_t fwd_pending_bytes_ = 0;
    static constexpr std::size_t kFwdPendingCap = 8 * 1024 * 1024;
};

/// ABD-style quorum replication: slaves report progress to the NIC, the
/// master commits at the NIC-released majority watermark, and parked reads
/// push a write-back through the NIC.
class QuorumReplication final : public Replication {
public:
    using Replication::Replication;
    [[nodiscard]] bool committed(std::int64_t offset) const override;
    bool on_frame(const NodeMsg& msg) override;
    void on_read_parked(std::int64_t offset) override;
    void on_progress() override;
    void on_crash() override { commit_offset_ = read_repair_sent_ = 0; }
    /// The majority watermark last released by the NIC.
    [[nodiscard]] std::int64_t commit_offset() const { return commit_offset_; }

private:
    std::int64_t commit_offset_ = 0;    // NIC-released majority watermark
    std::int64_t read_repair_sent_ = 0; // high-water dedup for write-backs
};

} // namespace skv::server
