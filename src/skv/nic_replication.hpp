#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/channel.hpp"
#include "server/config.hpp"
#include "server/protocol.hpp"

namespace skv::offload {

class NicKv;

/// Nic-KV's half of a replication protocol (DESIGN.md §13). The base class
/// is fan-out: every request goes to every live slave, the first valid
/// slave stands in for a dead master, and no frame belongs to it. Chain
/// and quorum override only the hooks they change. Protocol classes are
/// NicKv's friends and work on its node table directly.
class NicReplication {
public:
    explicit NicReplication(NicKv& nic) : n_(nic) {}
    virtual ~NicReplication() = default;
    NicReplication(const NicReplication&) = delete;
    NicReplication& operator=(const NicReplication&) = delete;

    /// Send one (already parsed) replication request on to the replicas.
    virtual void fan_out(const server::NodeMsg& msg);
    /// The master (re)registered on `ch`.
    virtual void on_master_registered(const net::ChannelPtr& /*ch*/) {}
    /// A node joined, revalidated or was invalidated.
    virtual void on_membership_change() {}
    /// First look at every frame; true when the protocol consumed it.
    /// Frames it leaves take NicKv's dispatch.
    virtual bool on_frame(const net::ChannelPtr&, const server::NodeMsg&) {
        return false;
    }
    /// Whether a valid slave stuck below the fan-out cursor across a whole
    /// probe round is resynced. Fan-out does not need it: the reliable
    /// links already retransmit everything it sends.
    [[nodiscard]] virtual bool stall_resync() const { return false; }
    /// Node index to promote while the master is down, or -1.
    [[nodiscard]] virtual int pick_stand_in() const;
    /// Nic-KV crashed: forget volatile protocol state.
    virtual void on_crash() {}

protected:
    NicKv& n_;
};

/// The NIC's protocol object for `mode` (a new protocol adds one line).
std::unique_ptr<NicReplication> make_nic_replication(
    NicKv& nic, server::ReplicationMode mode);

/// Chain replication: one send to the chain head per request; members
/// relay downstream along successor assignments the NIC pushes.
class NicChain final : public NicReplication {
public:
    using NicReplication::NicReplication;
    void fan_out(const server::NodeMsg& msg) override;
    /// Re-splice the chain and push fresh successor assignments.
    void on_membership_change() override;
    [[nodiscard]] bool stall_resync() const override { return true; }
    /// Names of the current chain members, head first.
    [[nodiscard]] std::vector<std::string> order() const;
};

/// ABD-style quorum: the NIC aggregates slave acks into the majority
/// watermark it releases to the master.
class NicQuorum final : public NicReplication {
public:
    using NicReplication::NicReplication;
    void fan_out(const server::NodeMsg& msg) override;
    void on_master_registered(const net::ChannelPtr& ch) override;
    bool on_frame(const net::ChannelPtr& ch, const server::NodeMsg& msg) override;
    [[nodiscard]] bool stall_resync() const override { return true; }
    /// The most caught-up replica the ack aggregation knows about.
    [[nodiscard]] int pick_stand_in() const override;
    void on_crash() override { watermark_ = 0; }
    /// Highest offset known replicated on a replica majority.
    [[nodiscard]] std::int64_t watermark() const { return watermark_; }

private:
    void handle_ack(const net::ChannelPtr& ch, const server::NodeMsg& msg);
    void handle_read_repair(const server::NodeMsg& msg);
    [[nodiscard]] int slave_acks_needed() const;
    void recompute_watermark();

    std::int64_t watermark_ = 0;
};

} // namespace skv::offload
