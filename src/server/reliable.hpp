#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "net/channel.hpp"
#include "obs/metrics.hpp"
#include "sim/simulation.hpp"

namespace skv::server {

/// Retransmission knobs for one reliable node link.
struct ReliableParams {
    /// First retransmission timeout; doubles (times `backoff`) on each
    /// consecutive unanswered retransmission up to `max_rto`.
    sim::Duration initial_rto{sim::milliseconds(5)};
    sim::Duration max_rto{sim::milliseconds(160)};
    double backoff = 2.0;
    /// After this many retransmissions of the same message the link is
    /// declared broken and `on_broken` fires (the failure detector / owner
    /// decides what to do — the channel itself stops trying).
    int max_retries = 8;
    /// Acks are cumulative and delayed to amortize their cost; duplicates
    /// and out-of-order arrivals trigger an immediate ack instead.
    sim::Duration ack_delay{sim::microseconds(200)};
    /// Out-of-order messages buffered while a hole is outstanding; anything
    /// beyond the window is dropped and recovered by retransmission.
    std::size_t reorder_window = 64;
};

/// Sequence numbers + ack-driven retransmission + duplicate suppression on
/// top of any net::Channel. The node-message path (master -> Nic-KV
/// replication requests, Nic-KV -> slave fan-out, probes and acks) runs
/// through this so an injected-loss link degrades throughput instead of
/// silently losing replicated writes (paper §III-D assumes the transport
/// retransmits; under fault injection we must do it ourselves).
///
/// Wire format, all little-endian:
///   'D' seq(8) crc32(4) payload   data, seq starts at 1
///   'A' cum_ack(8)                cumulative: every seq <= cum_ack arrived
///
/// The layer is deterministic: no RNG, all timing from ReliableParams.
class ReliableChannel final
    : public net::Channel,
      public std::enable_shared_from_this<ReliableChannel> {
public:
    /// Fires once, when max_retries is exhausted on some message; receives
    /// the broken wrapper (owners key their link tables by it).
    using BrokenHandler = std::function<void(const net::Channel* broken)>;

    /// Wrap `inner`; the wrapper installs its own inner receive handler
    /// immediately (shared_from_this forbids doing this in a constructor).
    /// When `reg` is given, the owner's aggregate rel.retransmits and
    /// rel.acks_sent counters are resolved once here, so the hot path pays
    /// a pointer bump instead of a map lookup.
    static std::shared_ptr<ReliableChannel> wrap(sim::Simulation& sim,
                                                 net::ChannelPtr inner,
                                                 ReliableParams params = {},
                                                 obs::Registry* reg = nullptr,
                                                 BrokenHandler on_broken = {});

    // --- net::Channel ----------------------------------------------------
    void send(std::string payload) override;
    void close() override;
    [[nodiscard]] bool open() const override {
        return !broken_ && inner_->open();
    }
    [[nodiscard]] net::EndpointId peer() const override {
        return inner_->peer();
    }
    [[nodiscard]] std::size_t backlog_bytes() const override {
        return inner_->backlog_bytes();
    }
    [[nodiscard]] std::uint64_t flow_id() const override {
        return inner_->flow_id();
    }

    [[nodiscard]] bool broken() const { return broken_; }
    [[nodiscard]] const net::ChannelPtr& inner() const { return inner_; }

private:
    ReliableChannel(sim::Simulation& sim, net::ChannelPtr inner,
                    ReliableParams params)
        : sim_(sim), inner_(std::move(inner)), params_(params) {}

    static std::uint32_t crc32(std::string_view bytes);

    void on_inner_message(std::string payload);
    void handle_data(std::uint64_t seq, std::string payload);
    void send_ack_now();
    void schedule_ack(bool immediate);
    void arm_rto();
    void on_rto(std::uint64_t epoch);

    sim::Simulation& sim_;
    net::ChannelPtr inner_;
    ReliableParams params_;

    // Sender side.
    struct Unacked {
        std::uint64_t seq;
        std::string wire; // full encoded data frame, reusable verbatim
        int retries = 0;
    };
    std::uint64_t next_seq_ = 1;
    std::deque<Unacked> unacked_;
    sim::Duration rto_{sim::Duration::zero()};
    std::uint64_t rto_epoch_ = 0; // invalidates stale timer callbacks
    bool rto_armed_ = false;

    // Receiver side.
    std::uint64_t delivered_seq_ = 0; // highest in-order seq delivered
    std::map<std::uint64_t, std::string> reorder_;
    bool ack_scheduled_ = false;
    std::uint64_t ack_epoch_ = 0;

    BrokenHandler on_broken_;
    bool broken_ = false;
    bool closed_ = false;

    // Owner-scoped aggregate counters, pre-resolved in wrap(). Inert when
    // no registry was supplied.
    obs::Counter c_retransmits_;
    obs::Counter c_acks_;
};

using ReliableChannelPtr = std::shared_ptr<ReliableChannel>;

} // namespace skv::server
