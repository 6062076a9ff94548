#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cpu/cost_model.hpp"
#include "net/channel.hpp"
#include "net/fabric.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "sim/simulation.hpp"

namespace skv::rdma {

/// RDMA operation kinds modelled by the simulator. The subset SKV uses:
/// SEND/RECV for control (MR exchange, credits), WRITE_WITH_IMM for the
/// request/reply and replication data path, READ for completeness and the
/// Fig. 3 microbenchmark.
enum class Opcode : std::uint8_t {
    kSend,
    kWrite,
    kWriteWithImm,
    kRead,
    kRecv, // only appears in completions
};

const char* to_string(Opcode op);

/// One completion queue entry (the ibv_wc analogue).
struct Completion {
    std::uint64_t wr_id = 0;
    Opcode op = Opcode::kSend;
    bool success = true;
    bool has_imm = false;
    std::uint32_t imm = 0;
    std::uint32_t byte_len = 0;
    /// For RECV completions triggered by WRITE_WITH_IMM: the ring offset the
    /// sender wrote to. Real receivers know this implicitly because the RC
    /// transport never loses frames; under injected loss the ring messenger
    /// needs it to detect holes and resynchronize its read cursor.
    std::uint64_t remote_offset = 0;
    /// For RECV completions triggered by SEND: the received payload
    /// (already copied into the posted receive buffer; duplicated here so
    /// control-plane handlers need not track buffer offsets).
    std::string inline_payload;
};

/// A registered memory region. Remote WRITEs land in `data()`; ring
/// messengers use the *_wrapped accessors to treat it as a circular buffer.
class MemoryRegion {
public:
    MemoryRegion(std::uint32_t rkey, std::size_t size);
    MemoryRegion(const MemoryRegion&) = delete;
    MemoryRegion& operator=(const MemoryRegion&) = delete;
    ~MemoryRegion() { --live_count_; }

    /// MR objects currently alive (lifetime regression accounting).
    [[nodiscard]] static long live_count() { return live_count_; }

    [[nodiscard]] std::uint32_t rkey() const { return rkey_; }
    [[nodiscard]] std::size_t size() const { return buf_.size(); }

    void write(std::size_t offset, std::string_view bytes);
    [[nodiscard]] std::string read(std::size_t offset, std::size_t len) const;

    /// Circular variants: offset is taken modulo size and the payload wraps.
    void write_wrapped(std::size_t offset, std::string_view bytes);
    [[nodiscard]] std::string read_wrapped(std::size_t offset, std::size_t len) const;

    /// Number of times this MR has been (re-)registered; the ring messenger
    /// re-registers when the receive buffer drains after filling up, per the
    /// paper's flow-control description.
    [[nodiscard]] std::uint32_t generation() const { return generation_; }
    void reregister() { ++generation_; }

private:
    inline static long live_count_ = 0;
    std::uint32_t rkey_;
    std::uint32_t generation_ = 1;
    std::vector<char> buf_;
};

using MemoryRegionPtr = std::shared_ptr<MemoryRegion>;

class CompletionQueue;

/// The completion event channel (ibv_comp_channel): instead of polling the
/// CQ, the owner arms the channel (ibv_req_notify_cq) and gets exactly one
/// callback when the next completion lands, then must re-arm. SKV uses this
/// to avoid burning host CPU on polling (paper §III-B).
class CompletionChannel {
public:
    explicit CompletionChannel(sim::Simulation& sim) : sim_(sim) {}

    void set_on_event(std::function<void()> fn) { on_event_ = std::move(fn); }

    /// Arm the channel: the next completion pushed to an attached CQ fires
    /// the callback once.
    void req_notify() { armed_ = true; }
    [[nodiscard]] bool armed() const { return armed_; }

private:
    friend class CompletionQueue;
    void fire();

    sim::Simulation& sim_;
    std::function<void()> on_event_;
    bool armed_ = false;
};

/// Completion queue. Completions accumulate until polled. The CQ shares
/// ownership of its event channel: in-flight work requests hold the CQ
/// alive past the owning messenger's death, and a push() must still find a
/// live channel to (not) fire.
class CompletionQueue {
public:
    explicit CompletionQueue(std::shared_ptr<CompletionChannel> channel = nullptr)
        : channel_(std::move(channel)) {}

    void push(Completion c);

    /// Drain up to `max` completions (0 = all).
    std::vector<Completion> poll(std::size_t max = 0);

    [[nodiscard]] std::size_t depth() const { return queue_.size(); }
    [[nodiscard]] std::uint64_t total_pushed() const { return total_; }

private:
    std::shared_ptr<CompletionChannel> channel_;
    std::deque<Completion> queue_;
    std::uint64_t total_ = 0;
};

using CompletionQueuePtr = std::shared_ptr<CompletionQueue>;

/// A work request handed to QueuePair::post_send.
struct SendWr {
    std::uint64_t wr_id = 0;
    Opcode op = Opcode::kSend;
    std::string payload;            // bytes to transfer (SEND/WRITE)
    std::uint32_t rkey = 0;         // target MR for WRITE/READ
    std::size_t remote_offset = 0;  // offset within the target MR
    std::size_t read_len = 0;       // for READ
    bool wrapped = false;           // circular-buffer WRITE
    bool has_imm = false;
    std::uint32_t imm = 0;
    bool signaled = true;           // generate a send completion
};

class RdmaNetwork;

/// A reliable-connected queue pair. Two QPs are wired together by the
/// connection manager; posting to one delivers to the other across the
/// simulated fabric. Posting charges the owner core the WR-post cost
/// (doorbell + WQE build), which is exactly the per-slave cost SKV
/// eliminates on the master by offloading fan-out to the NIC.
class QueuePair : public std::enable_shared_from_this<QueuePair> {
public:
    QueuePair(RdmaNetwork& net, net::NodeRef self, CompletionQueuePtr send_cq,
              CompletionQueuePtr recv_cq);
    QueuePair(const QueuePair&) = delete;
    QueuePair& operator=(const QueuePair&) = delete;
    ~QueuePair() { --live_count_; }

    /// QP objects currently alive (lifetime regression accounting; posted
    /// receive WQEs and RNR-queued inbounds die with their QP).
    [[nodiscard]] static long live_count() { return live_count_; }

    /// Wire this QP to its peer (done by the CM for both directions).
    void connect_to(const std::shared_ptr<QueuePair>& peer);

    /// Post a receive buffer (consumed by inbound SEND or WRITE_WITH_IMM).
    void post_recv(std::uint64_t wr_id, MemoryRegionPtr mr, std::size_t offset,
                   std::size_t len);

    /// Post a send-side work request.
    void post_send(SendWr wr);

    [[nodiscard]] bool connected() const { return !peer_.expired(); }
    [[nodiscard]] net::NodeRef self() const { return self_; }
    [[nodiscard]] CompletionQueuePtr send_cq() const { return send_cq_; }
    [[nodiscard]] CompletionQueuePtr recv_cq() const { return recv_cq_; }
    [[nodiscard]] std::size_t posted_recvs() const { return recv_queue_.size(); }

    void disconnect();

private:
    friend class RdmaNetwork;

    struct RecvWqe {
        std::uint64_t wr_id;
        MemoryRegionPtr mr;
        std::size_t offset;
        std::size_t len;
    };

    struct Inbound {
        Opcode op;
        std::string payload;
        std::uint32_t rkey = 0;
        std::size_t remote_offset = 0;
        bool wrapped = false;
        bool has_imm = false;
        std::uint32_t imm = 0;
    };

    /// Put a built WQE on the wire (runs after the doorbell cost elapses).
    void launch(std::shared_ptr<QueuePair> peer, Inbound in,
                std::size_t wire_bytes, std::uint64_t wr_id, Opcode op,
                bool signaled, std::size_t read_len);
    /// Handle an arriving message on the receive side.
    void arrive(Inbound in);
    /// Match an inbound SEND/IMM against a posted receive; queue if none
    /// (RNR condition — resolved when the next recv is posted).
    void consume_recv(Inbound in);

    inline static long live_count_ = 0;
    RdmaNetwork& net_;
    net::NodeRef self_;
    CompletionQueuePtr send_cq_;
    CompletionQueuePtr recv_cq_;
    std::weak_ptr<QueuePair> peer_;
    std::deque<RecvWqe> recv_queue_;
    std::deque<Inbound> rnr_queue_;
};

using QueuePairPtr = std::shared_ptr<QueuePair>;

/// Owns fabric access, the rkey -> MR registry and cost accounting shared
/// by all RDMA objects. One per simulation.
class RdmaNetwork {
public:
    RdmaNetwork(sim::Simulation& sim, net::Fabric& fabric,
                const cpu::CostModel& costs);

    /// Register `size` bytes of memory; returns the MR (rkey assigned).
    /// Charges the registration cost to `node`'s core. The registry holds
    /// only a weak reference: an MR whose owner died (e.g. an abandoned
    /// half-open handshake) is reclaimed with the owner instead of being
    /// retained forever.
    MemoryRegionPtr register_mr(net::NodeRef node, std::size_t size);

    /// Drop the registry entry; remote WRITEs targeting the rkey are then
    /// discarded in flight (counted in writes_unknown_mr()). Called from
    /// channel close() teardown.
    void deregister_mr(std::uint32_t rkey);

    [[nodiscard]] MemoryRegionPtr lookup_mr(std::uint32_t rkey) const;

    /// Inbound WRITE/WRITE_WITH_IMM ops that targeted an unknown (e.g.
    /// deregistered) rkey and were dropped.
    [[nodiscard]] std::uint64_t writes_unknown_mr() const {
        return writes_unknown_mr_;
    }
    void count_unknown_mr_write() { ++writes_unknown_mr_; }

    [[nodiscard]] sim::Simulation& simulation() { return sim_; }
    [[nodiscard]] net::Fabric& fabric() { return fabric_; }
    [[nodiscard]] const cpu::CostModel& costs() const { return costs_; }
    [[nodiscard]] sim::Rng& rng() { return rng_; }

    /// One-way hardware ACK latency for send completions (RC QPs complete a
    /// signaled WR when the remote NIC acks, no remote CPU involved).
    [[nodiscard]] sim::Duration ack_latency() const { return ack_latency_; }
    void set_ack_latency(sim::Duration d) { ack_latency_ = d; }

    /// Per-WR cost charged at post time for endpoint `ep`. Host endpoints
    /// ring the doorbell over PCIe MMIO and occasionally stall on it;
    /// SmartNIC companion endpoints post to their own on-die NIC engine —
    /// cheaper and never exposed to PCIe contention.
    sim::Duration wr_post_cost(net::EndpointId ep);
    /// Cost of posting one receive WQE.
    sim::Duration recv_post_cost();

    /// RoCE header overhead added to payload size on the wire.
    static constexpr std::size_t kHeaderBytes = 58; // Eth+IP+UDP+BTH(+RETH)

    /// RDMA-layer typed metrics (WR posts, WRITE_WITH_IMM count, MR
    /// registrations — hot counters pre-resolved at construction).
    [[nodiscard]] obs::Registry& obs() { return obs_; }
    /// Observability tracer shared by all RDMA objects of this network;
    /// RingChannels record completion-channel wakeup spans through it.
    void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
    [[nodiscard]] obs::Tracer* tracer() { return tracer_; }

private:
    friend class QueuePair;
    sim::Simulation& sim_;
    net::Fabric& fabric_;
    const cpu::CostModel& costs_;
    sim::Rng rng_;
    sim::Duration ack_latency_{sim::nanoseconds(900)};
    std::uint32_t next_rkey_ = 1;
    std::uint64_t writes_unknown_mr_ = 0;
    std::map<std::uint32_t, std::weak_ptr<MemoryRegion>> mrs_;
    obs::Registry obs_;
    obs::Counter c_wr_posts_;
    obs::Counter c_write_imm_;
    obs::Counter c_mr_regs_;
    obs::Tracer* tracer_ = nullptr;
};

} // namespace skv::rdma
