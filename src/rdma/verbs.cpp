#include "rdma/verbs.hpp"
#include "sim/check.hpp"


namespace skv::rdma {

const char* to_string(Opcode op) {
    switch (op) {
        case Opcode::kSend: return "SEND";
        case Opcode::kWrite: return "WRITE";
        case Opcode::kWriteWithImm: return "WRITE_WITH_IMM";
        case Opcode::kRead: return "READ";
        case Opcode::kRecv: return "RECV";
    }
    return "?";
}

// --- MemoryRegion -----------------------------------------------------------

MemoryRegion::MemoryRegion(std::uint32_t rkey, std::size_t size)
    : rkey_(rkey), buf_(size, '\0') {
    SKV_CHECK(size > 0);
    ++live_count_;
}

void MemoryRegion::write(std::size_t offset, std::string_view bytes) {
    SKV_DCHECK(offset + bytes.size() <= buf_.size(), "MR write out of bounds");
    std::copy(bytes.begin(), bytes.end(), buf_.begin() + static_cast<std::ptrdiff_t>(offset));
}

std::string MemoryRegion::read(std::size_t offset, std::size_t len) const {
    SKV_DCHECK(offset + len <= buf_.size(), "MR read out of bounds");
    return std::string(buf_.data() + offset, len);
}

void MemoryRegion::write_wrapped(std::size_t offset, std::string_view bytes) {
    SKV_DCHECK(bytes.size() <= buf_.size());
    offset %= buf_.size();
    const std::size_t first = std::min(bytes.size(), buf_.size() - offset);
    std::copy(bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(first),
              buf_.begin() + static_cast<std::ptrdiff_t>(offset));
    if (first < bytes.size()) {
        std::copy(bytes.begin() + static_cast<std::ptrdiff_t>(first), bytes.end(),
                  buf_.begin());
    }
}

std::string MemoryRegion::read_wrapped(std::size_t offset, std::size_t len) const {
    SKV_DCHECK(len <= buf_.size());
    offset %= buf_.size();
    std::string out;
    out.reserve(len);
    const std::size_t first = std::min(len, buf_.size() - offset);
    out.append(buf_.data() + offset, first);
    if (first < len) out.append(buf_.data(), len - first);
    return out;
}

// --- CompletionChannel / CompletionQueue ------------------------------------

void CompletionChannel::fire() {
    if (!armed_ || !on_event_) return;
    armed_ = false;
    // Deliver asynchronously so CQ pushes from inside a handler cannot
    // reenter the handler.
    sim_.after(sim::Duration::zero(), on_event_);
}

void CompletionQueue::push(Completion c) {
    queue_.push_back(std::move(c));
    ++total_;
    if (channel_) channel_->fire();
}

std::vector<Completion> CompletionQueue::poll(std::size_t max) {
    std::vector<Completion> out;
    const std::size_t n = (max == 0) ? queue_.size() : std::min(max, queue_.size());
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        out.push_back(std::move(queue_.front()));
        queue_.pop_front();
    }
    return out;
}

// --- RdmaNetwork -------------------------------------------------------------

RdmaNetwork::RdmaNetwork(sim::Simulation& sim, net::Fabric& fabric,
                         const cpu::CostModel& costs)
    : sim_(sim), fabric_(fabric), costs_(costs), rng_(sim.fork_rng()) {}

MemoryRegionPtr RdmaNetwork::register_mr(net::NodeRef node, std::size_t size) {
    auto mr = std::make_shared<MemoryRegion>(next_rkey_++, size);
    mrs_[mr->rkey()] = mr;
    if (node.core) node.core->consume(costs_.mr_register);
    return mr;
}

void RdmaNetwork::deregister_mr(std::uint32_t rkey) { mrs_.erase(rkey); }

MemoryRegionPtr RdmaNetwork::lookup_mr(std::uint32_t rkey) const {
    auto it = mrs_.find(rkey);
    return it == mrs_.end() ? nullptr : it->second.lock();
}

sim::Duration RdmaNetwork::wr_post_cost(net::EndpointId ep) {
    if (fabric_.is_companion(ep)) {
        // On-die doorbell from the SmartNIC's ARM cores: no PCIe crossing.
        return costs_.jittered(rng_, costs_.wr_post.scaled(0.6));
    }
    sim::Duration cost = costs_.jittered(rng_, costs_.wr_post);
    if (rng_.next_bool(costs_.wr_stall_prob)) cost += costs_.wr_stall;
    return cost;
}

sim::Duration RdmaNetwork::recv_post_cost() { return costs_.recv_post; }

// --- QueuePair ----------------------------------------------------------------

QueuePair::QueuePair(RdmaNetwork& net, net::NodeRef self,
                     CompletionQueuePtr send_cq, CompletionQueuePtr recv_cq)
    : net_(net), self_(self), send_cq_(std::move(send_cq)),
      recv_cq_(std::move(recv_cq)) {
    SKV_CHECK(self_.valid());
    SKV_CHECK(send_cq_ && recv_cq_);
    ++live_count_;
}

void QueuePair::connect_to(const QueuePairPtr& peer) {
    SKV_CHECK(peer && peer.get() != this);
    peer_ = peer;
}

void QueuePair::disconnect() { peer_.reset(); }

void QueuePair::post_recv(std::uint64_t wr_id, MemoryRegionPtr mr,
                          std::size_t offset, std::size_t len) {
    SKV_CHECK(mr);
    self_.core->consume(net_.recv_post_cost());
    recv_queue_.push_back(RecvWqe{wr_id, std::move(mr), offset, len});
    // A receive arriving while the RNR queue is non-empty unblocks the
    // oldest stalled inbound message (retransmission after RNR NAK).
    if (!rnr_queue_.empty()) {
        Inbound in = std::move(rnr_queue_.front());
        rnr_queue_.pop_front();
        consume_recv(std::move(in));
    }
}

void QueuePair::post_send(SendWr wr) {
    net_.c_wr_posts_.incr();
    if (wr.op == Opcode::kWriteWithImm) net_.c_write_imm_.incr();
    auto peer = peer_.lock();
    if (!peer) {
        self_.core->consume(net_.wr_post_cost(self_.ep));
        if (wr.signaled) {
            Completion c;
            c.wr_id = wr.wr_id;
            c.op = wr.op;
            c.success = false;
            send_cq_->push(std::move(c));
        }
        return;
    }

    const std::size_t wire_bytes =
        (wr.op == Opcode::kRead ? wr.read_len : wr.payload.size()) +
        RdmaNetwork::kHeaderBytes;

    Inbound in;
    in.op = wr.op;
    in.payload = std::move(wr.payload);
    in.rkey = wr.rkey;
    in.remote_offset = wr.remote_offset;
    in.wrapped = wr.wrapped;
    in.has_imm = wr.has_imm;
    in.imm = wr.imm;

    const std::uint64_t wr_id = wr.wr_id;
    const Opcode op = wr.op;
    const bool signaled = wr.signaled;
    const std::size_t read_len = wr.read_len;
    auto self = shared_from_this();

    // WQE build + doorbell on the posting core; the message leaves the NIC
    // once the doorbell has rung. This per-WR cost is what the paper counts
    // per slave in the baseline and once per write in SKV.
    self_.core->submit(net_.wr_post_cost(self_.ep), [self, peer, in = std::move(in),
                                             wire_bytes, wr_id, op, signaled,
                                             read_len]() mutable {
        self->launch(std::move(peer), std::move(in), wire_bytes, wr_id, op,
                     signaled, read_len);
    });
}

void QueuePair::launch(QueuePairPtr peer, Inbound in, std::size_t wire_bytes,
                       std::uint64_t wr_id, Opcode op, bool signaled,
                       std::size_t read_len) {
    auto self = shared_from_this();
    net_.fabric().send(
        self_.ep, peer->self_.ep, wire_bytes,
        [self, peer, in = std::move(in), wr_id, op, signaled, read_len]() mutable {
            auto& net = self->net_;
            if (op == Opcode::kRead) {
                // The remote NIC DMA-reads the MR and returns the data; the
                // response consumes wire time back to the requester.
                MemoryRegionPtr mr = net.lookup_mr(in.rkey);
                std::string data;
                if (mr) {
                    data = in.wrapped
                               ? mr->read_wrapped(in.remote_offset, read_len)
                               : mr->read(in.remote_offset, read_len);
                }
                const bool ok = mr != nullptr;
                net.fabric().send(
                    peer->self_.ep, self->self_.ep,
                    read_len + RdmaNetwork::kHeaderBytes,
                    [self, wr_id, ok, data = std::move(data), read_len]() {
                        Completion c;
                        c.wr_id = wr_id;
                        c.op = Opcode::kRead;
                        c.success = ok;
                        c.byte_len = static_cast<std::uint32_t>(read_len);
                        c.inline_payload = std::move(data);
                        self->send_cq_->push(std::move(c));
                    });
                return;
            }
            peer->arrive(std::move(in));
            if (signaled) {
                // Hardware ACK flows back; the send completion needs no
                // remote CPU.
                net.simulation().after(net.ack_latency(), [self, wr_id, op]() {
                    Completion c;
                    c.wr_id = wr_id;
                    c.op = op;
                    self->send_cq_->push(std::move(c));
                });
            }
        });
}

void QueuePair::arrive(Inbound in) {
    switch (in.op) {
        case Opcode::kWrite: {
            MemoryRegionPtr mr = net_.lookup_mr(in.rkey);
            if (!mr) {
                // The target was deregistered while the WRITE was on the
                // wire (channel closed mid-flight). Hardware would raise a
                // remote-access error; the sim drops the op and counts it.
                net_.count_unknown_mr_write();
                break;
            }
            if (in.wrapped) {
                mr->write_wrapped(in.remote_offset, in.payload);
            } else {
                mr->write(in.remote_offset, in.payload);
            }
            // Plain WRITE is invisible to the remote CPU: no completion.
            break;
        }
        case Opcode::kWriteWithImm: {
            MemoryRegionPtr mr = net_.lookup_mr(in.rkey);
            if (!mr) {
                net_.count_unknown_mr_write();
                break;
            }
            if (in.wrapped) {
                mr->write_wrapped(in.remote_offset, in.payload);
            } else {
                mr->write(in.remote_offset, in.payload);
            }
            consume_recv(std::move(in));
            break;
        }
        case Opcode::kSend:
            consume_recv(std::move(in));
            break;
        case Opcode::kRead:
        case Opcode::kRecv:
            SKV_UNREACHABLE("unexpected inbound opcode");
            break;
    }
}

void QueuePair::consume_recv(Inbound in) {
    if (recv_queue_.empty()) {
        // Receiver-not-ready: the message waits for the next posted recv
        // (the RC retransmit protocol hides this from the sender).
        rnr_queue_.push_back(std::move(in));
        return;
    }
    RecvWqe wqe = std::move(recv_queue_.front());
    recv_queue_.pop_front();

    Completion c;
    c.wr_id = wqe.wr_id;
    c.op = Opcode::kRecv;
    c.has_imm = in.has_imm;
    c.imm = in.imm;
    c.byte_len = static_cast<std::uint32_t>(in.payload.size());
    c.remote_offset = in.remote_offset;
    if (in.op == Opcode::kSend) {
        // SEND lands in the posted receive buffer.
        const std::size_t n = std::min(in.payload.size(), wqe.len);
        if (wqe.mr && n > 0) {
            wqe.mr->write(wqe.offset, std::string_view(in.payload).substr(0, n));
        }
        c.inline_payload = std::move(in.payload);
    }
    recv_cq_->push(std::move(c));
}

} // namespace skv::rdma
