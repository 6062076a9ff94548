#include "skv/nic_kv.hpp"

#include <algorithm>

#include "kv/sds.hpp"
#include "rdma/ring_channel.hpp"
#include "sim/check.hpp"

namespace skv::offload {

using server::NodeMsg;

NicKv::NicKv(sim::Simulation& sim, const cpu::CostModel& costs,
             rdma::ConnectionManager& cm, nic::SmartNic& nic, NicKvConfig cfg,
             server::ReliableParams reliable, server::ReplicationMode mode)
    : sim_(sim), costs_(costs), cm_(cm), nic_(nic), cfg_(std::move(cfg)),
      reliable_(reliable), rng_(sim.fork_rng()),
      repl_(make_nic_replication(*this, mode)), stats_(cfg_.name),
      c_fanout_sends_(stats_.counter_handle("fanout_sends")),
      c_repl_requests_(stats_.counter_handle("repl_requests")) {}

void NicKv::start() {
    SKV_CHECK(!started_);
    started_ = true;
    // The NIC switch steers this service port up to the ARM cores.
    nic_.steer(cfg_.port, nic::SteerTarget::kNicCores);
    cm_.listen(nic_.node(0), cfg_.port,
               [this](net::ChannelPtr ch) {
                   if (ch && !crashed_) on_accept(std::move(ch));
               });
    const std::uint64_t epoch = ++probe_epoch_;
    sim_.after(cfg_.probe_interval, [this, epoch]() { probe_cycle(epoch); });
}

void NicKv::crash() {
    SKV_CHECK(started_ && !crashed_);
    crashed_ = true;
    for (int i = 0; i < nic_.core_count(); ++i) nic_.core(i).halt();
    // The service's state lives entirely in on-board DRAM: node table,
    // fan-out cursor, pending registrations — all gone with the process.
    nic_.release_memory(cfg_.node_entry_bytes * nodes_.size());
    nodes_.clear();
    pending_.clear();
    master_idx_ = -1;
    promoted_idx_ = -1;
    fanout_offset_ = 0;
    repl_->on_crash();
    stats_.incr("crashes");
}

void NicKv::recover() {
    SKV_CHECK(crashed_);
    crashed_ = false;
    for (int i = 0; i < nic_.core_count(); ++i) nic_.core(i).resume();
    stats_.incr("recoveries");
    // Fresh probe chain; the pre-crash chain's scheduled events carry a
    // stale epoch and are ignored. Registration is peer-driven: the master
    // re-attaches and slaves re-register after probe_silence_timeout.
    const std::uint64_t epoch = ++probe_epoch_;
    sim_.after(cfg_.probe_interval, [this, epoch]() { probe_cycle(epoch); });
}

void NicKv::on_accept(net::ChannelPtr inner) {
    net::ChannelPtr ch = server::ReliableChannel::wrap(
        sim_, std::move(inner), reliable_, &stats_,
        [this](const net::Channel* broken) { on_link_broken(broken); });
    auto raw = ch.get();
    ch->set_on_message([this, raw](std::string payload) {
        if (crashed_) return;
        // Recover the shared_ptr from the node list (or transiently wrap).
        sim::NodeScope owner_node(endpoint());
        const auto msg = NodeMsg::decode(payload);
        if (!msg.has_value()) {
            stats_.incr("malformed");
            return;
        }
        // Identify the entry by channel pointer.
        net::ChannelPtr owner;
        for (auto& n : nodes_) {
            if (n.channel.get() == raw) {
                owner = n.channel;
                break;
            }
        }
        if (!owner) {
            // First message on a fresh connection: registration.
            for (auto& p : pending_) {
                if (p.get() == raw) {
                    owner = p;
                    break;
                }
            }
        }
        if (!owner) return;
        handle(owner, *msg);
    });
    pending_.push_back(std::move(ch));
}

NicKv::NodeEntry* NicKv::find_by_channel(const net::ChannelPtr& ch) {
    for (auto& n : nodes_) {
        if (n.channel == ch) return &n;
    }
    return nullptr;
}

NicKv::NodeEntry* NicKv::find_by_name(const std::string& name) {
    for (auto& n : nodes_) {
        if (n.name == name) return &n;
    }
    return nullptr;
}

NicKv::Prior NicKv::upsert_node(NodeEntry e) {
    if (NodeEntry* existing = find_by_name(e.name)) {
        const Prior prior = existing->valid ? Prior::kValid : Prior::kInvalid;
        // The refreshed registration supersedes the old channel; close it
        // so the dead connection's object graph (ring, QP) is released, not
        // merely unreferenced.
        if (existing->channel && existing->channel != e.channel) {
            existing->channel->close();
        }
        *existing = std::move(e);
        return prior;
    }
    if (!nic_.reserve_memory(cfg_.node_entry_bytes)) {
        stats_.incr("oom_rejects");
        return Prior::kRejected;
    }
    nodes_.push_back(std::move(e));
    return Prior::kNew;
}

bool NicKv::live_slave(const NodeEntry& e) {
    return !e.is_master && e.valid && e.channel && e.channel->open();
}

net::Channel* NicKv::open_master_link() {
    if (master_idx_ < 0) return nullptr;
    const auto& master = nodes_[static_cast<std::size_t>(master_idx_)];
    if (!master.channel || !master.channel->open()) return nullptr;
    return master.channel.get();
}

void NicKv::demote_stand_in() {
    if (promoted_idx_ < 0) return;
    auto& stand_in = nodes_[static_cast<std::size_t>(promoted_idx_)];
    if (stand_in.channel && stand_in.channel->open()) {
        stand_in.channel->send(NodeMsg{NodeMsg::Type::kDemote, 0, ""}.encode());
    }
    promoted_idx_ = -1;
}

std::size_t NicKv::slave_count() const {
    std::size_t n = 0;
    for (const auto& e : nodes_) {
        if (!e.is_master) ++n;
    }
    return n;
}

int NicKv::valid_slaves() const {
    int n = 0;
    for (const auto& e : nodes_) {
        if (!e.is_master && e.valid) ++n;
    }
    return n;
}

bool NicKv::master_valid() const {
    return master_idx_ >= 0 && nodes_[static_cast<std::size_t>(master_idx_)].valid;
}

int NicKv::effective_threads() const {
    // "the actual number of threads used for replication cannot be greater
    // than the minimum value of the number of SmartNIC cores and slave
    // nodes" (paper §III-C).
    const int wanted = std::max(1, cfg_.thread_num);
    return std::max(1, std::min({wanted, nic_.core_count(),
                                 static_cast<int>(slave_count())}));
}

void NicKv::assign_cores() {
    const int threads = effective_threads();
    int next = 0;
    for (auto& e : nodes_) {
        if (e.is_master) continue;
        e.core_idx = next % threads;
        // The ring messenger may sit under the reliable wrapper.
        net::ChannelPtr transport = e.channel;
        if (auto rel =
                std::dynamic_pointer_cast<server::ReliableChannel>(transport)) {
            transport = rel->inner();
        }
        if (auto ring = std::dynamic_pointer_cast<rdma::RingChannel>(transport)) {
            ring->rebind_core(&nic_.core(e.core_idx));
        }
        ++next;
    }
}

void NicKv::handle(const net::ChannelPtr& ch, const NodeMsg& msg) {
    if (repl_->on_frame(ch, msg)) return;
    switch (msg.type) {
        case NodeMsg::Type::kSync:
            // "master:<name>@<ep>" — the master Host-KV attaching.
            if (msg.body.rfind("master:", 0) == 0) {
                register_master(ch, msg);
            } else {
                // Baseline slave->master kSync never targets the NIC.
                stats_.incr("unexpected_msgs");
            }
            break;
        case NodeMsg::Type::kInitSync:
            register_slave(ch, msg);
            break;
        case NodeMsg::Type::kReplData:
            fan_out(msg);
            break;
        case NodeMsg::Type::kProbeAck:
            handle_probe_ack(ch, msg);
            break;
        // The NIC originates these, they flow host<->host around it, or they
        // belong to a protocol this NIC does not run; each is named so that
        // adding an enum value forces a decision here (simlint unhandled-tag).
        case NodeMsg::Type::kSyncNotify:
        case NodeMsg::Type::kFullSync:
        case NodeMsg::Type::kBacklog:
        case NodeMsg::Type::kAck:
        case NodeMsg::Type::kProbe:
        case NodeMsg::Type::kResyncRequest:
        case NodeMsg::Type::kPromote:
        case NodeMsg::Type::kDemote:
        case NodeMsg::Type::kSlaveCount:
        case NodeMsg::Type::kChainSet:
        case NodeMsg::Type::kChainData:
        case NodeMsg::Type::kQuorumCommit:
        case NodeMsg::Type::kQuorumAck:
        case NodeMsg::Type::kReadRepair:
            stats_.incr("unexpected_msgs");
            break;
    }
}

void NicKv::register_master(const net::ChannelPtr& ch, const NodeMsg& msg) {
    nic_.core(0).consume(costs_.event_dispatch);
    const std::string ident = msg.body.substr(7); // strip "master:"
    const auto at = ident.find('@');
    NodeEntry e;
    e.name = ident.substr(0, at);
    e.ep = at == std::string::npos
               ? net::kInvalidEndpoint
               : static_cast<net::EndpointId>(std::stoul(ident.substr(at + 1)));
    e.channel = ch;
    e.is_master = true;
    e.last_heard_ns = sim_.now().ns();
    e.repl_offset = msg.field;
    fanout_offset_ = msg.field;

    const Prior prior = upsert_node(std::move(e));
    if (prior == Prior::kRejected) return;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        if (nodes_[i].is_master) master_idx_ = static_cast<int>(i);
    }
    std::erase(pending_, ch);
    stats_.incr("master_registered");
    if (prior == Prior::kInvalid) {
        // The crashed master is back (paper §III-D): it resumes mastership
        // and the stand-in steps down.
        stats_.incr("recoveries_detected");
        demote_stand_in();
        publish_slave_status();
    }
    repl_->on_master_registered(ch);
    repl_->on_membership_change();
}

void NicKv::register_slave(const net::ChannelPtr& ch, const NodeMsg& msg) {
    nic_.core(0).consume(costs_.event_dispatch);
    const auto at = msg.body.find('@');
    NodeEntry e;
    e.name = msg.body; // full "<name>@<ep>" identity, matching kSyncNotify
    e.ep = at == std::string::npos
               ? net::kInvalidEndpoint
               : static_cast<net::EndpointId>(std::stoul(msg.body.substr(at + 1)));
    e.channel = ch;
    e.last_heard_ns = sim_.now().ns();
    e.repl_offset = msg.field;
    e.quorum_ack = msg.field; // registration offset = data it already holds

    // A known name is a reconnection after a crash: the entry is refreshed
    // and revalidated.
    const Prior prior = upsert_node(std::move(e));
    if (prior == Prior::kRejected) return;
    std::erase(pending_, ch);
    assign_cores();
    stats_.incr(prior == Prior::kNew ? "slave_registered" : "slave_reregistered");

    // Paper Fig. 8 step 2: notify the master that a slave wants to sync.
    if (net::Channel* master = open_master_link()) {
        nic_.core(0).consume(costs_.event_dispatch);
        master->send(
            NodeMsg{NodeMsg::Type::kSyncNotify, msg.field, msg.body}.encode());
    }
    publish_slave_status();
    // A slave (re)joining a masterless cluster: the earlier invalidation
    // scan may have found nobody promotable, so retry the failover now.
    maybe_promote();
    repl_->on_membership_change();
}

void NicKv::fan_out(const NodeMsg& msg) {
    // Parse the replication request on the primary ARM core.
    nic_.core(0).consume(costs_.jittered(rng_, costs_.nic_repl_parse));
    if (tracer_ != nullptr && tracer_->enabled()) {
        // Span stage: master propagate -> NIC parse (offload request leg).
        tracer_->repl_fanout(msg.field, obs_track_);
    }
    fanout_offset_ = msg.field + static_cast<std::int64_t>(msg.body.size());
    repl_->fan_out(msg);
    c_repl_requests_.incr();
}

std::unique_ptr<NicReplication> make_nic_replication(
    NicKv& nic, server::ReplicationMode mode) {
    switch (mode) {
        case server::ReplicationMode::kFanout: break; // the base class
        case server::ReplicationMode::kChain: return std::make_unique<NicChain>(nic);
        case server::ReplicationMode::kQuorum: return std::make_unique<NicQuorum>(nic);
    }
    return std::make_unique<NicReplication>(nic);
}

void NicReplication::fan_out(const NodeMsg& msg) {
    const std::string wire = msg.encode();
    for (auto& e : n_.nodes_) {
        if (!NicKv::live_slave(e)) continue;
        // Copy into this slave's send buffer on its assigned ARM core,
        // then one WRITE_WITH_IMM per slave (paper Fig. 9 step 2).
        cpu::Core& core = n_.nic_.core(e.core_idx);
        core.consume(n_.costs_.jittered(n_.rng_, n_.costs_.nic_repl_fanout_per_slave) +
                     n_.costs_.copy_cost(msg.body.size()));
        e.channel->send(wire);
        n_.c_fanout_sends_.incr();
    }
}

int NicReplication::pick_stand_in() const {
    // The first valid slave: fan-out's historical pick, and chain's head
    // (upstream members hold a superset of everything downstream).
    for (std::size_t i = 0; i < n_.nodes_.size(); ++i) {
        const auto& e = n_.nodes_[i];
        if (!e.is_master && e.valid && e.channel) return static_cast<int>(i);
    }
    return -1;
}

void NicKv::request_resync(const NodeEntry& e) {
    net::Channel* master = open_master_link();
    if (master == nullptr) return;
    master->send(
        NodeMsg{NodeMsg::Type::kResyncRequest, e.repl_offset, e.name}.encode());
    stats_.incr("resyncs_requested");
}

void NicKv::handle_probe_ack(const net::ChannelPtr& ch, const NodeMsg& msg) {
    stats_.incr("probe_acks_received");
    nic_.core(0).consume(costs_.event_dispatch);
    NodeEntry* e = find_by_channel(ch);
    if (e == nullptr) return;
    e->last_heard_ns = sim_.now().ns();
    // Body is "<role>:<offset>".
    const std::int64_t prev = e->prev_probe_offset;
    const auto colon = msg.body.find(':');
    if (colon != std::string::npos) {
        if (const auto off = kv::string2ll(msg.body.substr(colon + 1))) {
            e->repl_offset = *off;
        }
    }
    e->prev_probe_offset = e->repl_offset;
    if (!e->valid) {
        // Node recovered. Clear the invalid flag and, if it fell behind the
        // stream while dead, ask the master to serve it a resync.
        e->valid = true;
        stats_.incr("recoveries_detected");
        if (e->is_master) {
            // Paper §III-D: the recovered master resumes mastership and the
            // stand-in is demoted.
            demote_stand_in();
        } else if (e->repl_offset < fanout_offset_) {
            request_resync(*e);
        }
        publish_slave_status();
        maybe_promote(); // a slave revalidated into a masterless cluster
        repl_->on_membership_change();
    } else if (!e->is_master && repl_->stall_resync() &&
               e->repl_offset < fanout_offset_ && e->repl_offset == prev) {
        // Stall healing: a valid member that made zero progress over a full
        // probe round while behind the cursor lost data its path never
        // re-delivers (e.g. frames relayed while its chain predecessor was
        // dialing it).
        request_resync(*e);
        stats_.incr("stall_resyncs");
    }
}

void NicKv::probe_cycle(std::uint64_t epoch) {
    if (crashed_ || epoch != probe_epoch_) return;
    sim::NodeScope owner(endpoint());
    ++probe_round_;
    for (auto& e : nodes_) {
        if (!e.channel || !e.channel->open()) continue;
        nic_.core(0).consume(costs_.event_dispatch);
        e.channel->send(
            NodeMsg{NodeMsg::Type::kProbe,
                    static_cast<std::int64_t>(probe_round_), ""}
                .encode());
        stats_.incr("probes_sent");
    }
    // Give this round's replies `waiting_time` to come home.
    sim_.after(cfg_.waiting_time, [this]() { check_timeouts(); });
    sim_.after(cfg_.probe_interval, [this, epoch]() { probe_cycle(epoch); });
}

void NicKv::check_timeouts() {
    if (crashed_) return;
    bool changed = false;
    const std::int64_t now = sim_.now().ns();
    for (auto& e : nodes_) {
        if (!e.valid) continue;
        if (now - e.last_heard_ns > cfg_.waiting_time.ns() + cfg_.probe_interval.ns()) {
            e.valid = false;
            changed = true;
            stats_.incr("failures_detected");
        }
    }
    if (!changed) return;
    after_invalidation();
}

void NicKv::on_link_broken(const net::Channel* raw) {
    if (crashed_) return;
    // The reliable layer exhausted its retries: treat the node like a probe
    // timeout would, without waiting for one (gray links fail faster than
    // silent crashes).
    for (auto& e : nodes_) {
        if (e.channel.get() == raw && e.valid) {
            e.valid = false;
            // Keep the entry — its name/offset drive the resync once the
            // node re-registers — but release the dead channel: probing a
            // broken link is pointless and retaining it pins the whole
            // ring/QP graph.
            e.channel->close();
            e.channel.reset();
            stats_.incr("failures_detected");
            stats_.incr("links_broken");
            after_invalidation();
            return;
        }
    }
    // A pending (never-registered) connection died: close and forget it.
    std::erase_if(pending_, [raw](const net::ChannelPtr& p) {
        if (p.get() != raw) return false;
        p->close();
        return true;
    });
}

void NicKv::maybe_promote() {
    if (master_idx_ < 0 || nodes_[static_cast<std::size_t>(master_idx_)].valid ||
        promoted_idx_ >= 0) {
        return;
    }
    // Failover: the protocol picks an available slave as the stand-in
    // master.
    const int pick = repl_->pick_stand_in();
    if (pick >= 0) {
        promoted_idx_ = pick;
        nodes_[static_cast<std::size_t>(pick)].channel->send(
            NodeMsg{NodeMsg::Type::kPromote, 0, ""}.encode());
        stats_.incr("failovers");
    }
}

void NicKv::after_invalidation() {
    maybe_promote();
    publish_slave_status();
    repl_->on_membership_change();
}

void NicKv::publish_slave_status() {
    net::Channel* master = open_master_link();
    if (master == nullptr) return;
    std::string invalid;
    for (const auto& e : nodes_) {
        if (!e.is_master && !e.valid) {
            if (!invalid.empty()) invalid += ',';
            invalid += e.name;
        }
    }
    nic_.core(0).consume(costs_.event_dispatch);
    master->send(
        NodeMsg{NodeMsg::Type::kSlaveCount, valid_slaves(), invalid}.encode());
}

} // namespace skv::offload
