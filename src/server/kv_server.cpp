#include "server/kv_server.hpp"

#include "kv/rdb.hpp"

#include <algorithm>
#include <cstdio>

#include "sim/check.hpp"

namespace skv::server {

const char* to_string(Transport t) {
    switch (t) {
        case Transport::kTcp: return "tcp";
        case Transport::kRdma: return "rdma";
    }
    return "?";
}

const char* to_string(Role r) {
    switch (r) {
        case Role::kStandalone: return "standalone";
        case Role::kMaster: return "master";
        case Role::kSlave: return "slave";
    }
    return "?";
}

const char* to_string(ReplicationMode m) {
    switch (m) {
        case ReplicationMode::kFanout: return "fanout";
        case ReplicationMode::kChain: return "chain";
        case ReplicationMode::kQuorum: return "quorum";
    }
    return "?";
}

KvServer::KvServer(sim::Simulation& sim, const cpu::CostModel& costs,
                   Transports nets, net::NodeRef self, ServerConfig cfg)
    : sim_(sim), costs_(costs), nets_(nets), self_(self), cfg_(std::move(cfg)),
      rng_(sim.fork_rng()),
      db_([&sim]() { return sim.now().ns() / 1'000'000; }),
      backlog_(cfg_.backlog_bytes),
      commands_table_(kv::CommandTable::instance()) {
    SKV_CHECK(self_.valid());
    SKV_CHECK(nets_.fabric != nullptr);
    SKV_DCHECK(cfg_.transport == Transport::kTcp ? nets_.tcp != nullptr
                                                 : nets_.cm != nullptr);
    repl_ = make_replication(*this, cfg_.replication_mode);
}

void KvServer::start() {
    SKV_CHECK(!started_);
    started_ = true;
    listen_all();
    sim_.after(kCronInterval, [this]() { cron(); });
}

void KvServer::listen_all() {
    auto listen = [this](std::uint16_t port,
                         std::function<void(net::ChannelPtr)> on_accept) {
        if (cfg_.transport == Transport::kTcp) {
            nets_.tcp->listen(self_, port, std::move(on_accept));
        } else {
            nets_.cm->listen(self_, port, std::move(on_accept));
        }
    };
    listen(cfg_.port, [this](net::ChannelPtr ch) {
        if (ch) on_client_accept(std::move(ch));
    });
    listen(static_cast<std::uint16_t>(cfg_.port + 1), [this](net::ChannelPtr ch) {
        if (!ch) return;
        adopt_node_link(std::move(ch));
    });
}

void KvServer::set_tracer(obs::Tracer* tracer, const std::string& track_name) {
    tracer_ = tracer;
    obs_track_ = tracer != nullptr ? tracer->track(track_name) : UINT32_MAX;
}

// --- connections -------------------------------------------------------------

void KvServer::on_client_accept(net::ChannelPtr ch) {
    auto conn = std::make_shared<ClientConn>();
    conn->channel = std::move(ch);
    clients_.push_back(conn);
    // Weak capture: the handler lives inside conn->channel, which conn
    // owns — an owning capture would cycle and the connection could never
    // be reclaimed.
    std::weak_ptr<ClientConn> wconn = conn;
    conn->channel->set_on_message([this, wconn](std::string payload) {
        auto conn = wconn.lock();
        if (!conn || crashed_) return;
        on_client_data(conn, std::move(payload));
    });
}

net::ChannelPtr KvServer::adopt_node_link(net::ChannelPtr inner) {
    net::ChannelPtr ch = ReliableChannel::wrap(
        sim_, std::move(inner), cfg_.reliable, &stats_,
        [this](const net::Channel* broken) { on_node_link_broken(broken); });
    auto conn = std::make_shared<ClientConn>();
    conn->channel = ch;
    clients_.push_back(conn);
    std::weak_ptr<ClientConn> wconn = conn;
    ch->set_on_message([this, wconn](std::string payload) {
        auto conn = wconn.lock();
        if (!conn || crashed_) return;
        const auto msg = NodeMsg::decode(payload);
        if (!msg.has_value()) {
            c_node_msgs_malformed_.incr();
            return;
        }
        handle_node_msg(conn, *msg);
    });
    return ch;
}

void KvServer::dial_node(net::EndpointId ep, std::uint16_t port,
                         std::uint64_t* attempt, net::ChannelPtr* link,
                         NodeLinkUp on_up, NodeRedial redial) {
    const std::uint64_t mine = attempt != nullptr ? ++*attempt : 0;
    auto on_connected = [this, attempt, mine, link,
                         on_up = std::move(on_up)](net::ChannelPtr ch) {
        // A crashed process closes nothing (see crash()).
        if (!ch || crashed_) return;
        if (attempt != nullptr && *attempt != mine) {
            // Superseded by a newer dial: close it, or the peer keeps the
            // accepted link (and its connection record) for good.
            ch->close();
            return;
        }
        ch = adopt_node_link(std::move(ch));
        if (link != nullptr) *link = ch;
        on_up(ch);
    };
    if (cfg_.transport == Transport::kTcp) {
        nets_.tcp->connect(self_, ep, port, std::move(on_connected));
    } else {
        nets_.cm->connect(self_, ep, port, std::move(on_connected));
    }
    if (!redial) return;
    SKV_DCHECK(attempt != nullptr && link != nullptr);
    // The connection handshake itself rides unprotected fabric messages:
    // if it falls into a loss hole, start over.
    sim_.after(kConnectRetry, [this, attempt, mine, link,
                               redial = std::move(redial)]() {
        if (crashed_ || *attempt != mine) return;
        if (*link && (*link)->open()) return;
        redial();
    });
}

void KvServer::drop_link(net::ChannelPtr& link) {
    if (!link) return;
    const net::Channel* raw = link.get();
    link->close();
    link.reset();
    release_conn(raw);
}

void KvServer::release_conn(const net::Channel* raw) {
    std::erase_if(clients_, [&](const ClientPtr& c) {
        if (c->channel.get() != raw) return false;
        c->channel->close();
        return true;
    });
}

void KvServer::on_node_link_broken(const net::Channel* raw) {
    if (crashed_) return;
    // A master's link to a baseline slave: drop the registration entirely
    // (close tears the object graph down); the slave's next kSync
    // re-registration recreates the entry.
    bool removed_slave = false;
    for (auto it = slaves_.begin(); it != slaves_.end();) {
        if (it->channel.get() == raw) {
            if (it->channel) it->channel->close();
            it = slaves_.erase(it);
            removed_slave = true;
        } else {
            ++it;
        }
    }
    if (removed_slave && !cfg_.offload_replication) {
        available_slaves_ = 0;
        for (const auto& t : slaves_) {
            if (t.valid) ++available_slaves_;
        }
    }
    if (removed_slave) flush_parked();
    if (master_link_.get() == raw) drop_link(master_link_);
    // SKV links to the local Nic-KV: dial again (the attempt counter makes
    // a superseded reconnect harmless).
    if (nic_link_.get() == raw) {
        drop_link(nic_link_);
        nic_attached_ = false;
        if (cfg_.offload_replication && skv_nic_ep_ != net::kInvalidEndpoint) {
            attach_nic(skv_nic_ep_, skv_nic_port_);
        }
        return;
    }
    if (nic_registration_.get() == raw) {
        drop_link(nic_registration_);
        if (role_ == Role::kSlave && skv_nic_ep_ != net::kInvalidEndpoint) {
            slaveof_skv(skv_nic_ep_, skv_nic_port_);
        }
        return;
    }
    if (repl_->on_link_broken(raw)) return;
    release_conn(raw);
}

// --- client command path ----------------------------------------------------

void KvServer::on_client_data(const ClientPtr& conn, std::string payload) {
    sim::NodeScope owner(self_.ep);
    conn->parser.feed(payload);
    std::vector<std::string> argv;
    std::string err;
    for (;;) {
        const auto st = conn->parser.next(&argv, &err);
        if (st == kv::resp::Status::kNeedMore) break;
        if (st == kv::resp::Status::kError) {
            conn->channel->send(kv::resp::error("ERR " + err));
            conn->channel->close();
            c_protocol_errors_.incr();
            return;
        }
        run_command(conn, std::move(argv));
        argv.clear();
    }
}

sim::Duration KvServer::command_cost(const std::vector<std::string>& argv,
                                     const kv::CommandSpec* spec) const {
    sim::Duration cost = costs_.event_dispatch + costs_.cmd_parse;
    if (spec != nullptr) {
        cost += spec->is_write() ? costs_.cmd_exec_write : costs_.cmd_exec_read;
    }
    cost += costs_.reply_build;
    std::size_t bytes = 0;
    for (const auto& a : argv) bytes += a.size();
    cost += costs_.copy_cost(bytes);
    return cost;
}

bool KvServer::write_allowed(std::string* err) {
    if (role_ == Role::kSlave) {
        *err = "READONLY You can't write against a read only replica.";
        return false;
    }
    if (role_ == Role::kMaster && available_slaves_ < cfg_.min_slaves) {
        *err = "NOREPLICAS Not enough good replicas to write.";
        c_writes_rejected_min_slaves_.incr();
        return false;
    }
    if (role_ == Role::kMaster && cfg_.max_repl_lag_bytes > 0) {
        // Paper Fig. 9 step 3: a slave whose reported progress is too far
        // behind makes the master return an error to the client.
        for (const auto& s : slaves_) {
            if (!s.valid) continue;
            if (backlog_.master_offset() - s.ack_offset > cfg_.max_repl_lag_bytes) {
                *err = "NOREPLPROGRESS Replication to '" + s.name +
                       "' is lagging too far behind.";
                return false;
            }
        }
    }
    return true;
}

void KvServer::run_command(const ClientPtr& conn, std::vector<std::string> argv) {
    if (argv.empty()) return;
    const sim::SimTime t0 = sim_.now();
    const bool traced = tracer_ != nullptr && tracer_->enabled();
    if (traced) {
        // Span stage: the client's issue -> here is the RDMA write + parse
        // leg. No-ops for flows the tracer never saw issued (raw shells).
        tracer_->flow_server_recv(conn->channel->flow_id(), obs_track_);
    }
    // INFO / SLOWLOG / LATENCY are served by the server, not the engine:
    // they report replication, latency and server state the command table
    // cannot see.
    const kv::Sds cmd0(argv[0]);
    if (cmd0.iequals("INFO") || cmd0.iequals("SLOWLOG") ||
        cmd0.iequals("LATENCY")) {
        self_.core->submit(
            costs_.jittered(rng_, command_cost(argv, nullptr)),
            [this, conn, argv = std::move(argv), t0, traced]() {
                ++commands_;
                c_reads_.incr();
                std::string reply;
                const kv::Sds c0(argv[0]);
                if (c0.iequals("INFO")) {
                    reply = kv::resp::bulk(info_sections());
                } else if (c0.iequals("SLOWLOG")) {
                    reply = slowlog_reply(argv);
                } else {
                    reply = latency_reply(argv);
                }
                record_command_latency(argv, /*is_write=*/false, t0);
                if (traced) tracer_->flow_server_done(conn->channel->flow_id());
                conn->channel->send(std::move(reply));
            });
        return;
    }
    // Duplicate-suppression envelope (retrying clients): strip it before
    // command lookup so costs and execution see the real command.
    WriteTag tag{};
    const bool tagged = strip_write_tag(argv, &tag);
    const kv::CommandSpec* spec = commands_table_.lookup(argv[0]);
    const sim::Duration cost = costs_.jittered(rng_, command_cost(argv, spec));
    self_.core->submit(cost, [this, conn, argv = std::move(argv), spec, t0,
                              traced, tagged, tag]() {
        ++commands_;
        std::string reply;
        // Replicas hold dup entries too (for promotion handover and replay
        // suppression in apply_one), but having applied a write says nothing
        // about whether it is commit-gated: an un-promoted replica must not
        // answer a retry from its cache, or an uncommitted write gets acked
        // while e.g. the chain tail still lags it. Fall through to the
        // role check, which bounces the client back to the master.
        if (tagged && role_ != Role::kSlave) {
            const auto it = dup_table_.find(tag.client);
            if (it != dup_table_.end() && it->second.seq == tag.seq) {
                // Already executed: never re-apply. Either replay the
                // cached reply or, if the original is still parked on
                // replica acks, adopt this connection as the waiter.
                it->second.last_used = ++dup_use_tick_;
                c_dup_suppressed_.incr();
                record_command_latency(argv, /*is_write=*/true, t0);
                if (it->second.ready) {
                    if (traced) tracer_->flow_server_done(conn->channel->flow_id());
                    conn->channel->send(std::string(it->second.reply));
                } else {
                    attach_dup_waiter(tag, conn, traced);
                }
                return;
            }
            if (it != dup_table_.end() && it->second.seq > tag.seq) {
                if (traced) tracer_->flow_server_done(conn->channel->flow_id());
                conn->channel->send(
                    kv::resp::error("DUPSEQ write sequence already superseded"));
                return;
            }
        }
        if (spec != nullptr && !spec->is_write() && role_ == Role::kSlave &&
            !cfg_.serve_stale_reads && !repl_->serve_replica_read()) {
            record_command_latency(argv, /*is_write=*/false, t0);
            if (traced) tracer_->flow_server_done(conn->channel->flow_id());
            conn->channel->send(
                kv::resp::error("READONLY Reads from replicas are disabled."));
            return;
        }
        if (spec != nullptr && spec->is_write()) {
            std::string err;
            if (!write_allowed(&err)) {
                record_command_latency(argv, /*is_write=*/true, t0);
                if (traced) tracer_->flow_server_done(conn->channel->flow_id());
                conn->channel->send(kv::resp::error(err));
                return;
            }
        }
        const kv::ExecResult res =
            commands_table_.execute(db_, rng_, argv, reply);
        if (!res.repl_argv.empty() && role_ != Role::kSlave) {
            if (tagged) {
                propagate(make_replicated_tagged(tag, reply, res.repl_argv));
            } else {
                propagate(res.repl_argv);
            }
        }
        if (res.is_write) {
            c_writes_.incr();
        } else {
            c_reads_.incr();
        }
        record_command_latency(argv, res.is_write, t0);
        deliver_or_park(conn, std::move(reply), backlog_.master_offset(),
                        res.is_write, tagged && res.is_write, tag, traced);
    });
}

// --- replication protocol: the factory and fan-out's hooks (DESIGN.md §13) ---

std::unique_ptr<Replication> make_replication(KvServer& server,
                                              ReplicationMode mode) {
    switch (mode) {
        case ReplicationMode::kFanout: break; // the base class
        case ReplicationMode::kChain: return std::make_unique<ChainReplication>(server);
        case ReplicationMode::kQuorum: return std::make_unique<QuorumReplication>(server);
    }
    return std::make_unique<Replication>(server);
}

obs::Registry& Replication::stats() const { return s_.stats_; }

bool Replication::gating() const {
    return s_.cfg_.wait_for_slaves > 0 && s_.role_ == Role::kMaster;
}

int Replication::valid_slaves() const {
    int valid = 0;
    for (const auto& sl : s_.slaves_) {
        if (sl.valid) ++valid;
    }
    return valid;
}

bool Replication::acked(int need, std::int64_t offset) const {
    int n = 0;
    for (const auto& sl : s_.slaves_) {
        if (sl.valid && sl.ack_offset >= offset) ++n;
    }
    return n >= need;
}

bool Replication::committed(std::int64_t offset) const {
    return !gating() ||
           acked(std::min(s_.cfg_.wait_for_slaves, valid_slaves()), offset);
}

// --- commit gating / duplicate suppression -----------------------------------

void KvServer::dup_record(const WriteTag& tag, std::string reply, bool ready,
                          std::int64_t offset) {
    dup_table_[tag.client] =
        DupState{tag.seq, std::move(reply), ready, offset, ++dup_use_tick_};
    // Only the master (or a promoted stand-in) chooses victims; replicas
    // mirror the choice via the replicated WSEQEVICT below. Retry hits
    // touch last_used on the master alone, so a replica running its own
    // LRU scan could pick a *different* victim and drift out of lockstep
    // — a promoted stand-in would then re-execute a write the old master
    // still suppressed. A replica's table exceeds the cap only by the
    // evictions still in flight in the stream.
    while (role_ != Role::kSlave && dup_table_.size() > cfg_.dup_table_max) {
        // Evict the least-recently-active client: quiescent retriers go
        // first, live ones keep their entries. Deterministic linear scan —
        // eviction is rare and the table is capped.
        auto victim = dup_table_.begin();
        for (auto it = dup_table_.begin(); it != dup_table_.end(); ++it) {
            if (it->second.last_used < victim->second.last_used) victim = it;
        }
        const std::uint64_t evicted = victim->first;
        dup_table_.erase(victim);
        c_dup_evictions_.incr();
        propagate({"WSEQEVICT", std::to_string(evicted)});
    }
}

void KvServer::deliver_or_park(const ClientPtr& conn, std::string reply,
                               std::int64_t offset, bool is_write, bool tagged,
                               WriteTag tag, bool traced) {
    if (repl_->committed(offset)) {
        if (tagged) dup_record(tag, reply, /*ready=*/true, offset);
        if (traced && tracer_ != nullptr) {
            tracer_->flow_server_done(conn->channel->flow_id());
        }
        conn->channel->send(std::move(reply));
        return;
    }
    if (tagged) dup_record(tag, reply, /*ready=*/false, offset);
    const std::uint64_t id = next_parked_id_++;
    parked_.emplace(id, Parked{conn, std::move(reply), offset, is_write, tagged,
                               tag, traced});
    if (is_write) c_writes_parked_.incr();
    sim_.after(cfg_.wait_timeout, [this, id]() { on_wait_timeout(id); });
    if (!is_write) repl_->on_read_parked(offset);
}

void KvServer::flush_parked() {
    if (parked_.empty()) return;
    for (auto it = parked_.begin(); it != parked_.end();) {
        Parked& p = it->second;
        if (!repl_->committed(p.offset)) {
            ++it;
            continue;
        }
        if (p.tagged) dup_record(p.tag, p.reply, /*ready=*/true, p.offset);
        if (const auto conn = p.conn.lock(); conn && conn->channel) {
            if (p.traced && tracer_ != nullptr) {
                tracer_->flow_server_done(conn->channel->flow_id());
            }
            conn->channel->send(std::move(p.reply));
        }
        it = parked_.erase(it);
    }
}

void KvServer::on_wait_timeout(std::uint64_t id) {
    if (crashed_) return;
    const auto it = parked_.find(id);
    if (it == parked_.end()) return; // already flushed
    Parked p = std::move(it->second);
    parked_.erase(it);
    // The command DID execute locally; only replication progress is
    // unknown. The client must treat this as maybe-applied and retry with
    // the same token (the dup entry stays, still not ready).
    if (const auto conn = p.conn.lock(); conn && conn->channel) {
        if (p.traced && tracer_ != nullptr) {
            tracer_->flow_server_done(conn->channel->flow_id());
        }
        conn->channel->send(kv::resp::error(
            "WAITTIMEOUT write not acknowledged by enough replicas"));
    }
}

void KvServer::attach_dup_waiter(const WriteTag& tag, const ClientPtr& conn,
                                 bool traced) {
    for (auto& [id, p] : parked_) {
        if (p.tagged && p.tag.client == tag.client && p.tag.seq == tag.seq) {
            p.conn = conn;
            p.traced = traced;
            return;
        }
    }
    // The original park timed out; re-park this retry at the recorded
    // commit offset (deliver_or_park re-checks ack progress first).
    const auto it = dup_table_.find(tag.client);
    SKV_DCHECK(it != dup_table_.end());
    deliver_or_park(conn, std::string(it->second.reply), it->second.offset,
                    /*is_write=*/true, /*tagged=*/true, tag, traced);
}

void KvServer::record_command_latency(const std::vector<std::string>& argv,
                                      bool is_write, sim::SimTime t0) {
    const sim::Duration dur = sim_.now() - t0;
    t_cmd_service_.record(dur);
    if (cfg_.slowlog_threshold.ns() >= 0 &&
        dur.ns() >= cfg_.slowlog_threshold.ns()) {
        SlowlogEntry e;
        e.id = next_slowlog_id_++;
        e.when_ns = sim_.now().ns();
        e.dur_ns = dur.ns();
        // Like Redis, cap the retained argv so a huge MSET cannot bloat the
        // ring; the command name plus first args identify the culprit.
        const std::size_t keep = std::min<std::size_t>(argv.size(), 8);
        e.argv.assign(argv.begin(),
                      argv.begin() + static_cast<std::ptrdiff_t>(keep));
        slowlog_.push_back(std::move(e));
        while (slowlog_.size() > kSlowlogMaxLen) slowlog_.pop_front();
    }
    LatencyEvent& ev =
        latency_events_[is_write ? "command-write" : "command-read"];
    ev.last_ns = sim_.now().ns();
    ev.last_dur_ns = dur.ns();
    ev.max_dur_ns = std::max(ev.max_dur_ns, dur.ns());
    ev.history.emplace_back(sim_.now().ns(), dur.ns());
    while (ev.history.size() > kLatencyHistoryLen) ev.history.pop_front();
}

std::string KvServer::slowlog_reply(const std::vector<std::string>& argv) {
    const std::string_view usage =
        "ERR wrong number of arguments for 'slowlog' command";
    if (argv.size() < 2) return kv::resp::error(usage);
    const kv::Sds sub(argv[1]);
    if (sub.iequals("RESET")) {
        slowlog_.clear();
        return kv::resp::simple("OK");
    }
    if (sub.iequals("LEN")) {
        return kv::resp::integer(static_cast<long long>(slowlog_.size()));
    }
    if (sub.iequals("GET")) {
        long long want = 10;
        if (argv.size() >= 3) {
            const auto n = kv::string2ll(argv[2]);
            if (!n.has_value()) {
                return kv::resp::error("ERR value is not an integer or out of range");
            }
            want = *n < 0 ? static_cast<long long>(slowlog_.size()) : *n;
        }
        const auto count = std::min<std::size_t>(
            slowlog_.size(), static_cast<std::size_t>(std::max<long long>(want, 0)));
        std::string out = kv::resp::array_header(count);
        // Newest first, Redis-style. Entry: id, sim-time (s), duration (us),
        // argv.
        auto it = slowlog_.rbegin();
        for (std::size_t i = 0; i < count; ++i, ++it) {
            out += kv::resp::array_header(4);
            out += kv::resp::integer(static_cast<long long>(it->id));
            out += kv::resp::integer(it->when_ns / 1'000'000'000);
            out += kv::resp::integer(it->dur_ns / 1'000);
            out += kv::resp::array_header(it->argv.size());
            for (const auto& a : it->argv) out += kv::resp::bulk(a);
        }
        return out;
    }
    return kv::resp::error("ERR unknown SLOWLOG subcommand '" + argv[1] + "'");
}

std::string KvServer::latency_reply(const std::vector<std::string>& argv) {
    if (argv.size() < 2 || kv::Sds(argv[1]).iequals("LATEST")) {
        // Array of [event, sim-time (s), last duration (us), max duration
        // (us)] — Redis reports milliseconds; this simulation's interesting
        // tail lives in microseconds.
        std::string out = kv::resp::array_header(latency_events_.size());
        for (const auto& [name, ev] : latency_events_) {
            out += kv::resp::array_header(4);
            out += kv::resp::bulk(name);
            out += kv::resp::integer(ev.last_ns / 1'000'000'000);
            out += kv::resp::integer(ev.last_dur_ns / 1'000);
            out += kv::resp::integer(ev.max_dur_ns / 1'000);
        }
        return out;
    }
    const kv::Sds sub(argv[1]);
    if (sub.iequals("RESET")) {
        const auto n = static_cast<long long>(latency_events_.size());
        latency_events_.clear();
        return kv::resp::integer(n);
    }
    if (sub.iequals("HISTORY")) {
        if (argv.size() < 3) return kv::resp::array_header(0);
        const auto it = latency_events_.find(argv[2]);
        if (it == latency_events_.end()) return kv::resp::array_header(0);
        std::string out = kv::resp::array_header(it->second.history.size());
        for (const auto& [when_ns, dur_ns] : it->second.history) {
            out += kv::resp::array_header(2);
            out += kv::resp::integer(when_ns / 1'000'000'000);
            out += kv::resp::integer(dur_ns / 1'000);
        }
        return out;
    }
    return kv::resp::error("ERR unknown LATENCY subcommand '" + argv[1] + "'");
}

// --- replication: master side ---------------------------------------------------

void KvServer::propagate(const std::vector<std::string>& repl_argv) {
    const std::string bytes = kv::resp::command(repl_argv);
    const std::int64_t start = backlog_.master_offset();
    backlog_.append(bytes);

    const bool traced = tracer_ != nullptr && tracer_->enabled();
    if (cfg_.offload_replication) {
        if (!nic_attached_ || !nic_link_ || !nic_link_->open()) return;
        // SKV: one replication request to the SmartNIC, regardless of the
        // number of slaves — the per-write saving the paper measures.
        self_.core->consume(costs_.jittered(rng_, costs_.offload_request_build));
        nic_link_->send(NodeMsg{NodeMsg::Type::kReplData, start, bytes}.encode());
        c_repl_offload_.incr();
        if (traced) {
            tracer_->repl_propagate(start,
                                    start + static_cast<std::int64_t>(bytes.size()),
                                    obs_track_);
        }
        return;
    }
    // Baseline: feed every slave's buffer and post one WR each, one by one,
    // before the client reply goes out.
    bool sent_any = false;
    for (auto& s : slaves_) {
        if (!s.valid || !s.channel || !s.channel->open()) continue;
        sim::Duration feed = costs_.jittered(rng_, costs_.repl_feed_slave) +
                             costs_.copy_cost(bytes.size());
        if (rng_.next_bool(costs_.repl_feed_stall_prob)) {
            feed += costs_.repl_feed_stall;
        }
        self_.core->consume(feed);
        s.channel->send(NodeMsg{NodeMsg::Type::kReplData, start, bytes}.encode());
        c_repl_sends_.incr();
        sent_any = true;
    }
    if (traced && sent_any) {
        tracer_->repl_propagate(start,
                                start + static_cast<std::int64_t>(bytes.size()),
                                obs_track_);
    }
}

void KvServer::serve_initial_sync(const std::string& slave_name,
                                  std::int64_t slave_offset,
                                  net::ChannelPtr direct) {
    // Register (or refresh) the slave link.
    auto it = std::find_if(slaves_.begin(), slaves_.end(),
                           [&](const SlaveLink& s) { return s.name == slave_name; });
    if (it == slaves_.end()) {
        slaves_.push_back(SlaveLink{slave_name, direct, slave_offset, true});
    } else {
        // Re-sync over a fresh channel supersedes the old link: close it and
        // drop its connection record, or the dead channel (which carries no
        // traffic, so the reliable layer never declares it broken) would be
        // retained until process exit.
        if (it->channel != direct) drop_link(it->channel);
        it->channel = direct;
        it->ack_offset = slave_offset;
        it->valid = true;
    }
    if (!cfg_.offload_replication) {
        available_slaves_ = static_cast<int>(slaves_.size());
    }
    role_ = Role::kMaster;

    // Decide between a partial resync from the backlog and a full snapshot.
    if (slave_offset == backlog_.master_offset()) {
        // Already byte-for-byte in sync: an empty backlog range doubles as
        // the greeting that tells the slave which channel its master is on.
        direct->send(
            NodeMsg{NodeMsg::Type::kBacklog, slave_offset, ""}.encode());
        return;
    }
    serve_sync(*direct, slave_offset);
}

void KvServer::serve_sync(net::Channel& ch, std::int64_t from) {
    // A partial resync from the backlog when it still holds `from`, else a
    // full snapshot.
    if (backlog_.can_serve(from)) {
        const std::string range = backlog_.read_from(from);
        self_.core->consume(costs_.copy_cost(range.size()));
        ch.send(NodeMsg{NodeMsg::Type::kBacklog, from, range}.encode());
        return;
    }
    // Full synchronization: persist everything and ship the RDB file.
    const std::string rdb = kv::rdb::save(db_);
    // Snapshot cost: copy-on-write fork plus serialization.
    self_.core->consume(sim::microseconds(400) + costs_.copy_cost(2 * rdb.size()));
    ch.send(
        NodeMsg{NodeMsg::Type::kFullSync, backlog_.master_offset(), rdb}.encode());
    c_sync_full_.incr();
}

void KvServer::connect_and_sync_slave(const std::string& slave_name,
                                      std::int64_t offset) {
    // SKV master, paper Fig. 8 step 3: establish a direct RDMA connection
    // to the slave and serve the initial synchronization over it. No retry
    // timer here: a lost handshake leaves the slave unsynced, it re-registers
    // after probe_silence_timeout and the NIC notifies us again.
    // Slave node ports follow the same convention: cfg_.port + 1. The
    // slave's endpoint is carried in the notify body as "<name>@<ep>".
    const auto at = slave_name.find('@');
    SKV_CHECK(at != std::string::npos);
    const auto ep = static_cast<net::EndpointId>(
        std::stoul(slave_name.substr(at + 1)));
    dial_node(ep, static_cast<std::uint16_t>(cfg_.port + 1), nullptr, nullptr,
              [this, slave_name, offset](const net::ChannelPtr& ch) {
                  serve_initial_sync(slave_name, offset, ch);
              });
}

void KvServer::handle_node_msg(const ClientPtr& conn, const NodeMsg& msg) {
    sim::NodeScope owner(self_.ep);
    if (repl_->on_frame(msg)) return;
    switch (msg.type) {
        case NodeMsg::Type::kSync: {
            // Baseline: a slave registered over its own channel; serve the
            // initial sync on that same channel.
            self_.core->consume(costs_.event_dispatch);
            serve_initial_sync(msg.body, msg.field, conn->channel);
            break;
        }
        case NodeMsg::Type::kSyncNotify: {
            // SKV: Nic-KV tells the master a slave wants to synchronize.
            self_.core->consume(costs_.event_dispatch);
            connect_and_sync_slave(msg.body, msg.field);
            break;
        }
        case NodeMsg::Type::kResyncRequest: {
            // SKV: a recovered slave is behind; serve it the backlog range
            // over the existing direct channel.
            auto it = std::find_if(
                slaves_.begin(), slaves_.end(),
                [&](const SlaveLink& s) { return s.name == msg.body; });
            if (it != slaves_.end()) serve_sync(*it->channel, msg.field);
            break;
        }
        case NodeMsg::Type::kAck: {
            auto it = std::find_if(slaves_.begin(), slaves_.end(),
                                   [&](const SlaveLink& s) {
                                       return s.channel == conn->channel;
                                   });
            if (it != slaves_.end()) {
                it->ack_offset = std::max(it->ack_offset, msg.field);
                if (tracer_ != nullptr && tracer_->enabled()) {
                    tracer_->repl_ack(msg.field);
                }
                flush_parked();
            }
            break;
        }
        case NodeMsg::Type::kSlaveCount: {
            available_slaves_ = static_cast<int>(msg.field);
            // Mark named slaves invalid so lag checks skip them.
            for (auto& s : slaves_) {
                s.valid = msg.body.find(s.name) == std::string::npos;
            }
            // The commit quorum shrinks with the valid set; parked replies
            // may be releasable (or permanently below need) now.
            flush_parked();
            break;
        }
        case NodeMsg::Type::kReplData: {
            // Slave: a chunk of the replication stream.
            if (tracer_ != nullptr && tracer_->enabled()) {
                tracer_->repl_slave_apply(msg.field, obs_track_);
            }
            apply_repl_stream(msg.field, msg.body);
            break;
        }
        case NodeMsg::Type::kBacklog: {
            // The sender of sync data is our master: progress reports go
            // back on this channel (baseline: the SYNC channel; SKV: the
            // direct channel the master dialed in Fig. 8 step 3).
            if (role_ == Role::kSlave) master_link_ = conn->channel;
            apply_repl_stream(msg.field, msg.body);
            break;
        }
        case NodeMsg::Type::kFullSync: {
            if (role_ == Role::kSlave) master_link_ = conn->channel;
            load_snapshot(msg.field, msg.body);
            break;
        }
        case NodeMsg::Type::kProbe: {
            // Reply immediately (paper §III-D).
            last_probe_ns_ = sim_.now().ns();
            self_.core->consume(costs_.event_dispatch);
            const std::string body =
                std::string(to_string(role_)) + ":" + kv::ll2string(applied_offset_);
            conn->channel->send(
                NodeMsg{NodeMsg::Type::kProbeAck, msg.field, body}.encode());
            break;
        }
        case NodeMsg::Type::kPromote: {
            if (role_ == Role::kSlave) {
                role_ = Role::kMaster;
                // A stand-in master serves writes solo: it leaves any
                // protocol role it held as a replica (a chain member must
                // neither relay frames nor serve leased tail reads).
                repl_->on_role_change();
            }
            break;
        }
        case NodeMsg::Type::kDemote: {
            if (role_ == Role::kMaster) {
                role_ = Role::kSlave;
                // A demoted master never feeds its old fan-out targets
                // again — the promoted master dials the slaves itself.
                // Releasing the links here is what lets the per-slave
                // connection graphs die with the demotion.
                for (auto& s : slaves_) drop_link(s.channel);
                slaves_.clear();
                available_slaves_ = 0;
                // Back to slave duty with stale protocol knowledge (e.g. a
                // chain member waits for a fresh successor assignment).
                repl_->on_role_change();
            }
            break;
        }
        case NodeMsg::Type::kChainSet:
            break; // another protocol's successor assignment: dropped
        case NodeMsg::Type::kChainData:
        case NodeMsg::Type::kQuorumCommit:
            // Frames of a protocol this node does not run (or, for its
            // own protocol, a role that does not take them).
        case NodeMsg::Type::kInitSync:
        case NodeMsg::Type::kProbeAck:
        case NodeMsg::Type::kQuorumAck:
        case NodeMsg::Type::kReadRepair:
            // Nic-KV traffic; a Host-KV server never receives these.
            c_node_msgs_unexpected_.incr();
            break;
    }
}

// --- replication: slave side ----------------------------------------------------

void KvServer::apply_repl_stream(std::int64_t start_offset,
                                 const std::string& bytes) {
    sim::NodeScope owner(self_.ep);
    if (start_offset > applied_offset_) {
        // Ahead of us: either data was lost while this node was down, or a
        // resync snapshot is still in flight while fan-out continues. Hold
        // the frame; the snapshot/backlog will catch applied_offset_ up,
        // after which these frames drain in order.
        if (pending_stream_bytes_ + bytes.size() <= kPendingStreamCap) {
            pending_stream_bytes_ += bytes.size();
            pending_stream_.emplace_back(start_offset, bytes);
        }
        return;
    }
    apply_contiguous(start_offset, bytes);
    drain_pending_stream();
    // Low-latency progress report so a commit-gating master can release
    // parked replies after one round trip instead of one ack_interval.
    if (cfg_.ack_on_apply && role_ == Role::kSlave) send_ack();
}

void KvServer::drain_pending_stream() {
    while (!pending_stream_.empty() &&
           pending_stream_.front().first <= applied_offset_) {
        auto [off, data] = std::move(pending_stream_.front());
        pending_stream_.pop_front();
        pending_stream_bytes_ -= data.size();
        apply_contiguous(off, data);
    }
}

void KvServer::apply_contiguous(std::int64_t start_offset,
                                std::string_view view) {
    SKV_DCHECK(start_offset <= applied_offset_);
    if (start_offset < applied_offset_) {
        const auto skip = static_cast<std::size_t>(applied_offset_ - start_offset);
        if (skip >= view.size()) return; // fully stale frame
        view.remove_prefix(skip);
    }
    repl_parser_.feed(view);
    applied_offset_ += static_cast<std::int64_t>(view.size());

    std::vector<std::string> argv;
    std::string err;
    for (;;) {
        const auto st = repl_parser_.next(&argv, &err);
        if (st == kv::resp::Status::kNeedMore) break;
        if (st == kv::resp::Status::kError) {
            repl_parser_.reset();
            return;
        }
        apply_one(std::move(argv));
        argv.clear();
    }
}

void KvServer::apply_one(std::vector<std::string> argv) {
    self_.core->submit(
        costs_.jittered(rng_, costs_.slave_apply),
        [this, argv = std::move(argv)]() mutable {
            // Tagged stream commands carry the master's dup-suppression
            // entry: record it so this node, if promoted, suppresses client
            // retries of writes it already applied via fan-out — and never
            // applies the same (client, seq) twice even if a resync range
            // overlaps frames already seen.
            // Replicated dup-table eviction: drop the entry the master
            // trimmed so this replica's table stays bounded in lockstep.
            if (argv.size() == 2 && argv[0] == "WSEQEVICT") {
                if (const auto id = kv::string2ll(argv[1]);
                    id.has_value() && *id >= 0) {
                    dup_table_.erase(static_cast<std::uint64_t>(*id));
                }
                c_dup_evictions_applied_.incr();
                return;
            }
            WriteTag tag{};
            std::string cached;
            if (strip_replicated_tag(argv, &tag, &cached)) {
                const auto it = dup_table_.find(tag.client);
                if (it != dup_table_.end() && it->second.seq >= tag.seq) return;
                dup_record(tag, std::move(cached), /*ready=*/true,
                           applied_offset_);
            }
            std::string reply;
            commands_table_.execute(db_, rng_, argv, reply);
        });
}

void KvServer::load_snapshot(std::int64_t offset, const std::string& rdb_bytes) {
    const auto st = kv::rdb::load(rdb_bytes, db_);
    if (st != kv::rdb::LoadStatus::kOk) return;
    self_.core->consume(costs_.copy_cost(2 * rdb_bytes.size()));
    applied_offset_ = offset;
    repl_parser_.reset();
    drain_pending_stream();
    if (cfg_.ack_on_apply && role_ == Role::kSlave) send_ack();
}

void KvServer::send_ack() {
    if (role_ == Role::kSlave && master_link_ && master_link_->open()) {
        self_.core->consume(costs_.event_dispatch);
        master_link_->send(
            NodeMsg{NodeMsg::Type::kAck, applied_offset_, cfg_.name}.encode());
    }
    repl_->on_progress();
}

// --- role wiring -------------------------------------------------------------------

void KvServer::slaveof_baseline(net::EndpointId master_ep,
                                std::uint16_t node_port) {
    role_ = Role::kSlave;
    baseline_master_ep_ = master_ep;
    baseline_master_port_ = node_port;
    // Re-pointing at a (new) master: the old link and its retained
    // connection object are dead weight from here on. Release them.
    drop_link(master_link_);
    dial_node(
        master_ep, node_port, &baseline_connect_attempt_, &master_link_,
        [this](const net::ChannelPtr& ch) {
            ch->send(NodeMsg{NodeMsg::Type::kSync, applied_offset_, cfg_.name}
                         .encode());
        },
        [this]() {
            slaveof_baseline(baseline_master_ep_, baseline_master_port_);
        });
}

void KvServer::slaveof_skv(net::EndpointId nic_ep, std::uint16_t nic_port) {
    role_ = Role::kSlave;
    skv_nic_ep_ = nic_ep;
    skv_nic_port_ = nic_port;
    // A crashed-and-recovered node may still hold an open-looking channel
    // whose peer has moved on; registration always starts fresh and the
    // superseded link is released.
    drop_link(nic_registration_);
    last_reregister_ns_ = sim_.now().ns();
    SKV_CHECK(cfg_.transport == Transport::kRdma, "SKV mode requires the RDMA transport");
    // Paper Fig. 8 step 1: the request carries the slave's replication ID,
    // offset, and identity. The "<name>@<endpoint>" body lets the master
    // dial back for step 3.
    dial_node(
        nic_ep, nic_port, &skv_connect_attempt_, &nic_registration_,
        [this](const net::ChannelPtr& ch) {
            last_probe_ns_ = sim_.now().ns();
            const std::string ident = cfg_.name + "@" + std::to_string(self_.ep);
            ch->send(NodeMsg{NodeMsg::Type::kInitSync, applied_offset_, ident}
                         .encode());
        },
        [this]() {
            slaveof_skv(skv_nic_ep_, skv_nic_port_);
        });
}

void KvServer::attach_nic(net::EndpointId nic_ep, std::uint16_t nic_port) {
    role_ = Role::kMaster;
    skv_nic_ep_ = nic_ep;
    skv_nic_port_ = nic_port;
    SKV_CHECK(cfg_.offload_replication);
    drop_link(nic_link_);
    nic_attached_ = false;
    SKV_CHECK(cfg_.transport == Transport::kRdma, "SKV mode requires the RDMA transport");
    dial_node(
        nic_ep, nic_port, &skv_connect_attempt_, &nic_link_,
        [this](const net::ChannelPtr& ch) {
            nic_attached_ = true;
            last_probe_ns_ = sim_.now().ns();
            // Identify ourselves to the NIC as the master.
            const std::string ident = cfg_.name + "@" + std::to_string(self_.ep);
            ch->send(NodeMsg{NodeMsg::Type::kSync, backlog_.master_offset(),
                             "master:" + ident}
                         .encode());
        },
        [this]() {
            attach_nic(skv_nic_ep_, skv_nic_port_);
        });
}

// --- slave link for acks (SKV slaves ack over the master's direct channel) -----

void KvServer::cron() {
    sim::NodeScope owner(self_.ep);
    if (!crashed_) {
        // Active expiry + incremental rehash make progress even when idle.
        const std::size_t removed =
            db_.active_expire_cycle(rng_, kExpireSamples);
        if (removed > 0) {
            self_.core->consume(costs_.cmd_exec_write * static_cast<std::int64_t>(removed));
            c_expired_keys_.incr(removed);
        }
        db_.keys().rehash_step(4);

        // Reap connections whose channel is gone (FIN received, protocol
        // error, reliable layer declared broken) — Redis frees the client
        // object on EOF; retaining ours forever was the leak simlint's
        // [cycle] rule guards the fix for.
        std::erase_if(clients_, [](const ClientPtr& c) {
            return !c->channel || !c->channel->open();
        });

        ++cron_ticks_;
        const std::int64_t acks_every =
            std::max<std::int64_t>(1, cfg_.ack_interval.ns() / kCronInterval.ns());
        if (cron_ticks_ % acks_every == 0) send_ack();

        // Periodic RDB persistence: the snapshot + offset pair is the only
        // state a cold restart recovers from.
        if (cfg_.persist_interval.ns() > 0) {
            const std::int64_t persists_every = std::max<std::int64_t>(
                1, cfg_.persist_interval.ns() / kCronInterval.ns());
            if (cron_ticks_ % persists_every == 0) persist_snapshot();
        }

        // SKV self-healing: a node Nic-KV has silently stopped probing (a
        // one-directional partition gives this side no broken-link signal)
        // or a slave whose initial sync never arrived re-registers, which
        // re-runs the Fig. 8 handshake and the backlog partial resync.
        if (skv_nic_ep_ != net::kInvalidEndpoint &&
            cfg_.probe_silence_timeout.ns() > 0) {
            const std::int64_t now = sim_.now().ns();
            const std::int64_t silence = cfg_.probe_silence_timeout.ns();
            if (now - last_reregister_ns_ > silence) {
                if (role_ == Role::kSlave) {
                    const bool probe_silent =
                        nic_registration_ && nic_registration_->open() &&
                        now - last_probe_ns_ > silence;
                    if (probe_silent || !master_link_) {
                        c_reregistrations_.incr();
                        slaveof_skv(skv_nic_ep_, skv_nic_port_);
                    }
                } else if (cfg_.offload_replication && nic_attached_ &&
                           now - last_probe_ns_ > silence) {
                    c_reregistrations_.incr();
                    last_reregister_ns_ = now;
                    attach_nic(skv_nic_ep_, skv_nic_port_);
                }
            }
        }
    }
    sim_.after(kCronInterval, [this]() { cron(); });
}

// --- fault injection ------------------------------------------------------------------

void KvServer::crash() {
    SKV_CHECK(!crashed_);
    crashed_ = true;
    self_.core->halt();
    nets_.fabric->sever(self_.ep);
    // The process is gone, and so is every connection object in it. No
    // close() here — a FIN from a dead process is wrong and the halted
    // core could not run it anyway; dropping the references is exactly
    // what OS teardown does. Peers learn via RTO exhaustion and probe
    // timeouts. (The weak handler captures are what make the drop
    // actually free the graphs — see DESIGN.md "Ownership model".)
    clients_.clear();
    slaves_.clear();
    master_link_.reset();
    nic_link_.reset();
    nic_registration_.reset();
    nic_attached_ = false;
    pending_stream_.clear();
    pending_stream_bytes_ = 0;
    // Protocol volatile state dies with the process too (again no close()).
    repl_->on_crash();
    // Parked replies die with their connections; their wait-timeout events
    // find nothing and no-op. The dup table survives for a *warm* restart
    // (same process memory); a cold recover() wipes it.
    parked_.clear();
    c_crashes_.incr();
}

void KvServer::recover(RecoveryMode mode) {
    SKV_CHECK(crashed_);
    crashed_ = false;
    self_.core->resume();
    nets_.fabric->restore(self_.ep);
    c_recoveries_.incr();
    if (mode == RecoveryMode::kCold) {
        // Machine restart: process memory is gone. Reload the last
        // persisted snapshot (possibly none) and resume the stream at its
        // offset — NOT at the pre-crash offset, which only existed in RAM.
        c_cold_recoveries_.incr();
        db_.clear();
        dup_table_.clear();
        repl_parser_.reset();
        applied_offset_ = 0;
        if (!persisted_rdb_.empty()) {
            const auto st = kv::rdb::load(persisted_rdb_, db_);
            SKV_CHECK(st == kv::rdb::LoadStatus::kOk);
            self_.core->consume(costs_.copy_cost(2 * persisted_rdb_.size()));
            applied_offset_ = persisted_offset_;
        }
        // A master's stream resumes where the snapshot was taken; rewinding
        // to zero would make every already-synced slave treat new frames as
        // stale duplicates of offsets it already applied.
        backlog_.reset(role_ == Role::kSlave ? 0 : persisted_offset_);
    }
    // Reconnect: channels died with the process (ring cursors on the other
    // side advanced past writes this host never saw, so the old channels
    // are unusable). An SKV slave re-registers with Nic-KV, which notices
    // its stale offset and arranges a resync; an SKV master re-attaches,
    // which tells the failure detector it is back.
    if (skv_nic_ep_ != net::kInvalidEndpoint) {
        if (role_ == Role::kSlave) {
            slaveof_skv(skv_nic_ep_, skv_nic_port_);
        } else if (cfg_.offload_replication) {
            attach_nic(skv_nic_ep_, skv_nic_port_);
        }
        return;
    }
    if (role_ == Role::kSlave && baseline_master_ep_ != net::kInvalidEndpoint) {
        slaveof_baseline(baseline_master_ep_, baseline_master_port_);
    }
}

void KvServer::persist_snapshot() {
    persisted_rdb_ = kv::rdb::save(db_);
    persisted_offset_ =
        role_ == Role::kSlave ? applied_offset_ : backlog_.master_offset();
    // fork() copy-on-write plus serialization, same cost shape as the
    // full-sync path.
    self_.core->consume(sim::microseconds(400) +
                        costs_.copy_cost(2 * persisted_rdb_.size()));
    c_snapshots_persisted_.incr();
}

std::string KvServer::info_sections() const {
    std::string out;
    out += "# Server\r\n";
    out += "server_name:" + cfg_.name + "\r\n";
    out += "transport:" + std::string(to_string(cfg_.transport)) + "\r\n";
    out += "uptime_in_seconds:" + kv::ll2string(sim_.now().ns() / 1'000'000'000) + "\r\n";
    out += "# Clients\r\n";
    out += "connected_clients:" + kv::ll2string(static_cast<long long>(clients_.size())) + "\r\n";
    out += "# Memory\r\n";
    out += "used_memory:" + kv::ll2string(static_cast<long long>(db_.memory_bytes())) + "\r\n";
    out += "# Replication\r\n";
    out += "role:" + std::string(to_string(role_)) + "\r\n";
    out += "offload_replication:" +
           std::string(cfg_.offload_replication ? "yes" : "no") + "\r\n";
    out += "replication_mode:" +
           std::string(to_string(cfg_.replication_mode)) + "\r\n";
    out += "connected_slaves:" + kv::ll2string(static_cast<long long>(slaves_.size())) + "\r\n";
    out += "available_slaves:" + kv::ll2string(available_slaves_) + "\r\n";
    out += "master_repl_offset:" + kv::ll2string(backlog_.master_offset()) + "\r\n";
    out += "slave_repl_offset:" + kv::ll2string(applied_offset_) + "\r\n";
    out += "repl_backlog_size:" + kv::ll2string(static_cast<long long>(backlog_.capacity())) + "\r\n";
    out += "# Keyspace\r\n";
    out += "db0:keys=" + kv::ll2string(static_cast<long long>(db_.size())) +
           ",expires=" + kv::ll2string(static_cast<long long>(db_.expires_size())) + "\r\n";
    out += "# Stats\r\n";
    out += "total_commands_processed:" + kv::ll2string(static_cast<long long>(commands_)) + "\r\n";
    out += "total_reads:" + kv::ll2string(static_cast<long long>(c_reads_.value())) + "\r\n";
    out += "total_writes:" + kv::ll2string(static_cast<long long>(c_writes_.value())) + "\r\n";
    out += "slowlog_len:" + kv::ll2string(static_cast<long long>(slowlog_.size())) + "\r\n";
    out += "# Latencystats\r\n";
    if (const auto* h = t_cmd_service_.histogram(); h != nullptr && h->count() > 0) {
        out += "cmd_service_count:" + kv::ll2string(static_cast<long long>(h->count())) + "\r\n";
        out += "cmd_service_p50_usec:" + kv::ll2string(h->p50_ns() / 1'000) + "\r\n";
        out += "cmd_service_p99_usec:" + kv::ll2string(h->p99_ns() / 1'000) + "\r\n";
        out += "cmd_service_max_usec:" + kv::ll2string(h->max_ns() / 1'000) + "\r\n";
    }
    return out;
}

std::string KvServer::info() const {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s role=%s transport=%s keys=%zu offset=%lld applied=%lld "
                  "slaves=%zu cmds=%llu",
                  cfg_.name.c_str(), to_string(role_), to_string(cfg_.transport),
                  db_.size(), static_cast<long long>(backlog_.master_offset()),
                  static_cast<long long>(applied_offset_), slaves_.size(),
                  static_cast<unsigned long long>(commands_));
    return buf;
}

} // namespace skv::server
