#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cpu/cost_model.hpp"
#include "kv/backlog.hpp"
#include "kv/command.hpp"
#include "kv/db.hpp"
#include "kv/resp.hpp"
#include "net/channel.hpp"
#include "net/tcp.hpp"
#include "rdma/cm.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "server/config.hpp"
#include "server/protocol.hpp"
#include "server/replication.hpp"
#include "sim/simulation.hpp"

namespace skv::server {

/// A Host-KV instance: the single-threaded, event-driven Redis-style
/// server. One per simulated host. Depending on configuration it acts as:
///
///  * a standalone server (Fig. 10 experiments),
///  * a baseline master that replicates to each slave itself — one buffer
///    feed and one work request per slave per write (RDMA-Redis / Fig. 7),
///  * an SKV master that posts a single replication request to Nic-KV per
///    write (Fig. 11/12/14),
///  * a slave applying the replication stream and reporting progress.
///
/// Two listening ports: `cfg.port` speaks RESP to clients; `cfg.port + 1`
/// speaks NodeMsg to peers (slaves, masters, Nic-KV).
class KvServer {
public:
    struct Transports {
        net::Fabric* fabric = nullptr;
        net::TcpNetwork* tcp = nullptr;
        rdma::ConnectionManager* cm = nullptr;
    };

    KvServer(sim::Simulation& sim, const cpu::CostModel& costs,
             Transports nets, net::NodeRef self, ServerConfig cfg);

    /// Begin listening on the client and node ports and start serverCron.
    void start();

    // --- role wiring -------------------------------------------------------
    /// Baseline replication: connect to the master's node port and SYNC.
    void slaveof_baseline(net::EndpointId master_ep, std::uint16_t node_port);
    /// SKV replication: register with Nic-KV on the master's SmartNIC
    /// (paper Fig. 8 step 1). The NIC coordinates the rest.
    void slaveof_skv(net::EndpointId nic_ep, std::uint16_t nic_port);
    /// SKV master: open the replication-request channel to the local
    /// Nic-KV. Must be called before writes arrive.
    void attach_nic(net::EndpointId nic_ep, std::uint16_t nic_port);

    // --- fault injection ------------------------------------------------------
    /// Crash the host process: the core halts and the endpoint is severed.
    void crash();
    /// How much state a restart recovers. kWarm models a process pause
    /// (data survives in the simulated process object); kCold models a
    /// real machine restart — everything volatile is gone and the node
    /// reloads the last persisted RDB snapshot (see persist_interval),
    /// then catches up via backlog partial resync or full sync.
    enum class RecoveryMode : std::uint8_t { kWarm, kCold };
    /// Restart after a crash. The replication stream has moved on while
    /// the node was down; it resynchronizes via the NIC-driven resync.
    void recover(RecoveryMode mode = RecoveryMode::kWarm);
    [[nodiscard]] bool crashed() const { return crashed_; }
    /// Offset of the last persisted snapshot (what a cold restart resumes
    /// from); 0 when nothing was persisted yet.
    [[nodiscard]] std::int64_t persisted_offset() const { return persisted_offset_; }
    /// Parked replies currently waiting for replica acknowledgements.
    [[nodiscard]] std::size_t parked_replies() const { return parked_.size(); }
    /// Retained duplicate-suppression entries (one per writing client).
    [[nodiscard]] std::size_t dup_entries() const { return dup_table_.size(); }
    /// Whether a duplicate-suppression entry for `client` is retained.
    [[nodiscard]] bool dup_has(std::uint64_t client) const {
        return dup_table_.find(client) != dup_table_.end();
    }
    /// The replication protocol this node runs (protocol state for tests).
    [[nodiscard]] const Replication& replication() const { return *repl_; }

    // --- introspection -----------------------------------------------------------
    [[nodiscard]] kv::Database& db() { return db_; }
    [[nodiscard]] const kv::Database& db() const { return db_; }
    [[nodiscard]] Role role() const { return role_; }
    [[nodiscard]] const ServerConfig& config() const { return cfg_; }
    [[nodiscard]] net::NodeRef node() const { return self_; }
    [[nodiscard]] std::int64_t master_offset() const {
        return backlog_.master_offset();
    }
    [[nodiscard]] std::int64_t slave_applied_offset() const { return applied_offset_; }
    [[nodiscard]] std::size_t slave_count() const { return slaves_.size(); }
    [[nodiscard]] int available_slaves() const { return available_slaves_; }
    /// Connection objects currently retained (clients + node links); the
    /// lifetime regression test asserts this shrinks when links die.
    [[nodiscard]] std::size_t client_conns() const { return clients_.size(); }
    [[nodiscard]] obs::Registry& stats() { return stats_; }
    [[nodiscard]] std::uint64_t commands_processed() const { return commands_; }

    /// INFO-style one-line status (examples print this).
    [[nodiscard]] std::string info() const;
    /// The INFO command's sectioned body (Server/Clients/Replication/...).
    [[nodiscard]] std::string info_sections() const;

    /// One retained slow command (SLOWLOG GET). Times are sim-time.
    struct SlowlogEntry {
        std::uint64_t id = 0;
        std::int64_t when_ns = 0;
        std::int64_t dur_ns = 0;
        std::vector<std::string> argv;
    };
    [[nodiscard]] const std::deque<SlowlogEntry>& slowlog() const {
        return slowlog_;
    }

    /// Wire the cluster's observability tracer. `track_name` names this
    /// server's chrome-trace row. The tracer only observes (no events, no
    /// RNG), so wiring or enabling it never changes the trace digest.
    void set_tracer(obs::Tracer* tracer, const std::string& track_name);

private:
    // Protocol objects work on the server's state directly (DESIGN.md §13).
    friend class Replication;
    friend class ChainReplication;
    friend class QuorumReplication;

    // serverCron cadence (active expiry, rehash steps, bookkeeping) and its
    // active-expire sample size; the redial interval for node-link
    // handshakes (the CM exchange rides unprotected fabric messages); the
    // SLOWLOG ring and per-event LATENCY HISTORY depths.
    static constexpr sim::Duration kCronInterval = sim::milliseconds(100);
    static constexpr std::size_t kExpireSamples = 20;
    static constexpr sim::Duration kConnectRetry = sim::milliseconds(500);
    static constexpr std::size_t kSlowlogMaxLen = 128;
    static constexpr std::size_t kLatencyHistoryLen = 16;

    struct ClientConn {
        net::ChannelPtr channel;
        kv::resp::RequestParser parser;
    };
    using ClientPtr = std::shared_ptr<ClientConn>;

    struct SlaveLink {
        std::string name;
        net::ChannelPtr channel;
        std::int64_t ack_offset = 0;
        bool valid = true;
    };

    // -- listening / connections (DESIGN.md "Ownership model": every node
    //    link is adopted by adopt_node_link and released by drop_link)

    /// Runs once a dialed node link is adopted.
    using NodeLinkUp = std::function<void(const net::ChannelPtr& link)>;
    /// Starts a lost dial over; false when the link is no longer wanted.
    using NodeRedial = std::function<bool()>;

    void listen_all();
    void on_client_accept(net::ChannelPtr ch);
    /// Take ownership of a node link: wrap it in the retransmitting layer
    /// (on_node_link_broken reacts to a broken link), retain a node
    /// ClientConn for it and install the NodeMsg handler, which captures
    /// the record weakly (the record owns the channel that stores the
    /// handler). Returns the wrapped link.
    net::ChannelPtr adopt_node_link(net::ChannelPtr inner);
    /// Dial `ep:port` over the configured transport, adopt the link, store
    /// it in `*link` (when given) and run `on_up`. Each dial bumps
    /// `*attempt` (when given): the result of an older dial is superseded
    /// and closed. A result arriving after crash() is dropped unclosed, like
    /// every link of the dead process. With `redial`, the dial starts over
    /// after kConnectRetry unless `*link` is up by then.
    void dial_node(net::EndpointId ep, std::uint16_t port,
                   std::uint64_t* attempt, net::ChannelPtr* link,
                   NodeLinkUp on_up, NodeRedial redial = nullptr);
    /// Close `link`, reset it and drop its connection record (no-op when
    /// empty).
    void drop_link(net::ChannelPtr& link);
    void on_node_link_broken(const net::Channel* raw);
    /// Close and drop the retained ClientConn owning `raw` (if any).
    void release_conn(const net::Channel* raw);

    // -- client command path
    void on_client_data(const ClientPtr& conn, std::string payload);
    void run_command(const ClientPtr& conn, std::vector<std::string> argv);
    [[nodiscard]] sim::Duration command_cost(
        const std::vector<std::string>& argv, const kv::CommandSpec* spec) const;
    /// `reason` receives a stats-counter key naming why the write was gated.
    [[nodiscard]] bool write_allowed(std::string* err, const char** reason) const;

    // -- commit gating / duplicate suppression
    /// Deliver `reply` now, or — when commit gating is on and `offset` is
    /// not yet acknowledged by enough replicas — park it. Tagged writes
    /// also record their duplicate-suppression entry (ready once sent).
    void deliver_or_park(const ClientPtr& conn, std::string reply,
                         std::int64_t offset, bool is_write, bool tagged,
                         WriteTag tag, bool traced);
    /// Re-deliver every parked reply whose offset became acknowledged
    /// (called whenever ack progress or the slave set changes).
    void flush_parked();
    void on_wait_timeout(std::uint64_t id);
    /// A retry arrived for a write that is applied but still parked:
    /// point the waiting reply at the retry's connection.
    void attach_dup_waiter(const WriteTag& tag, const ClientPtr& conn,
                           bool traced);
    void dup_record(const WriteTag& tag, std::string reply, bool ready,
                    std::int64_t offset);

    // -- persistence
    void persist_snapshot();

    // -- replication (master side)
    void propagate(const std::vector<std::string>& repl_argv);
    void handle_node_msg(const ClientPtr& conn, const NodeMsg& msg);
    void serve_initial_sync(const std::string& slave_name,
                            std::int64_t slave_offset, net::ChannelPtr direct);
    /// Serve a slave the stream from `from`: the backlog range when the
    /// backlog still holds it, else a full RDB snapshot.
    void serve_sync(net::Channel& ch, std::int64_t from);
    void connect_and_sync_slave(const std::string& slave_name,
                                std::int64_t offset);

    // -- replication (slave side)
    void apply_repl_stream(std::int64_t start_offset, const std::string& bytes);
    void apply_contiguous(std::int64_t start_offset, std::string_view bytes);
    void drain_pending_stream();
    void apply_one(std::vector<std::string> argv);
    void load_snapshot(std::int64_t offset, const std::string& rdb_bytes);
    /// Report applied progress: the kAck to the master, then the
    /// protocol's own report (Replication::on_progress).
    void send_ack();

    // -- introspection commands / latency accounting
    void record_command_latency(const std::vector<std::string>& argv,
                                bool is_write, sim::SimTime t0);
    [[nodiscard]] std::string slowlog_reply(const std::vector<std::string>& argv);
    [[nodiscard]] std::string latency_reply(const std::vector<std::string>& argv);

    // -- cron
    void cron();

    sim::Simulation& sim_;
    const cpu::CostModel& costs_;
    Transports nets_;
    net::NodeRef self_;
    ServerConfig cfg_;
    sim::Rng rng_;

    kv::Database db_;
    kv::ReplBacklog backlog_;
    const kv::CommandTable& commands_table_;

    Role role_ = Role::kStandalone;
    bool started_ = false;
    bool crashed_ = false;

    std::vector<ClientPtr> clients_;

    // master state
    std::vector<SlaveLink> slaves_;      // baseline fan-out targets
    net::ChannelPtr nic_link_;           // SKV: replication requests to Nic-KV
    int available_slaves_ = 0;           // as reported by the failure detector
    bool nic_attached_ = false;

    // slave state
    net::ChannelPtr master_link_;        // baseline: channel to master;
                                         // SKV: direct channel from master
    net::ChannelPtr nic_registration_;   // SKV slave: channel to Nic-KV
    net::EndpointId skv_nic_ep_ = net::kInvalidEndpoint; // for re-registration
    std::uint16_t skv_nic_port_ = 0;
    net::EndpointId baseline_master_ep_ = net::kInvalidEndpoint;
    std::uint16_t baseline_master_port_ = 0;
    // Connect attempts are numbered so a late handshake completion (or a
    // scheduled retry) from a superseded attempt is ignored.
    std::uint64_t skv_connect_attempt_ = 0;
    std::uint64_t baseline_connect_attempt_ = 0;
    std::int64_t last_probe_ns_ = 0;     // when Nic-KV last probed us
    std::int64_t last_reregister_ns_ = 0;
    std::int64_t applied_offset_ = 0;
    kv::resp::RequestParser repl_parser_;
    /// Stream frames that arrived ahead of applied_offset_ (e.g. fan-out
    /// racing an in-flight snapshot during resync), drained once the
    /// snapshot lands. Bounded; overflow forces another resync.
    std::deque<std::pair<std::int64_t, std::string>> pending_stream_;
    std::size_t pending_stream_bytes_ = 0;
    static constexpr std::size_t kPendingStreamCap = 64 * 1024 * 1024;

    /// Built once from cfg_.replication_mode.
    std::unique_ptr<Replication> repl_;

    // Duplicate suppression: last write sequence executed per client, with
    // the cached reply. `ready` flips once the reply was actually released
    // to a client (commit gating can hold it back); `offset` is the stream
    // offset a retry must wait on while not ready. `last_used` orders LRU
    // eviction beyond dup_table_max (see dup_record).
    struct DupState {
        std::uint64_t seq = 0;
        std::string reply;
        bool ready = true;
        std::int64_t offset = 0;
        std::uint64_t last_used = 0;
    };
    std::map<std::uint64_t, DupState> dup_table_;
    std::uint64_t dup_use_tick_ = 0;

    // Replies parked by commit gating, keyed by a monotonic id so flush
    // order is deterministic.
    struct Parked {
        std::weak_ptr<ClientConn> conn;
        std::string reply;
        std::int64_t offset = 0;
        bool is_write = false;
        bool tagged = false;
        WriteTag tag{};
        bool traced = false;
    };
    std::map<std::uint64_t, Parked> parked_;
    std::uint64_t next_parked_id_ = 0;

    // Last persisted snapshot (the "disk" a cold restart recovers from).
    std::string persisted_rdb_;
    std::int64_t persisted_offset_ = 0;

    std::uint64_t commands_ = 0;
    std::int64_t cron_ticks_ = 0;
    obs::Registry stats_;
    // Hot-path counters/timers pre-resolved against stats_ in the
    // constructor (same cells the string API addresses).
    obs::Counter c_reads_;
    obs::Counter c_writes_;
    obs::Counter c_repl_offload_;
    obs::Counter c_repl_sends_;
    obs::Counter c_repl_applied_;
    obs::Timer t_cmd_all_;
    obs::Timer t_cmd_write_;
    obs::Timer t_cmd_read_;

    obs::Tracer* tracer_ = nullptr;
    std::uint32_t obs_track_ = UINT32_MAX;

    // SLOWLOG / LATENCY state (sim-time, deterministic).
    std::uint64_t next_slowlog_id_ = 0;
    std::deque<SlowlogEntry> slowlog_;
    struct LatencyEvent {
        std::int64_t last_ns = 0;
        std::int64_t last_dur_ns = 0;
        std::int64_t max_dur_ns = 0;
        std::deque<std::pair<std::int64_t, std::int64_t>> history;
    };
    std::map<std::string, LatencyEvent> latency_events_;
};

} // namespace skv::server
