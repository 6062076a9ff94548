#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "kv/db.hpp"
#include "kv/resp.hpp"
#include "sim/rng.hpp"

namespace skv::kv {

/// Command attribute flags (subset of Redis's).
enum CommandFlags : unsigned {
    kCmdWrite = 1u << 0,    // may mutate the keyspace: replicated to slaves
    kCmdReadOnly = 1u << 1, // never mutates
    kCmdFast = 1u << 2,     // O(1)-ish
    kCmdAdmin = 1u << 3,    // server administration
};

/// Execution context handed to a command handler.
struct CommandContext {
    Database& db;
    sim::Rng& rng;
    const std::vector<std::string>& argv;
    std::string& reply; // RESP bytes are appended here

    /// Set by handlers that mutate state (drives dirty accounting and
    /// replication: only dirty writes propagate).
    bool dirty = false;

    /// Effect replication: when a command is non-deterministic
    /// (INCRBYFLOAT) or time-relative (EXPIRE), the handler records the
    /// deterministic command slaves must execute instead, exactly as Redis
    /// rewrites them in the replication stream.
    std::optional<std::vector<std::string>> repl_override;

    // -- handler conveniences ------------------------------------------------
    void reply_ok() { reply += resp::simple("OK"); }
    void reply_simple(std::string_view s) { reply += resp::simple(s); }
    void reply_error(std::string_view s) { reply += resp::error(s); }
    void reply_integer(long long v) { reply += resp::integer(v); }
    void reply_bulk(std::string_view s) { reply += resp::bulk(s); }
    void reply_null() { reply += resp::null_bulk(); }
    void reply_wrongtype() {
        reply += resp::error(
            "WRONGTYPE Operation against a key holding the wrong kind of value");
    }

    /// Look up `key` requiring type `t`: nullptr + WRONGTYPE reply on type
    /// mismatch, nullptr without reply when missing.
    ObjectPtr lookup_typed(std::string_view key, ObjType t, bool* type_error);
};

struct CommandSpec {
    std::string name;
    /// Positive: exact argc (including the command name). Negative: at
    /// least |arity| arguments.
    int arity;
    unsigned flags;
    std::function<void(CommandContext&)> handler;

    [[nodiscard]] bool is_write() const { return (flags & kCmdWrite) != 0; }
    [[nodiscard]] bool arity_ok(std::size_t argc) const {
        if (arity >= 0) return argc == static_cast<std::size_t>(arity);
        return argc >= static_cast<std::size_t>(-arity);
    }
};

/// Outcome of dispatching one command.
struct ExecResult {
    enum class Status : std::uint8_t {
        kOk,
        kUnknownCommand,
        kArityError,
        kExecError, // handler replied with -ERR/-WRONGTYPE
    };
    Status status = Status::kOk;
    bool dirty = false;
    bool is_write = false;
    /// The command to feed to the replication stream (argv or the
    /// handler's deterministic rewrite); empty when nothing to replicate.
    std::vector<std::string> repl_argv;
};

/// The command dispatch table. One immutable instance serves every server
/// in the simulation.
class CommandTable {
public:
    CommandTable();

    static const CommandTable& instance();

    [[nodiscard]] const CommandSpec* lookup(std::string_view name) const;

    /// Dispatch `argv` against `db`, appending the RESP reply to `reply`.
    ExecResult execute(Database& db, sim::Rng& rng,
                       const std::vector<std::string>& argv,
                       std::string& reply) const;

    [[nodiscard]] std::size_t size() const { return commands_.size(); }
    template <typename Fn> // Fn(const CommandSpec&)
    void for_each(Fn&& fn) const {
        for (const auto& [name, spec] : commands_) fn(spec);
    }

    void add(CommandSpec spec);

private:
    std::map<std::string, CommandSpec> commands_; // lower-cased name
};

/// Glob-style pattern match (Redis stringmatchlen): *, ?, [class], \escape.
/// Used by KEYS.
bool glob_match(std::string_view pattern, std::string_view str);

// Per-family registration (defined in commands_*.cpp).
void register_string_commands(CommandTable& t);
void register_key_commands(CommandTable& t);
void register_list_commands(CommandTable& t);
void register_server_commands(CommandTable& t);

} // namespace skv::kv
