#include <climits>

#include "kv/command.hpp"

namespace skv::kv {

namespace {

void cmd_hset(CommandContext& ctx) {
    if (ctx.argv.size() % 2 != 0) {
        ctx.reply_error("ERR wrong number of arguments for 'hset' command");
        return;
    }
    bool type_err = false;
    ObjectPtr o = ctx.lookup_typed(ctx.argv[1], ObjType::kHash, &type_err);
    if (type_err) return;
    if (o == nullptr) {
        o = Object::make_hash();
        ctx.db.set_keep_ttl(ctx.argv[1], o);
    }
    long long created = 0;
    for (std::size_t i = 2; i + 1 < ctx.argv.size(); i += 2) {
        if (o->hash().set(Sds(ctx.argv[i]), Sds(ctx.argv[i + 1]))) ++created;
    }
    ctx.db.mark_dirty();
    ctx.dirty = true;
    ctx.reply_integer(created);
}

void cmd_hsetnx(CommandContext& ctx) {
    bool type_err = false;
    ObjectPtr o = ctx.lookup_typed(ctx.argv[1], ObjType::kHash, &type_err);
    if (type_err) return;
    if (o != nullptr && o->hash().find(Sds(ctx.argv[2])) != nullptr) {
        ctx.reply_integer(0);
        return;
    }
    if (o == nullptr) {
        o = Object::make_hash();
        ctx.db.set_keep_ttl(ctx.argv[1], o);
    }
    o->hash().insert(Sds(ctx.argv[2]), Sds(ctx.argv[3]));
    ctx.db.mark_dirty();
    ctx.dirty = true;
    ctx.reply_integer(1);
}

void cmd_hget(CommandContext& ctx) {
    bool type_err = false;
    ObjectPtr o = ctx.lookup_typed(ctx.argv[1], ObjType::kHash, &type_err);
    if (type_err) return;
    if (o == nullptr) {
        ctx.reply_null();
        return;
    }
    const Sds* v = o->hash().find(Sds(ctx.argv[2]));
    if (v == nullptr) {
        ctx.reply_null();
    } else {
        ctx.reply_bulk(v->view());
    }
}

void cmd_hmget(CommandContext& ctx) {
    bool type_err = false;
    ObjectPtr o = ctx.lookup_typed(ctx.argv[1], ObjType::kHash, &type_err);
    if (type_err) return;
    ctx.reply += resp::array_header(ctx.argv.size() - 2);
    for (std::size_t i = 2; i < ctx.argv.size(); ++i) {
        const Sds* v = o == nullptr ? nullptr : o->hash().find(Sds(ctx.argv[i]));
        if (v == nullptr) {
            ctx.reply_null();
        } else {
            ctx.reply_bulk(v->view());
        }
    }
}

void cmd_hdel(CommandContext& ctx) {
    bool type_err = false;
    ObjectPtr o = ctx.lookup_typed(ctx.argv[1], ObjType::kHash, &type_err);
    if (type_err) return;
    if (o == nullptr) {
        ctx.reply_integer(0);
        return;
    }
    long long removed = 0;
    for (std::size_t i = 2; i < ctx.argv.size(); ++i) {
        if (o->hash().erase(Sds(ctx.argv[i]))) ++removed;
    }
    if (o->hash().empty()) ctx.db.remove(ctx.argv[1]);
    if (removed > 0) {
        ctx.db.mark_dirty();
        ctx.dirty = true;
    }
    ctx.reply_integer(removed);
}

void cmd_hlen(CommandContext& ctx) {
    bool type_err = false;
    ObjectPtr o = ctx.lookup_typed(ctx.argv[1], ObjType::kHash, &type_err);
    if (type_err) return;
    ctx.reply_integer(o == nullptr ? 0 : static_cast<long long>(o->hash().size()));
}

void cmd_hexists(CommandContext& ctx) {
    bool type_err = false;
    ObjectPtr o = ctx.lookup_typed(ctx.argv[1], ObjType::kHash, &type_err);
    if (type_err) return;
    ctx.reply_integer(
        o != nullptr && o->hash().find(Sds(ctx.argv[2])) != nullptr ? 1 : 0);
}

/// Collect fields/values in sorted-field order (deterministic replies).
std::vector<std::pair<std::string, std::string>> sorted_pairs(const Object& o) {
    std::vector<std::pair<std::string, std::string>> out;
    out.reserve(o.hash().size());
    o.hash().for_each([&](const Sds& k, const Sds& v) {
        out.emplace_back(k.str(), v.str());
    });
    std::sort(out.begin(), out.end());
    return out;
}

void cmd_hgetall(CommandContext& ctx) {
    bool type_err = false;
    ObjectPtr o = ctx.lookup_typed(ctx.argv[1], ObjType::kHash, &type_err);
    if (type_err) return;
    if (o == nullptr) {
        ctx.reply += resp::array_header(0);
        return;
    }
    const auto pairs = sorted_pairs(*o);
    ctx.reply += resp::array_header(pairs.size() * 2);
    for (const auto& [k, v] : pairs) {
        ctx.reply_bulk(k);
        ctx.reply_bulk(v);
    }
}

void cmd_hkeys(CommandContext& ctx) {
    bool type_err = false;
    ObjectPtr o = ctx.lookup_typed(ctx.argv[1], ObjType::kHash, &type_err);
    if (type_err) return;
    if (o == nullptr) {
        ctx.reply += resp::array_header(0);
        return;
    }
    const auto pairs = sorted_pairs(*o);
    ctx.reply += resp::array_header(pairs.size());
    for (const auto& [k, v] : pairs) ctx.reply_bulk(k);
}

void cmd_hvals(CommandContext& ctx) {
    bool type_err = false;
    ObjectPtr o = ctx.lookup_typed(ctx.argv[1], ObjType::kHash, &type_err);
    if (type_err) return;
    if (o == nullptr) {
        ctx.reply += resp::array_header(0);
        return;
    }
    const auto pairs = sorted_pairs(*o);
    ctx.reply += resp::array_header(pairs.size());
    for (const auto& [k, v] : pairs) ctx.reply_bulk(v);
}

void cmd_hincrby(CommandContext& ctx) {
    const auto delta = string2ll(ctx.argv[3]);
    if (!delta.has_value()) {
        ctx.reply_error("ERR value is not an integer or out of range");
        return;
    }
    bool type_err = false;
    ObjectPtr o = ctx.lookup_typed(ctx.argv[1], ObjType::kHash, &type_err);
    if (type_err) return;
    if (o == nullptr) {
        o = Object::make_hash();
        ctx.db.set_keep_ttl(ctx.argv[1], o);
    }
    long long cur = 0;
    if (const Sds* v = o->hash().find(Sds(ctx.argv[2]))) {
        const auto parsed = string2ll(v->view());
        if (!parsed.has_value()) {
            ctx.reply_error("ERR hash value is not an integer");
            return;
        }
        cur = *parsed;
    }
    if ((*delta > 0 && cur > LLONG_MAX - *delta) ||
        (*delta < 0 && cur < LLONG_MIN - *delta)) {
        ctx.reply_error("ERR increment or decrement would overflow");
        return;
    }
    const long long next = cur + *delta;
    o->hash().set(Sds(ctx.argv[2]), Sds(ll2string(next)));
    ctx.db.mark_dirty();
    ctx.dirty = true;
    ctx.reply_integer(next);
}

/// HSTRLEN key field.
void cmd_hstrlen(CommandContext& ctx) {
    bool type_err = false;
    ObjectPtr o = ctx.lookup_typed(ctx.argv[1], ObjType::kHash, &type_err);
    if (type_err) return;
    if (o == nullptr) {
        ctx.reply_integer(0);
        return;
    }
    const Sds* v = o->hash().find(Sds(ctx.argv[2]));
    ctx.reply_integer(v == nullptr ? 0 : static_cast<long long>(v->size()));
}

} // namespace

void register_hash_commands(CommandTable& t) {
    t.add({"HSET", -4, kCmdWrite | kCmdFast, cmd_hset});
    t.add({"HSETNX", 4, kCmdWrite | kCmdFast, cmd_hsetnx});
    t.add({"HGET", 3, kCmdReadOnly | kCmdFast, cmd_hget});
    t.add({"HMGET", -3, kCmdReadOnly | kCmdFast, cmd_hmget});
    t.add({"HDEL", -3, kCmdWrite | kCmdFast, cmd_hdel});
    t.add({"HLEN", 2, kCmdReadOnly | kCmdFast, cmd_hlen});
    t.add({"HEXISTS", 3, kCmdReadOnly | kCmdFast, cmd_hexists});
    t.add({"HGETALL", 2, kCmdReadOnly, cmd_hgetall});
    t.add({"HKEYS", 2, kCmdReadOnly, cmd_hkeys});
    t.add({"HVALS", 2, kCmdReadOnly, cmd_hvals});
    t.add({"HINCRBY", 4, kCmdWrite | kCmdFast, cmd_hincrby});
    t.add({"HSTRLEN", 3, kCmdReadOnly | kCmdFast, cmd_hstrlen});
}

} // namespace skv::kv
