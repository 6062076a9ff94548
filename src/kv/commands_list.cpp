#include "kv/command.hpp"

namespace skv::kv {

namespace {

/// Normalize a possibly-negative index against `len`; clamps to
/// [-1, len] so callers can detect emptiness.
std::ptrdiff_t normalize_index(long long idx, std::size_t len) {
    auto i = static_cast<std::ptrdiff_t>(idx);
    if (i < 0) i += static_cast<std::ptrdiff_t>(len);
    return i;
}

void generic_push(CommandContext& ctx, bool left, bool require_existing) {
    bool type_err = false;
    ObjectPtr o = ctx.lookup_typed(ctx.argv[1], ObjType::kList, &type_err);
    if (type_err) return;
    if (o == nullptr) {
        if (require_existing) {
            ctx.reply_integer(0);
            return;
        }
        o = Object::make_list();
        ctx.db.set_keep_ttl(ctx.argv[1], o);
    } else {
        ctx.db.mark_dirty();
    }
    for (std::size_t i = 2; i < ctx.argv.size(); ++i) {
        if (left) {
            o->list().push_front(Sds(ctx.argv[i]));
        } else {
            o->list().push_back(Sds(ctx.argv[i]));
        }
    }
    ctx.dirty = true;
    ctx.reply_integer(static_cast<long long>(o->list().size()));
}

void generic_pop(CommandContext& ctx, bool left) {
    bool type_err = false;
    ObjectPtr o = ctx.lookup_typed(ctx.argv[1], ObjType::kList, &type_err);
    if (type_err) return;
    if (o == nullptr || o->list().empty()) {
        ctx.reply_null();
        return;
    }
    Sds out;
    if (left) {
        out = std::move(o->list().front());
        o->list().pop_front();
    } else {
        out = std::move(o->list().back());
        o->list().pop_back();
    }
    if (o->list().empty()) ctx.db.remove(ctx.argv[1]);
    ctx.db.mark_dirty();
    ctx.dirty = true;
    ctx.reply_bulk(out.view());
}

void cmd_llen(CommandContext& ctx) {
    bool type_err = false;
    ObjectPtr o = ctx.lookup_typed(ctx.argv[1], ObjType::kList, &type_err);
    if (type_err) return;
    ctx.reply_integer(o == nullptr ? 0 : static_cast<long long>(o->list().size()));
}

void cmd_lrange(CommandContext& ctx) {
    const auto start = string2ll(ctx.argv[2]);
    const auto stop = string2ll(ctx.argv[3]);
    if (!start.has_value() || !stop.has_value()) {
        ctx.reply_error("ERR value is not an integer or out of range");
        return;
    }
    bool type_err = false;
    ObjectPtr o = ctx.lookup_typed(ctx.argv[1], ObjType::kList, &type_err);
    if (type_err) return;
    if (o == nullptr) {
        ctx.reply += resp::array_header(0);
        return;
    }
    const auto len = o->list().size();
    std::ptrdiff_t s = normalize_index(*start, len);
    std::ptrdiff_t e = normalize_index(*stop, len);
    if (s < 0) s = 0;
    if (e >= static_cast<std::ptrdiff_t>(len)) e = static_cast<std::ptrdiff_t>(len) - 1;
    if (s > e || s >= static_cast<std::ptrdiff_t>(len)) {
        ctx.reply += resp::array_header(0);
        return;
    }
    ctx.reply += resp::array_header(static_cast<std::size_t>(e - s + 1));
    for (std::ptrdiff_t i = s; i <= e; ++i) {
        ctx.reply_bulk(o->list()[static_cast<std::size_t>(i)].view());
    }
}

void cmd_lindex(CommandContext& ctx) {
    const auto idx = string2ll(ctx.argv[2]);
    if (!idx.has_value()) {
        ctx.reply_error("ERR value is not an integer or out of range");
        return;
    }
    bool type_err = false;
    ObjectPtr o = ctx.lookup_typed(ctx.argv[1], ObjType::kList, &type_err);
    if (type_err) return;
    if (o == nullptr) {
        ctx.reply_null();
        return;
    }
    const std::ptrdiff_t i = normalize_index(*idx, o->list().size());
    if (i < 0 || i >= static_cast<std::ptrdiff_t>(o->list().size())) {
        ctx.reply_null();
        return;
    }
    ctx.reply_bulk(o->list()[static_cast<std::size_t>(i)].view());
}

void cmd_lset(CommandContext& ctx) {
    const auto idx = string2ll(ctx.argv[2]);
    if (!idx.has_value()) {
        ctx.reply_error("ERR value is not an integer or out of range");
        return;
    }
    bool type_err = false;
    ObjectPtr o = ctx.lookup_typed(ctx.argv[1], ObjType::kList, &type_err);
    if (type_err) return;
    if (o == nullptr) {
        ctx.reply_error("ERR no such key");
        return;
    }
    const std::ptrdiff_t i = normalize_index(*idx, o->list().size());
    if (i < 0 || i >= static_cast<std::ptrdiff_t>(o->list().size())) {
        ctx.reply_error("ERR index out of range");
        return;
    }
    o->list()[static_cast<std::size_t>(i)] = Sds(ctx.argv[3]);
    ctx.db.mark_dirty();
    ctx.dirty = true;
    ctx.reply_ok();
}

void cmd_lrem(CommandContext& ctx) {
    const auto count = string2ll(ctx.argv[2]);
    if (!count.has_value()) {
        ctx.reply_error("ERR value is not an integer or out of range");
        return;
    }
    bool type_err = false;
    ObjectPtr o = ctx.lookup_typed(ctx.argv[1], ObjType::kList, &type_err);
    if (type_err) return;
    if (o == nullptr) {
        ctx.reply_integer(0);
        return;
    }
    auto& lst = o->list();
    const Sds target(ctx.argv[3]);
    long long removed = 0;
    const long long limit = *count == 0 ? LLONG_MAX : (*count > 0 ? *count : -*count);
    if (*count >= 0) {
        for (auto it = lst.begin(); it != lst.end() && removed < limit;) {
            if (*it == target) {
                it = lst.erase(it);
                ++removed;
            } else {
                ++it;
            }
        }
    } else {
        for (auto it = lst.rbegin(); it != lst.rend() && removed < limit;) {
            if (*it == target) {
                it = std::make_reverse_iterator(lst.erase(std::next(it).base()));
                ++removed;
            } else {
                ++it;
            }
        }
    }
    if (lst.empty()) ctx.db.remove(ctx.argv[1]);
    if (removed > 0) {
        ctx.db.mark_dirty();
        ctx.dirty = true;
    }
    ctx.reply_integer(removed);
}

void cmd_ltrim(CommandContext& ctx) {
    const auto start = string2ll(ctx.argv[2]);
    const auto stop = string2ll(ctx.argv[3]);
    if (!start.has_value() || !stop.has_value()) {
        ctx.reply_error("ERR value is not an integer or out of range");
        return;
    }
    bool type_err = false;
    ObjectPtr o = ctx.lookup_typed(ctx.argv[1], ObjType::kList, &type_err);
    if (type_err) return;
    if (o == nullptr) {
        ctx.reply_ok();
        return;
    }
    auto& lst = o->list();
    const auto len = lst.size();
    std::ptrdiff_t s = normalize_index(*start, len);
    std::ptrdiff_t e = normalize_index(*stop, len);
    if (s < 0) s = 0;
    if (e >= static_cast<std::ptrdiff_t>(len)) e = static_cast<std::ptrdiff_t>(len) - 1;
    if (s > e) {
        ctx.db.remove(ctx.argv[1]);
    } else {
        lst.erase(lst.begin() + e + 1, lst.end());
        lst.erase(lst.begin(), lst.begin() + s);
        if (lst.empty()) ctx.db.remove(ctx.argv[1]);
    }
    ctx.db.mark_dirty();
    ctx.dirty = true;
    ctx.reply_ok();
}

void cmd_rpoplpush(CommandContext& ctx) {
    bool type_err = false;
    ObjectPtr src = ctx.lookup_typed(ctx.argv[1], ObjType::kList, &type_err);
    if (type_err) return;
    if (src == nullptr || src->list().empty()) {
        ctx.reply_null();
        return;
    }
    ObjectPtr dst = ctx.lookup_typed(ctx.argv[2], ObjType::kList, &type_err);
    if (type_err) return;
    Sds moved = std::move(src->list().back());
    src->list().pop_back();
    if (dst == nullptr) {
        dst = Object::make_list();
        ctx.db.set_keep_ttl(ctx.argv[2], dst);
    }
    dst->list().push_front(moved);
    if (src->list().empty() && ctx.argv[1] != ctx.argv[2]) {
        ctx.db.remove(ctx.argv[1]);
    }
    ctx.db.mark_dirty();
    ctx.dirty = true;
    ctx.reply_bulk(moved.view());
}

/// LINSERT key BEFORE|AFTER pivot element.
void cmd_linsert(CommandContext& ctx) {
    const Sds where(ctx.argv[2]);
    const bool before = where.iequals("BEFORE");
    if (!before && !where.iequals("AFTER")) {
        ctx.reply_error("ERR syntax error");
        return;
    }
    bool type_err = false;
    ObjectPtr o = ctx.lookup_typed(ctx.argv[1], ObjType::kList, &type_err);
    if (type_err) return;
    if (o == nullptr) {
        ctx.reply_integer(0);
        return;
    }
    auto& lst = o->list();
    const Sds pivot(ctx.argv[3]);
    for (auto it = lst.begin(); it != lst.end(); ++it) {
        if (*it == pivot) {
            lst.insert(before ? it : std::next(it), Sds(ctx.argv[4]));
            ctx.db.mark_dirty();
            ctx.dirty = true;
            ctx.reply_integer(static_cast<long long>(lst.size()));
            return;
        }
    }
    ctx.reply_integer(-1); // pivot not found
}

} // namespace

void register_list_commands(CommandTable& t) {
    t.add({"LPUSH", -3, kCmdWrite | kCmdFast,
           [](CommandContext& ctx) { generic_push(ctx, true, false); }});
    t.add({"RPUSH", -3, kCmdWrite | kCmdFast,
           [](CommandContext& ctx) { generic_push(ctx, false, false); }});
    t.add({"LPUSHX", -3, kCmdWrite | kCmdFast,
           [](CommandContext& ctx) { generic_push(ctx, true, true); }});
    t.add({"RPUSHX", -3, kCmdWrite | kCmdFast,
           [](CommandContext& ctx) { generic_push(ctx, false, true); }});
    t.add({"LPOP", 2, kCmdWrite | kCmdFast,
           [](CommandContext& ctx) { generic_pop(ctx, true); }});
    t.add({"RPOP", 2, kCmdWrite | kCmdFast,
           [](CommandContext& ctx) { generic_pop(ctx, false); }});
    t.add({"LLEN", 2, kCmdReadOnly | kCmdFast, cmd_llen});
    t.add({"LRANGE", 4, kCmdReadOnly, cmd_lrange});
    t.add({"LINDEX", 3, kCmdReadOnly, cmd_lindex});
    t.add({"LSET", 4, kCmdWrite, cmd_lset});
    t.add({"LREM", 4, kCmdWrite, cmd_lrem});
    t.add({"LTRIM", 4, kCmdWrite, cmd_ltrim});
    t.add({"RPOPLPUSH", 3, kCmdWrite, cmd_rpoplpush});
    t.add({"LINSERT", 5, kCmdWrite, cmd_linsert});
}

} // namespace skv::kv
