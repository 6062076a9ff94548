#include <algorithm>

#include "kv/command.hpp"
#include "kv/sds.hpp"

namespace skv::kv {

namespace {

/// Shared option parsing for SCAN and HSCAN:
/// [MATCH pattern] [COUNT n].
struct ScanOptions {
    std::string pattern;
    bool has_pattern = false;
    long long count = 10;
    bool bad = false;
};

ScanOptions parse_scan_options(CommandContext& ctx, std::size_t first) {
    ScanOptions o;
    for (std::size_t i = first; i < ctx.argv.size(); ++i) {
        const Sds a(ctx.argv[i]);
        if (a.iequals("MATCH") && i + 1 < ctx.argv.size()) {
            o.pattern = ctx.argv[i + 1];
            o.has_pattern = true;
            ++i;
        } else if (a.iequals("COUNT") && i + 1 < ctx.argv.size()) {
            const auto n = string2ll(ctx.argv[i + 1]);
            if (!n.has_value() || *n <= 0) {
                ctx.reply_error("ERR syntax error");
                o.bad = true;
                return o;
            }
            o.count = *n;
            ++i;
        } else {
            ctx.reply_error("ERR syntax error");
            o.bad = true;
            return o;
        }
    }
    return o;
}

bool matches(const ScanOptions& o, std::string_view s) {
    return !o.has_pattern || glob_match(o.pattern, s);
}

void reply_scan(CommandContext& ctx, std::uint64_t cursor,
                const std::vector<std::string>& items) {
    ctx.reply += resp::array_header(2);
    ctx.reply_bulk(ll2string(static_cast<long long>(cursor)));
    ctx.reply += resp::array_header(items.size());
    for (const auto& it : items) ctx.reply_bulk(it);
}

/// SCAN cursor [MATCH pattern] [COUNT n] — incremental keyspace iteration
/// with the usual guarantee: keys present for the whole scan are returned
/// at least once, and the cursor is stable across rehashes.
void cmd_scan(CommandContext& ctx) {
    const auto cursor = string2ll(ctx.argv[1]);
    if (!cursor.has_value() || *cursor < 0) {
        ctx.reply_error("ERR invalid cursor");
        return;
    }
    const ScanOptions o = parse_scan_options(ctx, 2);
    if (o.bad) return;

    std::vector<std::string> out;
    auto c = static_cast<std::uint64_t>(*cursor);
    long long buckets = 0;
    do {
        c = ctx.db.keys().scan(c, [&](const Sds& k, const ObjectPtr&) {
            if (matches(o, k.view())) out.push_back(k.str());
        });
        ++buckets;
    } while (c != 0 && buckets < o.count);
    reply_scan(ctx, c, out);
}

void cmd_hscan(CommandContext& ctx) {
    const auto cursor = string2ll(ctx.argv[2]);
    if (!cursor.has_value() || *cursor < 0) {
        ctx.reply_error("ERR invalid cursor");
        return;
    }
    const ScanOptions o = parse_scan_options(ctx, 3);
    if (o.bad) return;
    bool type_err = false;
    ObjectPtr obj = ctx.lookup_typed(ctx.argv[1], ObjType::kHash, &type_err);
    if (type_err) return;
    std::vector<std::pair<std::string, std::string>> pairs;
    if (obj != nullptr) {
        obj->hash().for_each([&](const Sds& f, const Sds& v) {
            if (matches(o, f.view())) pairs.emplace_back(f.str(), v.str());
        });
        std::sort(pairs.begin(), pairs.end());
    }
    std::vector<std::string> out;
    out.reserve(pairs.size() * 2);
    for (auto& [f, v] : pairs) {
        out.push_back(std::move(f));
        out.push_back(std::move(v));
    }
    reply_scan(ctx, 0, out);
}

} // namespace

void register_scan_commands(CommandTable& t) {
    t.add({"SCAN", -2, kCmdReadOnly, cmd_scan});
    t.add({"HSCAN", -3, kCmdReadOnly, cmd_hscan});
}

} // namespace skv::kv
