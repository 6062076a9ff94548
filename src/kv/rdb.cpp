#include "kv/rdb.hpp"

#include <algorithm>
#include <array>

#include "sim/check.hpp"

namespace skv::kv::rdb {

namespace {

constexpr std::string_view kMagic = "SKVRDB01";

// Record opcodes. 2, 3 and 4 are retired (set, hash and sorted-set
// records): a record carrying one loads as kCorrupt.
constexpr std::uint8_t kOpString = 0;
constexpr std::uint8_t kOpList = 1;
constexpr std::uint8_t kOpExpireMs = 0xFD;
constexpr std::uint8_t kOpEof = 0xFF;

// --- length encoding (Redis-style prefix) -----------------------------------
// 00xxxxxx            : 6-bit length
// 01xxxxxx xxxxxxxx   : 14-bit length
// 10000000 + 8 bytes  : 64-bit length (little endian)

void put_len(std::string& out, std::uint64_t len) {
    if (len < (1u << 6)) {
        out.push_back(static_cast<char>(len));
    } else if (len < (1u << 14)) {
        out.push_back(static_cast<char>(0x40 | (len >> 8)));
        out.push_back(static_cast<char>(len & 0xFF));
    } else {
        out.push_back(static_cast<char>(0x80));
        for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(len >> (i * 8)));
    }
}

bool get_len(std::string_view in, std::size_t* p, std::uint64_t* len) {
    if (*p >= in.size()) return false;
    const auto b0 = static_cast<std::uint8_t>(in[*p]);
    const int kind = b0 >> 6;
    if (kind == 0) {
        *len = b0 & 0x3F;
        *p += 1;
        return true;
    }
    if (kind == 1) {
        if (*p + 1 >= in.size()) return false;
        *len = (static_cast<std::uint64_t>(b0 & 0x3F) << 8) |
               static_cast<std::uint8_t>(in[*p + 1]);
        *p += 2;
        return true;
    }
    if (b0 == 0x80) {
        if (*p + 8 >= in.size()) return false;
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i) {
            v |= static_cast<std::uint64_t>(
                     static_cast<std::uint8_t>(in[*p + 1 + static_cast<std::size_t>(i)]))
                 << (i * 8);
        }
        *len = v;
        *p += 9;
        return true;
    }
    return false;
}

void put_string(std::string& out, std::string_view s) {
    put_len(out, s.size());
    out += s;
}

bool get_string(std::string_view in, std::size_t* p, std::string* s) {
    std::uint64_t len = 0;
    if (!get_len(in, p, &len)) return false;
    if (in.size() - *p < len) return false;
    s->assign(in.substr(*p, len));
    *p += len;
    return true;
}

void put_i64(std::string& out, std::int64_t v) {
    for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (i * 8)));
}

bool get_i64(std::string_view in, std::size_t* p, std::int64_t* v) {
    if (in.size() - *p < 8) return false;
    std::uint64_t u = 0;
    for (int i = 0; i < 8; ++i) {
        u |= static_cast<std::uint64_t>(
                 static_cast<std::uint8_t>(in[*p + static_cast<std::size_t>(i)]))
             << (i * 8);
    }
    *v = static_cast<std::int64_t>(u);
    *p += 8;
    return true;
}

std::uint8_t type_opcode(const Object& o) {
    switch (o.type()) {
        case ObjType::kString: return kOpString;
        case ObjType::kList: return kOpList;
    }
    return kOpString;
}

void save_payload(std::string& out, const Object& o) {
    switch (o.type()) {
        case ObjType::kString:
            put_string(out, o.string_value());
            break;
        case ObjType::kList: {
            put_len(out, o.list().size());
            for (const auto& e : o.list()) put_string(out, e.view());
            break;
        }
    }
}

ObjectPtr load_object(std::string_view in, std::size_t* p, std::uint8_t op,
                      bool* ok) {
    *ok = false;
    switch (op) {
        case kOpString: {
            std::string s;
            if (!get_string(in, p, &s)) return nullptr;
            *ok = true;
            return Object::make_string(s);
        }
        case kOpList: {
            std::uint64_t n = 0;
            if (!get_len(in, p, &n)) return nullptr;
            auto o = Object::make_list();
            for (std::uint64_t i = 0; i < n; ++i) {
                std::string s;
                if (!get_string(in, p, &s)) return nullptr;
                o->list().push_back(Sds(s));
            }
            *ok = true;
            return o;
        }
        default:
            return nullptr;
    }
}

} // namespace

std::uint64_t crc64(std::uint64_t crc, std::string_view data) {
    // Jones polynomial 0xad93d23594c935a9, reflected, as in Redis crc64.
    static const std::array<std::uint64_t, 256> table = [] {
        std::array<std::uint64_t, 256> t{};
        constexpr std::uint64_t poly = 0x95AC9329AC4BC9B5ULL; // reflected
        for (std::uint64_t i = 0; i < 256; ++i) {
            std::uint64_t c = i;
            for (int k = 0; k < 8; ++k) {
                c = (c & 1) ? poly ^ (c >> 1) : c >> 1;
            }
            t[static_cast<std::size_t>(i)] = c;
        }
        return t;
    }();
    for (const char ch : data) {
        crc = table[(crc ^ static_cast<std::uint8_t>(ch)) & 0xFF] ^ (crc >> 8);
    }
    return crc;
}

const char* to_string(LoadStatus s) {
    switch (s) {
        case LoadStatus::kOk: return "ok";
        case LoadStatus::kBadMagic: return "bad-magic";
        case LoadStatus::kTruncated: return "truncated";
        case LoadStatus::kCorrupt: return "corrupt";
        case LoadStatus::kBadChecksum: return "bad-checksum";
    }
    return "?";
}

std::string save(const Database& db) {
    std::string out(kMagic);
    // Deterministic key order keeps snapshots byte-comparable across runs.
    std::vector<const Sds*> keys;
    keys.reserve(db.size());
    db.keys().for_each([&](const Sds& k, const ObjectPtr&) { keys.push_back(&k); });
    std::sort(keys.begin(), keys.end(),
              [](const Sds* a, const Sds* b) { return a->compare(*b) < 0; });
    for (const Sds* k : keys) {
        const ObjectPtr* o = db.keys().find(*k);
        SKV_DCHECK(o != nullptr);
        const auto expire = db.expire_at(k->view());
        if (expire.has_value()) {
            out.push_back(static_cast<char>(kOpExpireMs));
            put_i64(out, *expire);
        }
        out.push_back(static_cast<char>(type_opcode(**o)));
        put_string(out, k->view());
        save_payload(out, **o);
    }
    out.push_back(static_cast<char>(kOpEof));
    const std::uint64_t crc = crc64(0, out);
    put_i64(out, static_cast<std::int64_t>(crc));
    return out;
}

LoadStatus load(std::string_view bytes, Database& db) {
    db.clear();
    if (bytes.size() < kMagic.size() + 9) return LoadStatus::kTruncated;
    if (bytes.substr(0, kMagic.size()) != kMagic) return LoadStatus::kBadMagic;

    // Verify the checksum over everything before the trailing 8 bytes.
    const std::string_view body = bytes.substr(0, bytes.size() - 8);
    std::size_t tail = bytes.size() - 8;
    std::int64_t stored = 0;
    if (!get_i64(bytes, &tail, &stored)) return LoadStatus::kTruncated;
    if (crc64(0, body) != static_cast<std::uint64_t>(stored)) {
        return LoadStatus::kBadChecksum;
    }

    std::size_t p = kMagic.size();
    // Expiry is tracked with an explicit flag, not a sentinel value: an
    // already-expired key carries a timestamp in the past (possibly <= 0
    // relative to sim epoch), and a `>= 0` test would silently drop it,
    // resurrecting the key as immortal after a restart recovery.
    bool has_pending_expire = false;
    std::int64_t pending_expire = 0;
    while (p < body.size()) {
        const auto op = static_cast<std::uint8_t>(body[p++]);
        if (op == kOpEof) {
            return LoadStatus::kOk;
        }
        if (op == kOpExpireMs) {
            if (!get_i64(body, &p, &pending_expire)) {
                db.clear();
                return LoadStatus::kTruncated;
            }
            has_pending_expire = true;
            continue;
        }
        std::string key;
        if (!get_string(body, &p, &key)) {
            db.clear();
            return LoadStatus::kTruncated;
        }
        bool ok = false;
        ObjectPtr o = load_object(body, &p, op, &ok);
        if (!ok) {
            db.clear();
            return LoadStatus::kCorrupt;
        }
        db.set(key, std::move(o));
        if (has_pending_expire) {
            db.set_expire(key, pending_expire);
            has_pending_expire = false;
        }
    }
    db.clear();
    return LoadStatus::kTruncated; // no EOF opcode seen
}

} // namespace skv::kv::rdb
