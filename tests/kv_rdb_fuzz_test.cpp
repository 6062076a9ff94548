#include <gtest/gtest.h>

#include <algorithm>

#include "kv/rdb.hpp"
#include "sim/rng.hpp"

namespace skv::kv::rdb {
namespace {

/// Robustness sweep for the snapshot loader: an RDB image arrives from
/// disk on recovery and from the master during a full resync, so load()
/// must survive arbitrary bytes. Each case saves a random keyspace,
/// mutates the body, re-stamps the CRC-64 so the mutation reaches the
/// record parser, then checks that a failed load leaves the database
/// empty and that a successful one round-trips through save -> load.

class RdbFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

constexpr std::size_t kMagicLen = 8;

Database make_db() {
    return Database([] { return std::int64_t{1000}; });
}

std::string random_bytes(sim::Rng& rng, std::size_t max_len) {
    std::string s(rng.next_below(max_len + 1), '\0');
    for (auto& c : s) c = static_cast<char>(rng.next_u64());
    return s;
}

/// A keyspace of raw strings, int strings and lists, ~1 in 3 keys
/// with an expiry (some already past). Values up to 100 bytes exercise both the
/// 6-bit and the 14-bit length prefixes.
std::string random_snapshot(sim::Rng& rng) {
    Database db = make_db();
    const std::size_t keys = 1 + rng.next_below(10);
    for (std::size_t i = 0; i < keys; ++i) {
        const std::string key = "k" + std::to_string(rng.next_below(16));
        switch (rng.next_below(3)) {
        case 0:
            db.set(key, Object::make_string(random_bytes(rng, 100)));
            break;
        case 1:
            db.set(key, Object::make_string_ll(
                            static_cast<long long>(rng.next_u64())));
            break;
        default: {
            auto lst = Object::make_list();
            const std::size_t n = rng.next_below(5);
            for (std::size_t j = 0; j < n; ++j) {
                lst->list().push_back(Sds(random_bytes(rng, 20)));
            }
            db.set(key, lst);
            break;
        }
        }
        if (rng.next_below(3) == 0) db.set_expire(key, rng.next_range(-5, 5000));
    }
    return save(db);
}

/// Overwrite `body` at `pos` with a length prefix of a random form,
/// including the invalid 0b11 form and 64-bit lengths past the input.
void rewrite_length(std::string& body, std::size_t pos, sim::Rng& rng) {
    std::string prefix;
    switch (rng.next_below(4)) {
    case 0: prefix.push_back(static_cast<char>(rng.next_below(64))); break;
    case 1:
        prefix.push_back(static_cast<char>(0x40 | rng.next_below(64)));
        prefix.push_back(static_cast<char>(rng.next_u64()));
        break;
    case 2: {
        prefix.push_back(static_cast<char>(0x80));
        const std::uint64_t len =
            rng.next_bool(0.5) ? rng.next_below(200) : rng.next_u64();
        for (int i = 0; i < 8; ++i) prefix.push_back(static_cast<char>(len >> (i * 8)));
        break;
    }
    default:
        prefix.push_back(static_cast<char>(0xC0 | rng.next_below(64)));
        break;
    }
    body.replace(pos, std::min(prefix.size(), body.size() - pos), prefix);
}

/// Apply 1-3 mutations past the magic: byte flips, inserts, deletes,
/// length-prefix rewrites and opcode swaps.
void mutate(std::string& body, sim::Rng& rng) {
    const int n = 1 + static_cast<int>(rng.next_below(3));
    for (int m = 0; m < n && body.size() > kMagicLen; ++m) {
        const std::size_t pos = kMagicLen + rng.next_below(body.size() - kMagicLen);
        switch (rng.next_below(5)) {
        case 0:
            body[pos] = static_cast<char>(body[pos] ^ (1 << rng.next_below(8)));
            break;
        case 1:
            body.insert(pos, random_bytes(rng, 4));
            break;
        case 2:
            body.erase(pos, 1 + rng.next_below(4));
            break;
        case 3:
            rewrite_length(body, pos, rng);
            break;
        default: {
            // Record opcodes, the removed set/hash/zset ones included.
            const char ops[] = {'\x00', '\x01', '\x02', '\x03', '\x04',
                                '\xFD', '\xFF'};
            body[pos] = ops[rng.next_below(sizeof(ops))];
            break;
        }
        }
    }
}

std::string seal(std::string body) {
    const std::uint64_t crc = crc64(0, body);
    for (int i = 0; i < 8; ++i) body.push_back(static_cast<char>(crc >> (i * 8)));
    return body;
}

TEST_P(RdbFuzzTest, MutatedSnapshotsLoadCleanlyOrNotAtAll) {
    sim::Rng rng(GetParam());
    int loaded = 0;
    int rejected = 0;
    for (int round = 0; round < 3000; ++round) {
        const std::string snapshot = random_snapshot(rng);
        std::string body = snapshot.substr(0, snapshot.size() - 8);
        mutate(body, rng);
        const std::string bytes = seal(body);

        Database db = make_db();
        db.set("leftover", Object::make_string("x"));
        db.set_expire("leftover", 9000);
        if (load(bytes, db) != LoadStatus::kOk) {
            ++rejected;
            ASSERT_EQ(db.size(), 0u) << "round " << round;
            ASSERT_EQ(db.expires_size(), 0u) << "round " << round;
            continue;
        }
        ++loaded;
        const std::string again = save(db);
        Database copy = make_db();
        ASSERT_EQ(load(again, copy), LoadStatus::kOk) << "round " << round;
        ASSERT_TRUE(db.equals(copy)) << "round " << round;
        ASSERT_TRUE(copy.equals(db)) << "round " << round;
        ASSERT_EQ(save(copy), again) << "round " << round;
    }
    // Both outcomes occur, so the mutations reach the record parser.
    EXPECT_GT(loaded, 100);
    EXPECT_GT(rejected, 100);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RdbFuzzTest,
                         ::testing::Values(1u, 2u, 3u, 4u));

} // namespace
} // namespace skv::kv::rdb
