#include <gtest/gtest.h>

#include "kv/rdb.hpp"
#include "sim/rng.hpp"

namespace skv::kv::rdb {
namespace {

Database make_db() {
    return Database([] { return std::int64_t{1000}; });
}

void fill(Database& db) {
    db.set("str", Object::make_string("value"));
    db.set("num", Object::make_string("12345"));
    auto lst = Object::make_list();
    lst->list().push_back(Sds("a"));
    lst->list().push_back(Sds("b"));
    db.set("lst", lst);
    db.set_expire("str", 5000);
}

TEST(Rdb, RoundTripAllTypes) {
    Database src = make_db();
    fill(src);
    const std::string bytes = save(src);
    Database dst = make_db();
    ASSERT_EQ(load(bytes, dst), LoadStatus::kOk);
    EXPECT_TRUE(src.equals(dst));
    EXPECT_TRUE(dst.equals(src));
    EXPECT_EQ(*dst.expire_at("str"), 5000);
}

TEST(Rdb, EmptyDatabase) {
    Database src = make_db();
    const std::string bytes = save(src);
    Database dst = make_db();
    dst.set("leftover", Object::make_string("x"));
    ASSERT_EQ(load(bytes, dst), LoadStatus::kOk);
    EXPECT_EQ(dst.size(), 0u); // load replaces contents
}

TEST(Rdb, SaveIsDeterministic) {
    Database a = make_db();
    Database b = make_db();
    fill(a);
    fill(b);
    EXPECT_EQ(save(a), save(b));
}

TEST(Rdb, BadMagic) {
    Database dst = make_db();
    EXPECT_EQ(load("NOTANRDBFILE0123456789", dst), LoadStatus::kBadMagic);
}

TEST(Rdb, Truncated) {
    Database src = make_db();
    fill(src);
    const std::string bytes = save(src);
    Database dst = make_db();
    EXPECT_EQ(load(bytes.substr(0, 4), dst), LoadStatus::kTruncated);
    EXPECT_EQ(dst.size(), 0u);
}

TEST(Rdb, CorruptionDetectedByChecksum) {
    Database src = make_db();
    fill(src);
    std::string bytes = save(src);
    bytes[bytes.size() / 2] ^= 0x5A; // flip bits mid-payload
    Database dst = make_db();
    EXPECT_EQ(load(bytes, dst), LoadStatus::kBadChecksum);
    EXPECT_EQ(dst.size(), 0u); // half-loaded state not served
}

TEST(Rdb, TamperedChecksum) {
    Database src = make_db();
    fill(src);
    std::string bytes = save(src);
    bytes.back() = static_cast<char>(bytes.back() + 1);
    Database dst = make_db();
    EXPECT_EQ(load(bytes, dst), LoadStatus::kBadChecksum);
}

TEST(Rdb, LargeValuesRoundTrip) {
    Database src = make_db();
    src.set("big", Object::make_string(std::string(300'000, 'x')));
    const std::string bytes = save(src);
    Database dst = make_db();
    ASSERT_EQ(load(bytes, dst), LoadStatus::kOk);
    EXPECT_EQ(dst.lookup("big")->string_len(), 300'000u);
}

TEST(Rdb, ManyKeysRoundTrip) {
    Database src = make_db();
    for (int i = 0; i < 5000; ++i) {
        src.set("key:" + std::to_string(i),
                Object::make_string("val:" + std::to_string(i)));
    }
    const std::string bytes = save(src);
    Database dst = make_db();
    ASSERT_EQ(load(bytes, dst), LoadStatus::kOk);
    EXPECT_EQ(dst.size(), 5000u);
    EXPECT_TRUE(src.equals(dst));
}

TEST(Rdb, ExpiryMetadataRoundTripsBitIdentically) {
    // Cold recovery reloads snapshots verbatim; expiry timestamps — even
    // zero, negative, or already-past ones — must survive exactly, or a
    // restarted node resurrects dead keys as immortal ones.
    Database src = make_db(); // clock pinned at 1000ms
    src.set("future", Object::make_string("a"));
    ASSERT_TRUE(src.set_expire("future", 5000));
    src.set("past", Object::make_string("b"));
    ASSERT_TRUE(src.set_expire("past", 500));
    src.set("zero", Object::make_string("c"));
    ASSERT_TRUE(src.set_expire("zero", 0));
    src.set("negative", Object::make_string("d"));
    ASSERT_TRUE(src.set_expire("negative", -7));

    const std::string bytes = save(src);
    Database dst = make_db();
    ASSERT_EQ(load(bytes, dst), LoadStatus::kOk);
    EXPECT_EQ(*dst.expire_at("future"), 5000);
    EXPECT_EQ(*dst.expire_at("past"), 500);
    EXPECT_EQ(*dst.expire_at("zero"), 0);
    EXPECT_EQ(*dst.expire_at("negative"), -7);
    // Re-serializing the loaded copy reproduces the snapshot byte for
    // byte — the round trip loses nothing.
    EXPECT_EQ(save(dst), bytes);
}

TEST(Rdb, RandomizedRoundTripSeeded) {
    for (const std::uint64_t seed : {11ull, 22ull, 33ull}) {
        sim::Rng rng(seed);
        auto rand_str = [&rng]() {
            const std::size_t len = 1 + rng.next_below(24);
            std::string s;
            for (std::size_t i = 0; i < len; ++i) {
                s.push_back(static_cast<char>('a' + rng.next_below(26)));
            }
            return s;
        };
        Database src = make_db();
        for (int i = 0; i < 200; ++i) {
            const std::string key =
                "rk:" + std::to_string(rng.next_below(400));
            switch (rng.next_below(3)) {
            case 0:
                src.set(key, Object::make_string(rand_str()));
                break;
            case 1: {
                auto lst = Object::make_list();
                const std::size_t n = 1 + rng.next_below(5);
                for (std::size_t j = 0; j < n; ++j) {
                    lst->list().push_back(Sds(rand_str()));
                }
                src.set(key, lst);
                break;
            }
            default:
                src.set(key, Object::make_string_ll(rng.next_range(-1000, 1000)));
                break;
            }
            // ~1 in 3 keys carries an expiry, sometimes already past.
            if (rng.next_below(3) == 0) {
                src.set_expire(key, rng.next_range(-5, 5000));
            }
        }
        const std::string bytes = save(src);
        Database dst = make_db();
        ASSERT_EQ(load(bytes, dst), LoadStatus::kOk) << "seed " << seed;
        EXPECT_TRUE(src.equals(dst)) << "seed " << seed;
        EXPECT_TRUE(dst.equals(src)) << "seed " << seed;
        EXPECT_EQ(save(dst), bytes) << "seed " << seed;
    }
}

/// Append the trailing CRC-64 a snapshot body needs to pass the checksum.
std::string seal(std::string body) {
    const std::uint64_t crc = crc64(0, body);
    for (int i = 0; i < 8; ++i) body.push_back(static_cast<char>(crc >> (i * 8)));
    return body;
}

TEST(Rdb, StringListAndExpireRecordBytes) {
    Database src = make_db();
    auto lst = Object::make_list();
    lst->list().push_back(Sds("x"));
    src.set("a", lst);
    src.set("b", Object::make_string("v"));
    src.set_expire("b", 5000);
    // Opcodes: list 0x01, expire-ms 0xFD (i64 little endian), string 0x00,
    // EOF 0xFF; lengths use the 6-bit prefix form.
    const std::string body = std::string("SKVRDB01") +
                             std::string("\x01\x01" "a" "\x01\x01" "x", 6) +
                             std::string("\xFD\x88\x13\0\0\0\0\0\0", 9) +
                             std::string("\x00\x01" "b" "\x01" "v", 5) + "\xFF";
    EXPECT_EQ(save(src), seal(body));
}

TEST(Rdb, RemovedTypeOpcodesLoadAsCorrupt) {
    // Opcodes 2, 3 and 4 carried sets, hashes and sorted sets.
    for (const char op : {'\x02', '\x03', '\x04'}) {
        const std::string body = std::string("SKVRDB01") + op +
                                 std::string("\x01" "k" "\x00", 3) + "\xFF";
        Database dst = make_db();
        dst.set("leftover", Object::make_string("x"));
        EXPECT_EQ(load(seal(body), dst), LoadStatus::kCorrupt) << int{op};
        EXPECT_EQ(dst.size(), 0u);
    }
}

TEST(Crc64, KnownProperties) {
    EXPECT_EQ(crc64(0, ""), 0u);
    const auto a = crc64(0, "hello");
    const auto b = crc64(0, "hello");
    const auto c = crc64(0, "hellp");
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    // Incremental == one-shot.
    const auto inc = crc64(crc64(0, "he"), "llo");
    EXPECT_EQ(inc, a);
}

TEST(LoadStatusNames, AllDistinct) {
    EXPECT_STREQ(to_string(LoadStatus::kOk), "ok");
    EXPECT_STREQ(to_string(LoadStatus::kBadMagic), "bad-magic");
    EXPECT_STREQ(to_string(LoadStatus::kBadChecksum), "bad-checksum");
}

} // namespace
} // namespace skv::kv::rdb
