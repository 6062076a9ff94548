#include <gtest/gtest.h>

#include <set>
#include <string>
#include <unordered_map>

#include "kv/dict.hpp"

namespace skv::kv {
namespace {

Sds key(int i) { return Sds("key:" + std::to_string(i)); }

TEST(Dict, InsertFind) {
    Dict<int> d;
    EXPECT_TRUE(d.insert(key(1), 10));
    EXPECT_TRUE(d.insert(key(2), 20));
    EXPECT_FALSE(d.insert(key(1), 99)); // duplicate
    ASSERT_NE(d.find(key(1)), nullptr);
    EXPECT_EQ(*d.find(key(1)), 10);
    EXPECT_EQ(d.find(key(3)), nullptr);
    EXPECT_EQ(d.size(), 2u);
}

TEST(Dict, SetOverwrites) {
    Dict<int> d;
    EXPECT_TRUE(d.set(key(1), 1));
    EXPECT_FALSE(d.set(key(1), 2));
    EXPECT_EQ(*d.find(key(1)), 2);
    EXPECT_EQ(d.size(), 1u);
}

TEST(Dict, Erase) {
    Dict<int> d;
    d.insert(key(1), 1);
    EXPECT_TRUE(d.erase(key(1)));
    EXPECT_FALSE(d.erase(key(1)));
    EXPECT_EQ(d.size(), 0u);
    EXPECT_EQ(d.find(key(1)), nullptr);
}

TEST(Dict, GrowsAndRehashesIncrementally) {
    Dict<int> d;
    // Enough inserts to trigger several expansions.
    for (int i = 0; i < 5000; ++i) d.insert(key(i), i);
    EXPECT_EQ(d.size(), 5000u);
    for (int i = 0; i < 5000; ++i) {
        ASSERT_NE(d.find(key(i)), nullptr) << i;
        ASSERT_EQ(*d.find(key(i)), i);
    }
}

TEST(Dict, RehashStepCompletesMigration) {
    Dict<int> d;
    for (int i = 0; i < 100; ++i) d.insert(key(i), i);
    // Force the rehash to finish without further mutating operations.
    int guard = 0;
    while (d.rehashing() && guard++ < 10'000) d.rehash_step(1);
    EXPECT_FALSE(d.rehashing());
    for (int i = 0; i < 100; ++i) ASSERT_NE(d.find(key(i)), nullptr);
}

TEST(Dict, ShrinksWhenSparse) {
    Dict<int> d;
    for (int i = 0; i < 4096; ++i) d.insert(key(i), i);
    while (d.rehashing()) d.rehash_step(64);
    const auto grown = d.bucket_count();
    for (int i = 0; i < 4090; ++i) d.erase(key(i));
    while (d.rehashing()) d.rehash_step(64);
    EXPECT_LT(d.bucket_count(), grown);
    for (int i = 4090; i < 4096; ++i) ASSERT_NE(d.find(key(i)), nullptr);
}

TEST(Dict, ForEachVisitsAll) {
    Dict<int> d;
    for (int i = 0; i < 500; ++i) d.insert(key(i), i);
    std::set<std::string> seen;
    int sum = 0;
    d.for_each([&](const Sds& k, int& v) {
        seen.insert(k.str());
        sum += v;
    });
    EXPECT_EQ(seen.size(), 500u);
    EXPECT_EQ(sum, 499 * 500 / 2);
}

TEST(Dict, ForEachDuringRehashVisitsBothTables) {
    Dict<int> d;
    for (int i = 0; i < 64; ++i) d.insert(key(i), i);
    // d is likely mid-rehash now; for_each must still see everything.
    std::size_t n = 0;
    d.for_each([&](const Sds&, int&) { ++n; });
    EXPECT_EQ(n, d.size());
}

TEST(Dict, RandomEntryCoversKeys) {
    Dict<int> d;
    for (int i = 0; i < 16; ++i) d.insert(key(i), i);
    sim::Rng rng(3);
    std::set<std::string> seen;
    for (int i = 0; i < 2000; ++i) {
        auto [k, v] = d.random_entry(rng);
        ASSERT_NE(k, nullptr);
        seen.insert(k->str());
    }
    EXPECT_EQ(seen.size(), 16u); // every key sampled eventually
}

TEST(Dict, RandomEntryEmpty) {
    Dict<int> d;
    sim::Rng rng(4);
    auto [k, v] = d.random_entry(rng);
    EXPECT_EQ(k, nullptr);
    EXPECT_EQ(v, nullptr);
}

TEST(Dict, ClearEmpties) {
    Dict<int> d;
    for (int i = 0; i < 100; ++i) d.insert(key(i), i);
    d.clear();
    EXPECT_EQ(d.size(), 0u);
    EXPECT_FALSE(d.rehashing());
    EXPECT_TRUE(d.insert(key(1), 1));
}

TEST(DictHash, SpreadsKeys) {
    std::set<std::uint64_t> hashes;
    for (int i = 0; i < 1000; ++i) hashes.insert(dict_hash(key(i).view()));
    EXPECT_EQ(hashes.size(), 1000u); // no collisions in this tiny sample
}

TEST(DictHash, EmptyAndBinary) {
    EXPECT_NE(dict_hash(""), dict_hash(std::string_view("\0", 1)));
    EXPECT_NE(dict_hash("a"), dict_hash("b"));
}

/// Model check: drive the dict and a std::unordered_map with the same
/// random operations and compare after every step.
class DictModelTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DictModelTest, MatchesUnorderedMap) {
    sim::Rng rng(GetParam());
    Dict<int> d;
    std::unordered_map<std::string, int> model;
    for (int step = 0; step < 20'000; ++step) {
        const int k = static_cast<int>(rng.next_below(300));
        const int op = static_cast<int>(rng.next_below(4));
        switch (op) {
            case 0: { // insert
                const bool a = d.insert(key(k), step);
                const bool b = model.emplace(key(k).str(), step).second;
                ASSERT_EQ(a, b);
                break;
            }
            case 1: { // set
                d.set(key(k), step);
                model[key(k).str()] = step;
                break;
            }
            case 2: { // erase
                const bool a = d.erase(key(k));
                const bool b = model.erase(key(k).str()) > 0;
                ASSERT_EQ(a, b);
                break;
            }
            case 3: { // find
                int* a = d.find(key(k));
                auto it = model.find(key(k).str());
                ASSERT_EQ(a != nullptr, it != model.end());
                if (a != nullptr) {
                    ASSERT_EQ(*a, it->second);
                }
                break;
            }
        }
        ASSERT_EQ(d.size(), model.size());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DictModelTest,
                         ::testing::Values(1u, 17u, 23456u, 987654321u));

} // namespace
} // namespace skv::kv
