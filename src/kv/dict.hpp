#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "kv/sds.hpp"
#include "sim/check.hpp"
#include "sim/rng.hpp"

namespace skv::kv {

/// 64-bit string hash (xor-fold multiply mix; stands in for Redis's
/// SipHash-1-2 — same interface, deterministic across runs).
std::uint64_t dict_hash(std::string_view key);

/// Redis-style hash table: two bucket arrays and incremental rehashing.
/// When the load factor exceeds 1, a second table of twice the size is
/// allocated and entries migrate one bucket per operation, bounding the
/// latency of any single command — the property that keeps the Host-KV
/// event loop responsive and that dict_test verifies.
///
/// Keys are Sds; values are V (moved in). Iteration and uniform random
/// sampling (for active expiry and RANDOMKEY) are supported, as the engine
/// needs both.
template <typename V>
class Dict {
public:
    static constexpr std::size_t kInitialSize = 4;
    /// Forced-rehash load factor (dict_force_resize_ratio in Redis).
    static constexpr std::size_t kForceResizeRatio = 5;

    Dict() = default;

    [[nodiscard]] std::size_t size() const { return used_[0] + used_[1]; }
    [[nodiscard]] bool empty() const { return size() == 0; }
    [[nodiscard]] std::size_t bucket_count() const {
        return table_[0].size() + table_[1].size();
    }
    [[nodiscard]] bool rehashing() const { return rehash_idx_ >= 0; }

    /// Insert only if absent. Returns false if the key already exists.
    bool insert(const Sds& key, V val) {
        expand_if_needed();
        step_rehash();
        if (find(key) != nullptr) return false;
        const int t = rehashing() ? 1 : 0;
        const std::size_t b = dict_hash(key.view()) & mask(t);
        table_[t][b].push_back(Entry{key, std::move(val)});
        ++used_[t];
        return true;
    }

    /// Insert or overwrite. Returns true if the key was newly created.
    bool set(const Sds& key, V val) {
        if (V* existing = find(key)) {
            *existing = std::move(val);
            return false;
        }
        const bool inserted = insert(key, std::move(val));
        SKV_DCHECK(inserted);
        (void)inserted;
        return true;
    }

    [[nodiscard]] V* find(const Sds& key) {
        if (empty()) return nullptr;
        step_rehash();
        const std::uint64_t h = dict_hash(key.view());
        for (int t = 0; t <= (rehashing() ? 1 : 0); ++t) {
            if (table_[t].empty()) continue;
            for (auto& e : table_[t][h & mask(t)]) {
                if (e.key == key) return &e.val;
            }
        }
        return nullptr;
    }

    [[nodiscard]] const V* find(const Sds& key) const {
        return const_cast<Dict*>(this)->find_nostep(key);
    }

    bool contains(const Sds& key) const { return find(key) != nullptr; }

    bool erase(const Sds& key) {
        if (empty()) return false;
        step_rehash();
        const std::uint64_t h = dict_hash(key.view());
        for (int t = 0; t <= (rehashing() ? 1 : 0); ++t) {
            if (table_[t].empty()) continue;
            auto& bucket = table_[t][h & mask(t)];
            for (std::size_t i = 0; i < bucket.size(); ++i) {
                if (bucket[i].key == key) {
                    bucket[i] = std::move(bucket.back());
                    bucket.pop_back();
                    --used_[t];
                    shrink_if_needed();
                    return true;
                }
            }
        }
        return false;
    }

    void clear() {
        table_[0].clear();
        table_[1].clear();
        used_[0] = used_[1] = 0;
        rehash_idx_ = -1;
    }

    /// Visit every entry. The callback must not mutate the dict.
    template <typename Fn> // Fn(const Sds&, V&)
    void for_each(Fn&& fn) {
        for (int t = 0; t < 2; ++t) {
            for (auto& bucket : table_[t]) {
                for (auto& e : bucket) fn(e.key, e.val);
            }
        }
    }

    template <typename Fn> // Fn(const Sds&, const V&)
    void for_each(Fn&& fn) const {
        for (int t = 0; t < 2; ++t) {
            for (const auto& bucket : table_[t]) {
                for (const auto& e : bucket) fn(e.key, e.val);
            }
        }
    }

    /// Uniformly-random entry (for active expire sampling and RANDOMKEY).
    /// Returns nullptr when empty.
    std::pair<const Sds*, V*> random_entry(sim::Rng& rng) {
        if (empty()) return {nullptr, nullptr};
        step_rehash();
        // Pick a table weighted by occupancy, then a non-empty bucket by
        // rejection, then a random chain slot.
        for (;;) {
            const int t = rng.next_below(size()) < used_[0] ? 0 : 1;
            if (table_[t].empty() || used_[t] == 0) continue;
            auto& bucket = table_[t][rng.next_below(table_[t].size())];
            if (bucket.empty()) continue;
            auto& e = bucket[rng.next_below(bucket.size())];
            return {&e.key, &e.val};
        }
    }

    /// Perform up to `n` bucket migrations immediately (the server's cron
    /// calls this to make progress when the keyspace is idle).
    void rehash_step(std::size_t n) {
        for (std::size_t i = 0; i < n && rehashing(); ++i) migrate_one();
    }

private:
    struct Entry {
        Sds key;
        V val;
    };

    using Bucket = std::vector<Entry>;
    using Table = std::vector<Bucket>;

    [[nodiscard]] std::uint64_t mask(int t) const {
        return table_[t].empty() ? 0 : table_[t].size() - 1;
    }

    V* find_nostep(const Sds& key) {
        if (empty()) return nullptr;
        const std::uint64_t h = dict_hash(key.view());
        for (int t = 0; t <= (rehashing() ? 1 : 0); ++t) {
            if (table_[t].empty()) continue;
            for (auto& e : table_[t][h & mask(t)]) {
                if (e.key == key) return &e.val;
            }
        }
        return nullptr;
    }

    void start_rehash(std::size_t newsize) {
        SKV_DCHECK(!rehashing());
        if (newsize == table_[0].size()) return;
        table_[1].assign(newsize, Bucket{});
        rehash_idx_ = 0;
    }

    void expand_if_needed() {
        if (rehashing()) return;
        if (table_[0].empty()) {
            table_[0].assign(kInitialSize, Bucket{});
            return;
        }
        if (used_[0] >= table_[0].size()) {
            start_rehash(next_power(used_[0] * 2));
        }
    }

    void shrink_if_needed() {
        if (rehashing()) return;
        if (table_[0].size() > kInitialSize && used_[0] * 10 < table_[0].size()) {
            start_rehash(next_power(std::max(used_[0], kInitialSize)));
        }
    }

    static std::size_t next_power(std::size_t n) {
        std::size_t p = kInitialSize;
        while (p < n) p <<= 1;
        return p;
    }

    /// Move one non-empty bucket from table 0 to table 1 (visiting at most
    /// 10 empty buckets, as Redis's dictRehash(d, 1) does).
    void migrate_one() {
        SKV_DCHECK(rehashing());
        int empty_visits = 10;
        while (static_cast<std::size_t>(rehash_idx_) < table_[0].size() &&
               table_[0][static_cast<std::size_t>(rehash_idx_)].empty()) {
            ++rehash_idx_;
            if (--empty_visits == 0) return;
        }
        if (static_cast<std::size_t>(rehash_idx_) >= table_[0].size()) {
            finish_rehash();
            return;
        }
        auto& bucket = table_[0][static_cast<std::size_t>(rehash_idx_)];
        for (auto& e : bucket) {
            const std::size_t b = dict_hash(e.key.view()) & mask(1);
            table_[1][b].push_back(std::move(e));
            --used_[0];
            ++used_[1];
        }
        bucket.clear();
        ++rehash_idx_;
        if (static_cast<std::size_t>(rehash_idx_) >= table_[0].size()) {
            finish_rehash();
        }
    }

    void finish_rehash() {
        SKV_DCHECK(used_[0] == 0);
        table_[0] = std::move(table_[1]);
        table_[1].clear();
        used_[0] = used_[1];
        used_[1] = 0;
        rehash_idx_ = -1;
    }

    void step_rehash() {
        if (rehashing()) migrate_one();
    }

    Table table_[2];
    std::size_t used_[2] = {0, 0};
    std::ptrdiff_t rehash_idx_ = -1;
};

} // namespace skv::kv
