#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>

#include "sim/histogram.hpp"
#include "sim/time.hpp"

namespace skv::obs {

class Registry;

/// Pre-resolved counter handle: incrementing is one pointer dereference and
/// an add, no string lookup. Handles stay valid for the life of the owning
/// Registry (cells live in a deque and never move). A default-constructed
/// handle is inert: incr() on it is a no-op (a ReliableChannel wrapped
/// without a registry counts nothing).
class Counter {
public:
    Counter() = default;
    void incr(std::uint64_t delta = 1) const {
        if (cell_ != nullptr) *cell_ += delta;
    }
    [[nodiscard]] std::uint64_t value() const {
        return cell_ != nullptr ? *cell_ : 0;
    }
    [[nodiscard]] explicit operator bool() const { return cell_ != nullptr; }

private:
    friend class Registry;
    explicit Counter(std::uint64_t* cell) : cell_(cell) {}
    std::uint64_t* cell_ = nullptr;
};

/// Pre-resolved latency-histogram handle. record() feeds the log-linear
/// sim::LatencyHistogram owned by the Registry.
class Timer {
public:
    Timer() = default;
    void record(sim::Duration d) const {
        if (hist_ != nullptr) hist_->record(d);
    }
    void record_ns(std::int64_t ns) const {
        if (hist_ != nullptr) hist_->record_ns(ns);
    }
    [[nodiscard]] const sim::LatencyHistogram* histogram() const { return hist_; }
    [[nodiscard]] explicit operator bool() const { return hist_ != nullptr; }

private:
    friend class Registry;
    explicit Timer(sim::LatencyHistogram* hist) : hist_(hist) {}
    sim::LatencyHistogram* hist_ = nullptr;
};

/// Point-in-time copy of a Registry; maps keep iteration order deterministic.
struct Snapshot {
    struct TimerStats {
        std::uint64_t count = 0;
        double sum_ns = 0.0;
        std::int64_t p50_ns = 0;
        std::int64_t p99_ns = 0;
        std::int64_t p999_ns = 0;
        std::int64_t max_ns = 0;
    };

    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, TimerStats> timers;
};

/// Per-node metric registry: a name -> cell table. Cells are written only
/// through handles resolved once, when their owner is constructed
/// (counter_handle/timer_handle), so the per-message path pays a pointer
/// dereference, never a string lookup. Reads go by name (counter, format,
/// snapshot) and never create cells.
///
/// Iteration anywhere in this class is over std::map — deterministic by
/// construction, which the byte-identical fingerprints rely on.
class Registry {
public:
    Registry() = default;

    Registry(const Registry&) = delete;
    Registry& operator=(const Registry&) = delete;

    /// Register `name` (or find it) and return its write handle.
    Counter counter_handle(const std::string& name);
    Timer timer_handle(const std::string& name);

    [[nodiscard]] std::uint64_t counter(const std::string& name) const;
    /// "name=value\n" for every registered counter, zeros included, sorted
    /// by name. Timers are excluded: the chaos determinism fingerprints fold
    /// this string in.
    [[nodiscard]] std::string format() const;

    [[nodiscard]] Snapshot snapshot() const;

private:
    // Cells live in deques so handle pointers survive growth.
    std::deque<std::uint64_t> counter_cells_;
    std::deque<sim::LatencyHistogram> timer_cells_;
    std::map<std::string, std::size_t> counter_index_;
    std::map<std::string, std::size_t> timer_index_;
};

} // namespace skv::obs
