#include "obs/metrics.hpp"

namespace skv::obs {

Counter Registry::counter_handle(const std::string& name) {
    auto it = counter_index_.find(name);
    if (it == counter_index_.end()) {
        counter_cells_.push_back(0);
        it = counter_index_.emplace(name, counter_cells_.size() - 1).first;
    }
    return Counter(&counter_cells_[it->second]);
}

Gauge Registry::gauge_handle(const std::string& name) {
    auto it = gauge_index_.find(name);
    if (it == gauge_index_.end()) {
        gauge_cells_.push_back(0);
        it = gauge_index_.emplace(name, gauge_cells_.size() - 1).first;
    }
    return Gauge(&gauge_cells_[it->second]);
}

Timer Registry::timer_handle(const std::string& name) {
    auto it = timer_index_.find(name);
    if (it == timer_index_.end()) {
        timer_cells_.emplace_back();
        it = timer_index_.emplace(name, timer_cells_.size() - 1).first;
    }
    return Timer(&timer_cells_[it->second]);
}

void Registry::incr(const std::string& name, std::uint64_t delta) {
    counter_handle(name).incr(delta);
}

void Registry::set_gauge(const std::string& name, std::int64_t value) {
    gauge_handle(name).set(value);
}

std::uint64_t Registry::counter(const std::string& name) const {
    const auto it = counter_index_.find(name);
    return it != counter_index_.end() ? counter_cells_[it->second] : 0;
}

std::int64_t Registry::gauge(const std::string& name) const {
    const auto it = gauge_index_.find(name);
    return it != gauge_index_.end() ? gauge_cells_[it->second] : 0;
}

std::string Registry::format() const {
    std::string out;
    for (const auto& [k, idx] : counter_index_) {
        out += k;
        out += '=';
        out += std::to_string(counter_cells_[idx]);
        out += '\n';
    }
    for (const auto& [k, idx] : gauge_index_) {
        out += k;
        out += '=';
        out += std::to_string(gauge_cells_[idx]);
        out += '\n';
    }
    return out;
}

void Registry::clear() {
    for (auto& c : counter_cells_) c = 0;
    for (auto& g : gauge_cells_) g = 0;
    for (auto& t : timer_cells_) t.clear();
}

Snapshot Registry::snapshot() const {
    Snapshot s;
    for (const auto& [k, idx] : counter_index_) s.counters[k] = counter_cells_[idx];
    for (const auto& [k, idx] : gauge_index_) s.gauges[k] = gauge_cells_[idx];
    for (const auto& [k, idx] : timer_index_) {
        const auto& h = timer_cells_[idx];
        Snapshot::TimerStats t;
        t.count = h.count();
        t.sum_ns = h.mean_ns() * static_cast<double>(h.count());
        t.p50_ns = h.p50_ns();
        t.p99_ns = h.p99_ns();
        t.p999_ns = h.p999_ns();
        t.max_ns = h.max_ns();
        s.timers[k] = t;
    }
    return s;
}

} // namespace skv::obs
