#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"

namespace skv::sim {

/// The discrete-event simulation kernel. Owns the clock, the event queue,
/// the root RNG and the trace ring. Every simulated component holds a
/// reference to one Simulation and schedules its behaviour through it.
///
/// Single-threaded and deterministic: the same seed and the same sequence
/// of schedule() calls always produce the same execution.
class Simulation {
public:
    explicit Simulation(std::uint64_t seed = 0x5eed'0000'cafe'f00dULL);
    ~Simulation();

    Simulation(const Simulation&) = delete;
    Simulation& operator=(const Simulation&) = delete;

    [[nodiscard]] SimTime now() const { return now_; }

    /// Schedule `fn` to run after `delay` from now. There is no handle to
    /// cancel it: timers that may be superseded check an epoch when they
    /// fire.
    void after(Duration delay, EventQueue::Callback fn);

    /// Schedule `fn` at an absolute time (must not be in the past).
    void at(SimTime when, EventQueue::Callback fn);

    /// Run until the event queue drains or `deadline` is reached, whichever
    /// comes first. Returns the number of events executed.
    std::uint64_t run_until(SimTime deadline);

    /// Run until the event queue drains completely.
    std::uint64_t run() { return run_until(SimTime::max()); }

    /// Execute at most one pending event. Returns false when idle.
    bool step();

    /// Root RNG. Components should take a fork() so their draws do not
    /// interleave with each other.
    Rng& rng() { return rng_; }

    /// Fork a component-private RNG stream.
    Rng fork_rng() { return rng_.fork(); }

    Trace& trace() { return trace_; }
    [[nodiscard]] const Trace& trace() const { return trace_; }
    /// Rolling determinism-audit digest (see Trace); convenience accessor
    /// for diagnostics and double-run comparisons.
    [[nodiscard]] std::uint64_t trace_digest() const { return trace_.digest(); }

    [[nodiscard]] std::uint64_t events_executed() const { return executed_; }
    [[nodiscard]] std::size_t events_pending() const { return queue_.size(); }
    [[nodiscard]] std::uint64_t seed() const { return rng_.seed(); }

private:
    SimTime now_ = SimTime::zero();
    EventQueue queue_;
    Rng rng_;
    Trace trace_;
    std::uint64_t executed_ = 0;
};

} // namespace skv::sim
