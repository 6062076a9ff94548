#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.hpp"
#include "sim/simulation.hpp"

namespace skv::sim {
namespace {

TEST(EventQueue, OrdersByTime) {
    EventQueue q;
    std::vector<int> order;
    q.schedule(SimTime(30), [&] { order.push_back(3); });
    q.schedule(SimTime(10), [&] { order.push_back(1); });
    q.schedule(SimTime(20), [&] { order.push_back(2); });
    while (!q.empty()) q.pop().second();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesAreFifo) {
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i) {
        q.schedule(SimTime(5), [&order, i] { order.push_back(i); });
    }
    while (!q.empty()) q.pop().second();
    for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsExecution) {
    EventQueue q;
    bool ran = false;
    const EventId id = q.schedule(SimTime(1), [&] { ran = true; });
    EXPECT_TRUE(q.cancel(id));
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelTwiceFails) {
    EventQueue q;
    const EventId id = q.schedule(SimTime(1), [] {});
    EXPECT_TRUE(q.cancel(id));
    EXPECT_FALSE(q.cancel(id));
    EXPECT_FALSE(q.cancel(EventId{})); // invalid id
}

TEST(EventQueue, CancelledEventSkippedByPop) {
    EventQueue q;
    std::vector<int> order;
    const EventId a = q.schedule(SimTime(1), [&] { order.push_back(1); });
    q.schedule(SimTime(2), [&] { order.push_back(2); });
    q.cancel(a);
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.next_time(), SimTime(2));
    q.pop().second();
    EXPECT_EQ(order, std::vector<int>{2});
}

TEST(EventQueue, NextTimeEmpty) {
    EventQueue q;
    EXPECT_EQ(q.next_time(), SimTime::max());
}

TEST(Simulation, ClockAdvancesToEventTime) {
    Simulation sim(1);
    SimTime seen;
    sim.after(microseconds(5), [&] { seen = sim.now(); });
    sim.run();
    EXPECT_EQ(seen, SimTime(5'000));
    EXPECT_EQ(sim.now(), SimTime(5'000));
}

TEST(Simulation, RunUntilStopsAtDeadline) {
    Simulation sim(1);
    int ran = 0;
    sim.after(microseconds(1), [&] { ++ran; });
    sim.after(microseconds(10), [&] { ++ran; });
    sim.run_until(SimTime(5'000));
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(sim.now(), SimTime(5'000)); // clock advanced to the deadline
    sim.run();
    EXPECT_EQ(ran, 2);
}

TEST(Simulation, NestedScheduling) {
    Simulation sim(1);
    std::vector<std::int64_t> times;
    sim.after(microseconds(1), [&] {
        times.push_back(sim.now().ns());
        sim.after(microseconds(1), [&] { times.push_back(sim.now().ns()); });
    });
    sim.run();
    EXPECT_EQ(times, (std::vector<std::int64_t>{1'000, 2'000}));
}

TEST(Simulation, StepExecutesOne) {
    Simulation sim(1);
    int ran = 0;
    sim.after(microseconds(1), [&] { ++ran; });
    sim.after(microseconds(2), [&] { ++ran; });
    EXPECT_TRUE(sim.step());
    EXPECT_EQ(ran, 1);
    EXPECT_TRUE(sim.step());
    EXPECT_EQ(ran, 2);
    EXPECT_FALSE(sim.step());
}

TEST(Simulation, EventsExecutedCounter) {
    Simulation sim(1);
    for (int i = 0; i < 7; ++i) sim.after(microseconds(i + 1), [] {});
    sim.run();
    EXPECT_EQ(sim.events_executed(), 7u);
}

class StressTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StressTest, ManyInterleavedEventsStayOrdered) {
    Simulation sim(GetParam());
    Rng rng(GetParam());
    std::int64_t last = -1;
    bool monotonic = true;
    for (int i = 0; i < 5000; ++i) {
        sim.after(Duration(static_cast<std::int64_t>(rng.next_below(1'000'000))),
                  [&] {
                      if (sim.now().ns() < last) monotonic = false;
                      last = sim.now().ns();
                  });
    }
    sim.run();
    EXPECT_TRUE(monotonic);
    EXPECT_EQ(sim.events_executed(), 5000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StressTest, ::testing::Values(1u, 7u, 99u));

} // namespace
} // namespace skv::sim
