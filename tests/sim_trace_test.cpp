#include <gtest/gtest.h>

#include "sim/trace.hpp"

namespace skv::sim {
namespace {

TEST(Trace, DigestIsOrderSensitive) {
    Trace a;
    Trace b;
    a.note(TraceEvent::kFabricSend, SimTime(1), 1, 2);
    a.note(TraceEvent::kFabricDeliver, SimTime(2), 1, 2);
    b.note(TraceEvent::kFabricDeliver, SimTime(2), 1, 2);
    b.note(TraceEvent::kFabricSend, SimTime(1), 1, 2);
    EXPECT_NE(a.digest(), b.digest());
    EXPECT_EQ(a.total_noted(), 2u);
}

TEST(Trace, DigestDeterministic) {
    Trace a;
    Trace b;
    const auto d0 = a.digest();
    for (int i = 0; i < 100; ++i) {
        a.note(TraceEvent::kFabricSend, SimTime(i), i, i + 1);
        b.note(TraceEvent::kFabricSend, SimTime(i), i, i + 1);
    }
    EXPECT_EQ(a.digest(), b.digest());
    EXPECT_NE(a.digest(), d0);
}

} // namespace
} // namespace skv::sim
