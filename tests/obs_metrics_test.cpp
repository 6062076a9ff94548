#include <gtest/gtest.h>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "sim/simulation.hpp"

namespace skv::obs {
namespace {

TEST(ObsRegistry, HandleAndStringApiShareCells) {
    // Handles write, the string API reads: both address the same cell.
    Registry r;
    Counter c = r.counter_handle("ops");
    c.incr();
    c.incr(4);
    EXPECT_EQ(r.counter("ops"), 5u);
    EXPECT_EQ(c.value(), 5u);
    // Re-resolving the same name yields the same cell.
    Counter again = r.counter_handle("ops");
    again.incr();
    EXPECT_EQ(c.value(), 6u);
    EXPECT_EQ(r.counter("ops"), 6u);
}

TEST(ObsRegistry, DefaultHandlesAreInert) {
    Counter c;
    Timer t;
    c.incr();
    t.record_ns(100);
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(t.histogram(), nullptr);
    EXPECT_FALSE(static_cast<bool>(c));
}

TEST(ObsRegistry, FormatMatchesStatsRegistryLayout) {
    // "k=v\n" for every registered counter, zeros included, sorted by name;
    // timers excluded (the chaos fingerprint folds this in).
    Registry r;
    r.counter_handle("b").incr(2);
    r.counter_handle("a").incr();
    r.counter_handle("idle");
    r.timer_handle("t").record_ns(5);
    EXPECT_EQ(r.format(), "a=1\nb=2\nidle=0\n");
}

TEST(ObsRegistry, MissingNamesReadZero) {
    Registry r;
    EXPECT_EQ(r.counter("nope"), 0u);
    // Reads must not create cells.
    EXPECT_EQ(r.format(), "");
    EXPECT_TRUE(r.snapshot().counters.empty());
}

TEST(Stats, CountersAccumulate) {
    Registry s;
    const Counter ops = s.counter_handle("ops");
    ops.incr();
    ops.incr(4);
    EXPECT_EQ(s.counter("ops"), 5u);
    EXPECT_EQ(s.counter("missing"), 0u);
}

TEST(Stats, FormatSortedDeterministic) {
    Registry s;
    const Counter zeta = s.counter_handle("zeta");
    const Counter alpha = s.counter_handle("alpha");
    zeta.incr();
    alpha.incr(2);
    const auto text = s.format();
    EXPECT_LT(text.find("alpha=2"), text.find("zeta=1"));
}

TEST(ObsExport, JsonWriterProducesStableDocument) {
    JsonWriter w;
    w.begin_object()
        .kv("name", std::string_view("fig"))
        .kv("kops", 12.3456)
        .key("points")
        .begin_array()
        .value(1)
        .value(std::int64_t{-2})
        .end_array()
        .kv("ok", std::uint64_t{7})
        .end_object();
    EXPECT_EQ(w.str(),
              R"({"name":"fig","kops":12.346,"points":[1,-2],"ok":7})");
}

TEST(ObsExport, JsonEscapesControlCharacters) {
    JsonWriter w;
    w.begin_object().kv("s", std::string_view("a\"b\\c\nd")).end_object();
    EXPECT_EQ(w.str(), "{\"s\":\"a\\\"b\\\\c\\nd\"}");
}

TEST(ObsTracer, SpanIdsAreSeedDeterministic) {
    const auto collect = [](std::uint64_t seed) {
        sim::Simulation sim(seed);
        Tracer t(sim);
        t.set_enabled(true);
        const std::uint32_t track = t.track("client/0");
        t.complete(track, Stage::kFabricTransfer, sim.now(), sim.now());
        t.complete(track, Stage::kCqWakeup, sim.now(), sim.now());
        std::vector<std::uint64_t> ids;
        for (const auto& s : t.spans()) ids.push_back(s.id);
        return ids;
    };
    EXPECT_EQ(collect(7), collect(7));
    EXPECT_NE(collect(7), collect(8));
}

TEST(ObsTracer, DisabledTracerRecordsNothing) {
    sim::Simulation sim(1);
    Tracer t(sim);
    const std::uint32_t track = t.track("x");
    t.complete(track, Stage::kCqWakeup, sim.now(), sim.now());
    t.flow_issue(1, track);
    t.flow_server_recv(1, track);
    t.flow_server_done(1);
    t.flow_complete(1);
    EXPECT_TRUE(t.spans().empty());
    EXPECT_EQ(t.stage_accum(Stage::kClientE2e).count, 0u);
}

TEST(ObsTracer, FlowStagesTileEndToEnd) {
    sim::Simulation sim(1);
    Tracer t(sim);
    t.set_enabled(true);
    const std::uint32_t client = t.track("client/0");
    const std::uint32_t server = t.track("server/master");
    const std::uint64_t flow = 42;

    t.flow_issue(flow, client);
    sim.after(sim::microseconds(3), [] {});
    sim.run_until(sim.now() + sim::microseconds(3));
    t.flow_server_recv(flow, server);
    sim.run_until(sim.now() + sim::microseconds(5));
    t.flow_server_done(flow);
    sim.run_until(sim.now() + sim::microseconds(2));
    t.flow_complete(flow);

    EXPECT_EQ(t.stage_accum(Stage::kClientE2e).count, 1u);
    EXPECT_EQ(t.stage_accum(Stage::kRdmaWrite).sum_ns, 3000);
    EXPECT_EQ(t.stage_accum(Stage::kMasterApply).sum_ns, 5000);
    EXPECT_EQ(t.stage_accum(Stage::kReply).sum_ns, 2000);
    // The critical-path stages tile the end-to-end latency exactly.
    EXPECT_EQ(t.stage_accum(Stage::kClientE2e).sum_ns,
              t.stage_accum(Stage::kRdmaWrite).sum_ns +
                  t.stage_accum(Stage::kMasterApply).sum_ns +
                  t.stage_accum(Stage::kReply).sum_ns);
    // 4 spans: e2e + 3 component stages.
    EXPECT_EQ(t.spans().size(), 4u);
}

TEST(ObsTracer, UnstampedFlowsAreIgnored) {
    sim::Simulation sim(1);
    Tracer t(sim);
    t.set_enabled(true);
    const std::uint32_t server = t.track("server/master");
    // Server stamps for a flow the client never issued (e.g. a raw shell
    // connection) must not accumulate anything or leak state.
    t.flow_server_recv(99, server);
    t.flow_server_done(99);
    t.flow_complete(99);
    EXPECT_EQ(t.stage_accum(Stage::kClientE2e).count, 0u);
    EXPECT_TRUE(t.spans().empty());
}

TEST(ObsTracer, ReplicationStagesCorrelateByOffset) {
    sim::Simulation sim(3);
    Tracer t(sim);
    t.set_enabled(true);
    const std::uint32_t master = t.track("server/master");
    const std::uint32_t nic = t.track("nic/nic-kv");
    const std::uint32_t slave = t.track("server/slave0");

    t.repl_propagate(0, 30, master);
    sim.run_until(sim.now() + sim::microseconds(4));
    t.repl_fanout(0, nic);
    sim.run_until(sim.now() + sim::microseconds(6));
    t.repl_slave_apply(0, slave);
    sim.run_until(sim.now() + sim::microseconds(10));
    t.repl_ack(30); // cumulative ack covering the entry

    EXPECT_EQ(t.stage_accum(Stage::kOffloadRequest).sum_ns, 4000);
    EXPECT_EQ(t.stage_accum(Stage::kNicFanout).sum_ns, 6000);
    EXPECT_EQ(t.stage_accum(Stage::kSlaveAck).sum_ns, 20000);
    EXPECT_EQ(t.stage_accum(Stage::kSlaveAck).count, 1u);
    // A later cumulative ack with no matching entry is a no-op.
    t.repl_ack(500);
    EXPECT_EQ(t.stage_accum(Stage::kSlaveAck).count, 1u);
}

TEST(ObsTracer, ChromeTraceExportIsByteDeterministic) {
    const auto render = [](std::uint64_t seed) {
        sim::Simulation sim(seed);
        Tracer t(sim);
        t.set_enabled(true);
        const std::uint32_t a = t.track("client/0");
        const std::uint32_t b = t.track("server/master");
        t.flow_issue(1, a);
        sim.run_until(sim.now() + sim::microseconds(2));
        t.flow_server_recv(1, b);
        sim.run_until(sim.now() + sim::microseconds(2));
        t.flow_server_done(1);
        sim.run_until(sim.now() + sim::microseconds(1));
        t.flow_complete(1);
        return chrome_trace_json(t);
    };
    const std::string a = render(11);
    EXPECT_EQ(a, render(11));
    EXPECT_NE(a, render(12));
    EXPECT_NE(a.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(a.find("thread_name"), std::string::npos);
    EXPECT_NE(a.find("client_e2e"), std::string::npos);
}

TEST(ObsTracer, ClearKeepsTracks) {
    sim::Simulation sim(1);
    Tracer t(sim);
    t.set_enabled(true);
    const std::uint32_t track = t.track("x");
    t.complete(track, Stage::kCqWakeup, sim.now(), sim.now());
    t.clear();
    EXPECT_TRUE(t.spans().empty());
    EXPECT_EQ(t.stage_accum(Stage::kCqWakeup).count, 0u);
    EXPECT_EQ(t.track("x"), track);
}

TEST(ObsTracer, StageNamesAreSnakeCase) {
    EXPECT_STREQ(stage_name(Stage::kClientE2e), "client_e2e");
    EXPECT_STREQ(stage_name(Stage::kRdmaWrite), "rdma_write");
    EXPECT_STREQ(stage_name(Stage::kNicFanout), "nic_fanout");
    EXPECT_STREQ(stage_name(Stage::kSlaveAck), "slave_ack");
}

} // namespace
} // namespace skv::obs
