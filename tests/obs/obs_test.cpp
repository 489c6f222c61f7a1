// Observability-plane unit tests: the metrics tree (nesting, lookup, text
// and JSON rendering), the bounded tracer ring, the exclusive frontier
// attribution in TraceContext, the op tracker's slow-op log, and the
// Chrome trace export format.
#include <gtest/gtest.h>

#include "../testutil.h"
#include "obs/metrics.h"
#include "obs/op_tracker.h"
#include "obs/plane.h"
#include "obs/trace.h"

namespace vde::obs {
namespace {

// --- Metrics tree ---

TEST(Metrics, TreeLookupAndRender) {
  Metrics root;
  root.Counter("events", 42);
  root.Gauge("load", 0.5);
  Metrics& image = root.Child("image");
  image.Counter("writes", 7);
  image.Child("wb").Counter("stages", 3);
  Histogram h;
  h.Add(1000);
  image.Hist("latency_ns", h);

  ASSERT_NE(root.FindCounter("events"), nullptr);
  EXPECT_EQ(*root.FindCounter("events"), 42u);
  ASSERT_NE(root.FindCounter("image.writes"), nullptr);
  EXPECT_EQ(*root.FindCounter("image.writes"), 7u);
  ASSERT_NE(root.FindCounter("image.wb.stages"), nullptr);
  EXPECT_EQ(*root.FindCounter("image.wb.stages"), 3u);
  ASSERT_NE(root.FindGauge("load"), nullptr);
  EXPECT_DOUBLE_EQ(*root.FindGauge("load"), 0.5);
  ASSERT_NE(root.FindHist("image.latency_ns"), nullptr);
  EXPECT_EQ(root.FindHist("image.latency_ns")->count(), 1u);
  // Misses: wrong leaf, wrong branch, wrong kind.
  EXPECT_EQ(root.FindCounter("image.reads"), nullptr);
  EXPECT_EQ(root.FindCounter("nosuch.writes"), nullptr);
  EXPECT_EQ(root.FindCounter("load"), nullptr);
  EXPECT_EQ(root.CounterOr("image.writes"), 7u);
  EXPECT_EQ(root.CounterOr("image.reads", 99), 99u);

  const std::string text = root.ToText();
  EXPECT_NE(text.find("events = 42"), std::string::npos);
  EXPECT_NE(text.find("image.wb.stages = 3"), std::string::npos);

  const std::string json = root.ToJson();
  EXPECT_NE(json.find("\"events\":42"), std::string::npos);
  EXPECT_NE(json.find("\"children\""), std::string::npos);
  EXPECT_NE(json.find("\"wb\""), std::string::npos);
}

TEST(Metrics, EmptyAndEscaping) {
  Metrics m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.ToJson(), "{}");
  m.Counter("x", 1);
  EXPECT_FALSE(m.empty());
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(JsonEscape(std::string("\x01", 1)), "\\u0001");
}

// Byte-sized gauges above 10^6 must keep every digit: allocated space is
// the difference of two such gauges.
TEST(Metrics, LargeGaugeRendersExactly) {
  Metrics root;
  root.Child("space").Gauge("free_bytes", 1099511627776.0);
  root.Gauge("ratio", 0.25);
  EXPECT_NE(root.ToJson().find("\"free_bytes\":1099511627776}"),
            std::string::npos)
      << root.ToJson();
  EXPECT_NE(root.ToText().find("space.free_bytes = 1099511627776\n"),
            std::string::npos)
      << root.ToText();
  EXPECT_NE(root.ToText().find("ratio = 0.25\n"), std::string::npos);
}

TEST(Metrics, DeltaSinceSubtractsCountersAndHistograms) {
  Histogram h;
  h.Add(100);
  h.Add(200);
  Metrics before;
  before.Counter("writes", 10);
  before.Gauge("free", 500);
  before.Hist("lat", h);
  before.Child("cluster").Counter("txns", 4);

  h.Add(1000);
  Metrics after;
  after.Counter("writes", 25);
  after.Gauge("free", 300);
  after.Hist("lat", h);
  after.Child("cluster").Counter("txns", 9);
  after.Child("cluster").Counter("new_counter", 6);
  Histogram fresh;
  fresh.Add(7);
  after.Child("cluster").Hist("fresh", fresh);
  after.Child("late").Counter("n", 3);

  const Metrics d = after.DeltaSince(before);
  EXPECT_EQ(d.CounterOr("writes"), 15u);
  ASSERT_NE(d.FindGauge("free"), nullptr);
  EXPECT_DOUBLE_EQ(*d.FindGauge("free"), 300) << "gauges keep the later value";
  ASSERT_NE(d.FindHist("lat"), nullptr);
  EXPECT_EQ(d.FindHist("lat")->count(), 1u);
  EXPECT_EQ(d.FindHist("lat")->sum(), 1000u);
  EXPECT_EQ(d.CounterOr("cluster.txns"), 5u);
  // Entries present only in `after` count from zero.
  EXPECT_EQ(d.CounterOr("cluster.new_counter"), 6u);
  ASSERT_NE(d.FindHist("cluster.fresh"), nullptr);
  EXPECT_EQ(d.FindHist("cluster.fresh")->count(), 1u);
  EXPECT_EQ(d.CounterOr("late.n"), 3u);
  // Nothing moved: every counter and histogram of the delta is zero.
  const Metrics none = after.DeltaSince(after);
  EXPECT_EQ(none.CounterOr("writes", 99), 0u);
  EXPECT_EQ(none.CounterOr("cluster.new_counter", 99), 0u);
  EXPECT_EQ(none.FindHist("lat")->count(), 0u);
  EXPECT_DOUBLE_EQ(*none.FindGauge("free"), 300);
}

// --- Tracer ring ---

TEST(Tracer, RingBoundAndDropCount) {
  Tracer t(4);
  for (uint64_t i = 0; i < 10; ++i) {
    t.Record(i, Stage::kStore, i * 100, 50);
  }
  EXPECT_EQ(t.capacity(), 4u);
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.recorded(), 10u);
  EXPECT_EQ(t.dropped(), 6u);
  // Oldest-first: the retained window is ops 6..9.
  const std::vector<Span> spans = t.Spans();
  ASSERT_EQ(spans.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(spans[i].op_id, 6 + i);
    EXPECT_EQ(spans[i].start, (6 + i) * 100);
  }
}

TEST(Tracer, ChromeExportFormat) {
  Tracer t(8);
  t.Record(3, Stage::kDevice, 2000, 1500);
  const std::string json = t.ExportChromeJson();
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ns\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"device\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // ts/dur are microseconds: 2000 ns -> 2.000 us, 1500 ns -> 1.500 us.
  EXPECT_NE(json.find("\"ts\":2.000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":1.500"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":3"), std::string::npos);
}

// --- Frontier attribution ---

TEST(TraceContext, ExclusiveAttributionPartitionsLatency) {
  testutil::RunSim([]() -> sim::Task<void> {
    TraceContext ctx(nullptr, 1, OpKind::kWrite, 0, 4096,
                     sim::Scheduler::Current().now());
    // 10us unattributed -> other.
    co_await sim::Sleep{10 * sim::kUs};
    ctx.Enter(Stage::kStore);
    co_await sim::Sleep{20 * sim::kUs};
    // Nested deeper stage: device wins the overlap.
    ctx.Enter(Stage::kDevice);
    co_await sim::Sleep{30 * sim::kUs};
    EXPECT_EQ(ctx.Current(), Stage::kDevice);
    ctx.Exit(Stage::kDevice);
    co_await sim::Sleep{5 * sim::kUs};
    ctx.Exit(Stage::kStore);
    const sim::SimTime end = sim::Scheduler::Current().now();
    ctx.AccountUpTo(end);

    const auto& ns = ctx.stage_ns();
    EXPECT_EQ(ns[static_cast<size_t>(Stage::kOther)], 10 * sim::kUs);
    EXPECT_EQ(ns[static_cast<size_t>(Stage::kStore)], 25 * sim::kUs);
    EXPECT_EQ(ns[static_cast<size_t>(Stage::kDevice)], 30 * sim::kUs);
    sim::SimTime sum = 0;
    for (sim::SimTime v : ns) sum += v;
    EXPECT_EQ(sum, end - ctx.submit_ns());
  });
}

TEST(TraceContext, ConcurrentSameStageNests) {
  testutil::RunSim([]() -> sim::Task<void> {
    TraceContext ctx(nullptr, 1, OpKind::kRead, 0, 4096,
                     sim::Scheduler::Current().now());
    // Two chunks in kStore concurrently: the overlap must count once.
    ctx.Enter(Stage::kStore);
    co_await sim::Sleep{10 * sim::kUs};
    ctx.Enter(Stage::kStore);
    co_await sim::Sleep{10 * sim::kUs};
    ctx.Exit(Stage::kStore);
    EXPECT_EQ(ctx.Current(), Stage::kStore);  // one entry still active
    co_await sim::Sleep{10 * sim::kUs};
    ctx.Exit(Stage::kStore);
    EXPECT_EQ(ctx.Current(), Stage::kOther);
    const auto& ns = ctx.stage_ns();
    EXPECT_EQ(ns[static_cast<size_t>(Stage::kStore)], 30 * sim::kUs);
    EXPECT_EQ(ns[static_cast<size_t>(Stage::kOther)], 0u);
  });
}

TEST(TraceContext, StageNsAtIncludesPending) {
  testutil::RunSim([]() -> sim::Task<void> {
    TraceContext ctx(nullptr, 1, OpKind::kRead, 0, 512,
                     sim::Scheduler::Current().now());
    ctx.Enter(Stage::kWb);
    co_await sim::Sleep{7 * sim::kUs};
    // Non-mutating snapshot: pending interval shows up, state unchanged.
    const auto at = ctx.StageNsAt(sim::Scheduler::Current().now());
    EXPECT_EQ(at[static_cast<size_t>(Stage::kWb)], 7 * sim::kUs);
    EXPECT_EQ(ctx.stage_ns()[static_cast<size_t>(Stage::kWb)], 0u);
    ctx.Exit(Stage::kWb);
    EXPECT_EQ(ctx.stage_ns()[static_cast<size_t>(Stage::kWb)], 7 * sim::kUs);
  });
}

TEST(SpanScope, RecordsAndEndIsIdempotent) {
  testutil::RunSim([]() -> sim::Task<void> {
    Tracer tracer(8);
    TraceContext ctx(&tracer, 5, OpKind::kWrite, 0, 4096,
                     sim::Scheduler::Current().now());
    {
      SpanScope scope(&ctx, Stage::kCrypto);
      co_await sim::Sleep{3 * sim::kUs};
      scope.End();
      scope.End();  // no double record
      co_await sim::Sleep{1 * sim::kUs};
    }
    EXPECT_EQ(tracer.recorded(), 1u);
    const std::vector<Span> spans = tracer.Spans();
    CO_ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].op_id, 5u);
    EXPECT_EQ(spans[0].stage, Stage::kCrypto);
    EXPECT_EQ(spans[0].dur, 3 * sim::kUs);
    // Null context: every operation is a no-op.
    SpanScope null_scope(nullptr, Stage::kDevice);
    null_scope.End();
    EXPECT_EQ(tracer.recorded(), 1u);
  });
}

// --- OpTracker ---

TEST(OpTracker, SlowLogRetainsSlowestInOrder) {
  testutil::RunSim([]() -> sim::Task<void> {
    Tracer tracer(64);
    OpTracker tracker(3);
    // Five ops with latencies 10, 50, 30, 20, 40 us.
    const uint64_t lat_us[] = {10, 50, 30, 20, 40};
    for (uint64_t i = 0; i < 5; ++i) {
      auto ctx = std::make_shared<TraceContext>(
          &tracer, i + 1, OpKind::kRead, i * 4096, 4096,
          sim::Scheduler::Current().now());
      tracker.OnBegin(ctx);
      ctx->AccountUpTo(ctx->submit_ns() + lat_us[i] * sim::kUs);
      tracker.OnEnd(*ctx, ctx->submit_ns() + lat_us[i] * sim::kUs,
                    /*ok=*/true);
    }
    EXPECT_EQ(tracker.started(), 5u);
    EXPECT_EQ(tracker.finished(), 5u);
    EXPECT_EQ(tracker.inflight_count(), 0u);
    const auto& slow = tracker.SlowOps();
    CO_ASSERT_EQ(slow.size(), 3u);  // capacity bound
    EXPECT_EQ(slow[0].latency_ns, 50 * sim::kUs);
    EXPECT_EQ(slow[1].latency_ns, 40 * sim::kUs);
    EXPECT_EQ(slow[2].latency_ns, 30 * sim::kUs);
    EXPECT_EQ(slow[0].id, 2u);
    const std::string dump = tracker.FormatSlowOps(2);
    EXPECT_NE(dump.find("op 2"), std::string::npos);
    EXPECT_NE(dump.find("op 5"), std::string::npos);
    EXPECT_EQ(dump.find("op 3"), std::string::npos);  // limit respected
    co_return;
  });
}

TEST(OpTracker, InFlightSnapshot) {
  testutil::RunSim([]() -> sim::Task<void> {
    Tracer tracer(64);
    OpTracker tracker(4);
    auto a = std::make_shared<TraceContext>(&tracer, 1, OpKind::kWrite, 0,
                                            4096,
                                            sim::Scheduler::Current().now());
    tracker.OnBegin(a);
    a->Enter(Stage::kStore);
    co_await sim::Sleep{12 * sim::kUs};
    auto b = std::make_shared<TraceContext>(&tracer, 2, OpKind::kDiscard,
                                            8192, 4096,
                                            sim::Scheduler::Current().now());
    tracker.OnBegin(b);
    co_await sim::Sleep{5 * sim::kUs};

    const sim::SimTime now = sim::Scheduler::Current().now();
    const auto inflight = tracker.InFlight(now);
    CO_ASSERT_EQ(inflight.size(), 2u);
    EXPECT_EQ(inflight[0].id, 1u);  // oldest submit first
    EXPECT_EQ(inflight[0].latency_ns, 17 * sim::kUs);
    EXPECT_EQ(inflight[0].stage_ns[static_cast<size_t>(Stage::kStore)],
              17 * sim::kUs);
    EXPECT_EQ(inflight[1].id, 2u);
    EXPECT_EQ(inflight[1].latency_ns, 5 * sim::kUs);
    const std::string dump = tracker.FormatInFlight(now);
    EXPECT_NE(dump.find("discard"), std::string::npos);

    a->Exit(Stage::kStore);
    tracker.OnEnd(*a, now, true);
    tracker.OnEnd(*b, now, true);
    EXPECT_EQ(tracker.inflight_count(), 0u);
  });
}

// --- Plane ---

TEST(Plane, DisabledHandsOutNull) {
  testutil::RunSim([]() -> sim::Task<void> {
    Plane plane(Config{});  // disabled by default
    EXPECT_FALSE(plane.enabled());
    auto ctx = plane.BeginOp(OpKind::kWrite, 0, 4096);
    EXPECT_EQ(ctx, nullptr);
    plane.EndOp(ctx, sim::Scheduler::Current().now(), true);  // null-safe
    EXPECT_EQ(plane.latency_hist().count(), 0u);
    co_return;
  });
}

TEST(Plane, EnabledFeedsHistogramsAndTracker) {
  testutil::RunSim([]() -> sim::Task<void> {
    Config config;
    config.enabled = true;
    config.slow_ops = 8;
    Plane plane(config);
    auto ctx = plane.BeginOp(OpKind::kRead, 4096, 512);
    CO_ASSERT_TRUE(ctx != nullptr);
    ctx->Enter(Stage::kDevice);
    co_await sim::Sleep{9 * sim::kUs};
    ctx->Exit(Stage::kDevice);
    plane.EndOp(ctx, sim::Scheduler::Current().now(), true);

    EXPECT_EQ(plane.latency_hist().count(), 1u);
    EXPECT_EQ(plane.latency_hist().sum(), 9 * sim::kUs);
    const auto& stages = plane.stage_hists();
    EXPECT_EQ(stages[static_cast<size_t>(Stage::kDevice)].sum(),
              9 * sim::kUs);
    EXPECT_EQ(plane.op_tracker().finished(), 1u);

    Metrics node;
    plane.ExportMetrics(node);
    EXPECT_EQ(node.CounterOr("ops_finished"), 1u);
    CO_ASSERT_TRUE(node.FindHist("latency_ns") != nullptr);
    EXPECT_EQ(node.FindHist("latency_ns")->count(), 1u);
  });
}

}  // namespace
}  // namespace vde::obs
