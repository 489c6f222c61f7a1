// Image-level observability integration: disabled observability is a
// bit-identical sim-clock passthrough, span sums partition each op's
// latency exactly, a traced run covers every instrumented layer, and the
// op tracker dumps in-flight ops mid-run at depth. Runs in both ctest
// shards (single-core and VDE_SIM_CORES=4).
#include <gtest/gtest.h>

#include <set>

#include "../testutil.h"
#include "device/nvme.h"
#include "obs/metrics.h"
#include "rbd/image.h"
#include "util/rng.h"
#include "workload/fio.h"

namespace vde::rbd {
namespace {

using testutil::TestCluster;

constexpr uint64_t kObjSize = 64 * 1024;
constexpr uint64_t kImgSize = 8ull << 20;

ImageOptions TestImage(bool obs_on) {
  ImageOptions o;
  o.size = kImgSize;
  o.object_size = kObjSize;
  o.enc.mode = core::CipherMode::kXtsRandom;
  o.enc.layout = core::IvLayout::kObjectEnd;
  o.enc.iv_seed = 7;
  o.luks.pbkdf2_iterations = 10;
  o.luks.af_stripes = 8;
  o.obs.enabled = obs_on;
  o.obs.slow_ops = 256;
  return o;
}

// One mixed rwmix+discard fio pass; returns true on success.
sim::Task<bool> MixedRun(Image& img, uint64_t ops) {
  workload::FioConfig fio;
  fio.rw_mix_pct = 60;
  fio.discard_pct = 15;
  fio.io_size = 4096;
  fio.queue_depth = 8;
  fio.total_ops = ops;
  fio.working_set = 2ull << 20;
  fio.seed = 11;
  workload::FioRunner runner(img, fio);
  if (!(co_await runner.Prefill()).ok()) co_return false;
  auto result = co_await runner.Run();
  co_return result.ok();
}

// The full observed timeline of one mixed run on a fresh cluster.
void RunAndClock(bool obs_on, sim::SimTime* clock, uint64_t* events) {
  sim::Scheduler sched;
  bool ok = false;
  sched.Spawn([](bool obs_on, bool* ok) -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    if (!cluster.ok()) co_return;
    auto image =
        co_await Image::Create(**cluster, "obs", "pw", TestImage(obs_on));
    if (!image.ok()) co_return;
    if (!co_await MixedRun(**image, 96)) co_return;
    co_await (*cluster)->Drain();
    *ok = true;
  }(obs_on, &ok));
  sched.Run();
  ASSERT_TRUE(ok);
  *clock = sched.now();
  *events = sched.events_processed();
}

// Gate (a) at test scale: enabling the full observability plane must not
// move the simulated clock by a single nanosecond.
TEST(ObsImage, DisabledObservabilityIsClockIdentical) {
  sim::SimTime clock_off = 0, clock_on = 0;
  uint64_t events_off = 0, events_on = 0;
  RunAndClock(false, &clock_off, &events_off);
  RunAndClock(true, &clock_on, &events_on);
  EXPECT_EQ(clock_off, clock_on);
  EXPECT_EQ(events_off, events_on);
}

// Gate (b) at test scale: every completed op's exclusive stage durations
// sum to exactly its end-to-end latency.
TEST(ObsImage, SpanSumsPartitionLatency) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    auto image =
        co_await Image::Create(**cluster, "obs", "pw", TestImage(true));
    CO_ASSERT_OK(image.status());
    CO_ASSERT_TRUE(co_await MixedRun(**image, 96));

    const auto& slow = (*image)->obs().op_tracker().SlowOps();
    CO_ASSERT_TRUE(!slow.empty());
    for (const obs::OpRecord& r : slow) {
      sim::SimTime sum = 0;
      for (size_t s = 0; s < obs::kNumStages; ++s) sum += r.stage_ns[s];
      EXPECT_EQ(sum, r.latency_ns) << obs::FormatOpRecord(r);
    }
    EXPECT_EQ((*image)->obs().op_tracker().inflight_count(), 0u);
  });
}

// Gate (c) at test scale: the trace covers wb/crypto/store/device spans
// and the metrics registry walks every layer.
TEST(ObsImage, TraceCoversLayersAndRegistryWalks) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    auto image =
        co_await Image::Create(**cluster, "obs", "pw", TestImage(true));
    CO_ASSERT_OK(image.status());
    CO_ASSERT_TRUE(co_await MixedRun(**image, 96));

    std::set<obs::Stage> seen;
    for (const obs::Span& s : (*image)->obs().tracer().Spans()) {
      seen.insert(s.stage);
    }
    EXPECT_TRUE(seen.count(obs::Stage::kWb));
    EXPECT_TRUE(seen.count(obs::Stage::kCrypto));
    EXPECT_TRUE(seen.count(obs::Stage::kStore));
    EXPECT_TRUE(seen.count(obs::Stage::kDevice));

    obs::Metrics root;
    (*image)->ExportMetrics(root);
    EXPECT_GT(root.CounterOr("image.writes"), 0u);
    EXPECT_GT(root.CounterOr("obs.ops_finished"), 0u);
    EXPECT_GT(root.CounterOr("obs.spans_recorded"), 0u);
    EXPECT_GT(root.CounterOr("cluster.store.transactions"), 0u);
    EXPECT_GT(root.CounterOr("cluster.device.write_ops"), 0u);
    EXPECT_GT(root.CounterOr("sim.events_processed"), 0u);
    // The trace adds no sim events: obs counters ride the same registry.
    const std::string json = root.ToJson();
    EXPECT_NE(json.find("\"image\""), std::string::npos);
    EXPECT_NE(json.find("\"obs\""), std::string::npos);
  });
}

// Pins every registry path the repository benchmark reads (by CounterOr,
// which reads a missing path as 0): a rename in any exporter fails here
// instead of silently zeroing io_amp or a per-layer metric. The image has
// every feature on: random IV with HMAC, IV cache, metadata plane, LZ, a
// client qos depth cap, cluster mClock for a tagged tenant, observability
// and the 4-core model.
TEST(ObsImage, BenchmarkRegistryPathsResolve) {
  constexpr unsigned kCores = 4;
  constexpr uint64_t kTenant = 3;
  sim::Scheduler sched;
  sched.ConfigureCores(kCores);
  dev::NvmeDevice meta_dev;
  bool done = false;
  sched.Spawn([](dev::NvmeDevice* meta_dev, bool* done) -> sim::Task<void> {
    rados::ClusterConfig cc = TestCluster();
    cc.qos.enabled = true;
    auto cluster = co_await rados::Cluster::Create(cc);
    CO_ASSERT_OK(cluster.status());
    ImageOptions o = TestImage(true);
    o.enc.integrity = core::Integrity::kHmac;
    o.enc.compression.codec = core::Compression::kLz;
    o.iv_cache.enabled = true;
    o.meta_store.enabled = true;
    o.meta_store.device = meta_dev;
    o.qos_scheduler = std::make_shared<qos::Scheduler>();
    o.qos.enabled = true;
    o.qos.max_queue_depth = 2;
    o.tenant.id = kTenant;
    auto image = co_await Image::Create(**cluster, "pin", "pw", o);
    CO_ASSERT_OK(image.status());
    CO_ASSERT_TRUE((*image)->object_meta().has_plane());
    CO_ASSERT_TRUE(co_await MixedRun(**image, 64));
    CO_ASSERT_OK(co_await (*image)->Flush());
    co_await (*cluster)->Drain();

    const obs::Metrics m = (*image)->MetricsSnapshot();
    for (const char* c :
         {"writes", "reads", "discards", "bytes_written", "bytes_read",
          "wb_stages", "wb_hits", "wb_flushes", "rmw_blocks", "iv_hits",
          "iv_misses", "iv_meta_bytes_fetched", "iv_evictions",
          "trim_bitmap_updates", "trim_state_loads", "meta_spills",
          "meta_journal_flushes", "meta_kv_wal_bytes",
          "meta_kv_compaction_bytes", "compress_in_bytes", "compress_blocks",
          "compress_verbatim_blocks", "compress_stored_bytes", "qos_wait_ns",
          "qos_queued", "qos_submitted"}) {
      EXPECT_NE(m.FindCounter(std::string("image.") + c), nullptr) << c;
    }
    EXPECT_GT(m.CounterOr("image.qos_queued"), 0u) << "depth cap idle";
    EXPECT_GT(m.CounterOr("image.compress_in_bytes"), 0u);
    for (const char* c :
         {"cluster.store.transactions", "cluster.store.journal_bytes",
          "cluster.store.rmw_sectors", "cluster.store.sector_cache_hits",
          "cluster.device.bytes_read",
          "cluster.device.bytes_written", "cluster.device.read_ops",
          "cluster.device.write_ops", "cluster.mon.degraded_writes",
          "cluster.mon.osd_timeouts", "cluster.mon.map_refreshes",
          "cluster.mon.eagain_redirects", "cluster.recovery.objects_pushed",
          "cluster.recovery.bytes_pushed", "cluster.recovery.inline_pulls",
          "cluster.recovery.stale_pushes",
          "cluster.recovery.objects_unrecoverable",
          "cluster.net.client.egress_bytes"}) {
      EXPECT_NE(m.FindCounter(c), nullptr) << c;
    }
    EXPECT_NE(m.FindGauge("cluster.space.total_bytes"), nullptr);
    EXPECT_NE(m.FindGauge("cluster.space.free_bytes"), nullptr);
    size_t tagged_osds = 0;
    for (size_t i = 0; i < (*cluster)->osd_count(); ++i) {
      const std::string osd = "cluster.osd." + std::to_string(i);
      EXPECT_NE(m.FindGauge(osd + ".up"), nullptr) << osd;
      if (m.FindCounter(osd + ".qos.tenant_" + std::to_string(kTenant) +
                        ".wait_ns") != nullptr) {
        tagged_osds++;
      }
    }
    EXPECT_GT(tagged_osds, 0u) << "no OSD exported the tenant's mClock wait";
    for (size_t n = 0; n < cc.nodes; ++n) {
      const std::string nic =
          "cluster.net.node_" + std::to_string(n) + ".egress_bytes";
      EXPECT_NE(m.FindCounter(nic), nullptr) << nic;
    }
    EXPECT_NE(m.FindHist("obs.latency_ns"), nullptr);
    for (size_t s = 0; s < obs::kNumStages; ++s) {
      const std::string hist = std::string("obs.stage_") +
                               obs::StageName(static_cast<obs::Stage>(s)) +
                               "_ns";
      EXPECT_NE(m.FindHist(hist), nullptr) << hist;
    }
    for (unsigned c = 0; c < kCores; ++c) {
      const std::string busy = "sim.core" + std::to_string(c) + "_busy_ns";
      EXPECT_NE(m.FindCounter(busy), nullptr) << busy;
    }
    CO_ASSERT_OK(co_await (*image)->Close());
    *done = true;
  }(&meta_dev, &done));
  sched.Run();
  EXPECT_TRUE(done);
}

// Op tracker under depth: issue 32 writes without awaiting, dump the
// in-flight set synchronously, then wait for everything.
TEST(ObsImage, OpTrackerDumpsInFlightAtDepth) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    // Full-block writes write through (only sub-block writes stage), so
    // every issued op is genuinely in flight until its transaction lands.
    auto image =
        co_await Image::Create(**cluster, "obs", "pw", TestImage(true));
    CO_ASSERT_OK(image.status());
    auto& img = **image;

    Rng rng(3);
    const Bytes buf = rng.RandomBytes(4096);
    std::vector<CompletionPtr> completions;
    for (size_t i = 0; i < 32; ++i) {
      auto c = Completion::Create();
      if (i % 4 == 3) {
        img.AioDiscard(i * 8192, 4096, c);
      } else {
        img.AioWrite(buf, i * 8192, c);
      }
      completions.push_back(std::move(c));
    }
    // Synchronous dump: submissions registered, nothing completed yet
    // (completion requires at least one sim event).
    const sim::SimTime now = sim::Scheduler::Current().now();
    EXPECT_EQ(img.obs().op_tracker().inflight_count(), 32u);
    const auto inflight = img.obs().op_tracker().InFlight(now);
    CO_ASSERT_EQ(inflight.size(), 32u);
    const std::string dump = img.obs().op_tracker().FormatInFlight(now);
    EXPECT_NE(dump.find("in-flight ops: 32"), std::string::npos);
    EXPECT_NE(dump.find("write"), std::string::npos);
    EXPECT_NE(dump.find("discard"), std::string::npos);

    for (auto& c : completions) {
      co_await c->Wait();
      CO_ASSERT_OK(c->status());
      // The completion carries the trace: closed stage accounting.
      CO_ASSERT_TRUE(c->trace() != nullptr);
      sim::SimTime sum = 0;
      for (size_t s = 0; s < obs::kNumStages; ++s) {
        sum += c->trace()->stage_ns()[s];
      }
      EXPECT_GT(sum, 0u);
    }
    EXPECT_EQ(img.obs().op_tracker().inflight_count(), 0u);
    EXPECT_EQ(img.obs().op_tracker().finished(), 32u);
  });
}

}  // namespace
}  // namespace vde::rbd
