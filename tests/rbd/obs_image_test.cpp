// Image-level observability integration: disabled observability is a
// bit-identical sim-clock passthrough, span sums partition each op's
// latency exactly, a traced run covers every instrumented layer, and the
// op tracker dumps in-flight ops mid-run at depth. Runs in both ctest
// shards (single-core and VDE_SIM_CORES=4).
#include <gtest/gtest.h>

#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>

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


// Every path of `m` with its kind, one "kind path" line each, sorted and
// without values. Numbered children collapse to <n>: osd.<n>, node_<n>,
// tenant_<n>, core<n>.
std::string RegistryShape(const obs::Metrics& m) {
  static const std::regex kNumbered("(osd\\.|node_|tenant_|core)[0-9]+");
  std::set<std::string> lines;
  std::istringstream text(m.ToText());
  for (std::string line; std::getline(text, line);) {
    const std::string path = line.substr(0, line.find_first_of(" :"));
    const char* kind = m.FindCounter(path) != nullptr ? "counter"
                       : m.FindGauge(path) != nullptr ? "gauge"
                       : m.FindHist(path) != nullptr  ? "hist"
                                                      : "unresolved";
    lines.insert(std::string(kind) + " " +
                 std::regex_replace(path, kNumbered, "$1<n>"));
  }
  std::string shape;
  for (const std::string& line : lines) shape += line + "\n";
  return shape;
}

constexpr const char* kRegistryShape = R"(counter cluster.device.bytes_read
counter cluster.device.bytes_written
counter cluster.device.read_ops
counter cluster.device.sectors_read
counter cluster.device.sectors_written
counter cluster.device.write_ops
counter cluster.mon.degraded_writes
counter cluster.mon.eagain_redirects
counter cluster.mon.map_refreshes
counter cluster.mon.osd_timeouts
counter cluster.mon.skipped_replicas
counter cluster.net.client.egress_bytes
counter cluster.net.client.ingress_bytes
counter cluster.net.mon.egress_bytes
counter cluster.net.mon.ingress_bytes
counter cluster.net.node_<n>.egress_bytes
counter cluster.net.node_<n>.ingress_bytes
counter cluster.osd.<n>.device.bytes_read
counter cluster.osd.<n>.device.bytes_written
counter cluster.osd.<n>.device.read_ops
counter cluster.osd.<n>.device.sectors_read
counter cluster.osd.<n>.device.sectors_written
counter cluster.osd.<n>.device.write_ops
counter cluster.osd.<n>.net.egress_bytes
counter cluster.osd.<n>.net.ingress_bytes
counter cluster.osd.<n>.qos.tenant_<n>.admitted
counter cluster.osd.<n>.qos.tenant_<n>.depth_deferred
counter cluster.osd.<n>.qos.tenant_<n>.queued
counter cluster.osd.<n>.qos.tenant_<n>.reservation_dispatches
counter cluster.osd.<n>.qos.tenant_<n>.submitted
counter cluster.osd.<n>.qos.tenant_<n>.throttled
counter cluster.osd.<n>.qos.tenant_<n>.wait_ns
counter cluster.osd.<n>.store.apply_sectors_written
counter cluster.osd.<n>.store.bytes_restored
counter cluster.osd.<n>.store.bytes_trimmed
counter cluster.osd.<n>.store.clones
counter cluster.osd.<n>.store.journal_bytes
counter cluster.osd.<n>.store.objects_created
counter cluster.osd.<n>.store.rmw_sectors
counter cluster.osd.<n>.store.sector_cache_hits
counter cluster.osd.<n>.store.transactions
counter cluster.osd.<n>.store.trim_ops
counter cluster.osd.<n>.store.trimmed_reads
counter cluster.recovery.bytes_pushed
counter cluster.recovery.inline_pulls
counter cluster.recovery.objects_pushed
counter cluster.recovery.objects_unrecoverable
counter cluster.recovery.stale_pushes
counter cluster.store.apply_sectors_written
counter cluster.store.bytes_restored
counter cluster.store.bytes_trimmed
counter cluster.store.clones
counter cluster.store.journal_bytes
counter cluster.store.objects_created
counter cluster.store.rmw_sectors
counter cluster.store.sector_cache_hits
counter cluster.store.transactions
counter cluster.store.trim_ops
counter cluster.store.trimmed_reads
counter image.bytes_discarded
counter image.bytes_read
counter image.bytes_written
counter image.compress_blocks
counter image.compress_expanded_blocks
counter image.compress_in_bytes
counter image.compress_stored_bytes
counter image.compress_verbatim_blocks
counter image.discards
counter image.flushes
counter image.iv_evictions
counter image.iv_hits
counter image.iv_invalidations
counter image.iv_meta_bytes_fetched
counter image.iv_meta_bytes_saved
counter image.iv_misses
counter image.meta_cold_resets
counter image.meta_epoch_rejections
counter image.meta_gc_rows
counter image.meta_journal_flushes
counter image.meta_kv_compaction_bytes
counter image.meta_kv_flush_bytes
counter image.meta_kv_wal_bytes
counter image.meta_kv_wal_commits
counter image.meta_recovered_rows
counter image.meta_spills
counter image.meta_warm_hits
counter image.qos_queued
counter image.qos_submitted
counter image.qos_throttled
counter image.qos_wait_ns
counter image.reads
counter image.rmw_blocks
counter image.rmw_merged
counter image.trim_bitmap_updates
counter image.trim_state_loads
counter image.trim_zero_reads
counter image.wb_evictions
counter image.wb_flushes
counter image.wb_hits
counter image.wb_stages
counter image.writes
counter obs.ops_finished
counter obs.ops_started
counter obs.spans_dropped
counter obs.spans_recorded
counter qos.tenant_<n>.admitted
counter qos.tenant_<n>.depth_deferred
counter qos.tenant_<n>.queued
counter qos.tenant_<n>.reservation_dispatches
counter qos.tenant_<n>.submitted
counter qos.tenant_<n>.throttled
counter qos.tenant_<n>.wait_ns
counter sim.core<n>_busy_ns
counter sim.events_processed
gauge cluster.mon.client_epoch
gauge cluster.mon.epoch
gauge cluster.mon.osds_up
gauge cluster.osd.<n>.qos.inflight
gauge cluster.osd.<n>.qos.queued
gauge cluster.osd.<n>.qos.tenant_<n>.inflight
gauge cluster.osd.<n>.qos.tenant_<n>.peak_inflight
gauge cluster.osd.<n>.qos.tenant_<n>.peak_queue
gauge cluster.osd.<n>.up
gauge cluster.osd.<n>.weight
gauge cluster.recovery.degraded_objects
gauge cluster.space.fragments
gauge cluster.space.free_bytes
gauge cluster.space.punched_bytes
gauge cluster.space.punched_fragments
gauge cluster.space.total_bytes
gauge image.qos_peak_queue
gauge image.wb_staged_blocks
gauge obs.enabled
gauge obs.ops_inflight
gauge qos.inflight
gauge qos.queued
gauge qos.tenant_<n>.inflight
gauge qos.tenant_<n>.peak_inflight
gauge qos.tenant_<n>.peak_queue
gauge sim.core_model
gauge sim.cores
hist obs.latency_ns
hist obs.stage_compress_ns
hist obs.stage_crypto_ns
hist obs.stage_device_ns
hist obs.stage_other_ns
hist obs.stage_qos_ns
hist obs.stage_recovery_ns
hist obs.stage_replicate_ns
hist obs.stage_store_ns
hist obs.stage_wb_ns
)";

// The registry of the all-features image of BenchmarkRegistryPathsResolve
// after a mixed run: path for path and kind for kind, so an exporter
// change that renames, drops, adds or re-kinds an entry fails here.
TEST(ObsImage, RegistryShapeGolden) {
  sim::Scheduler sched;
  sched.ConfigureCores(4);
  dev::NvmeDevice meta_dev;
  std::string shape;
  sched.Spawn([](dev::NvmeDevice* meta_dev,
                 std::string* shape) -> sim::Task<void> {
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
    o.tenant.id = 3;
    auto image = co_await Image::Create(**cluster, "pin", "pw", o);
    CO_ASSERT_OK(image.status());
    CO_ASSERT_TRUE(co_await MixedRun(**image, 64));
    CO_ASSERT_OK(co_await (*image)->Flush());
    co_await (*cluster)->Drain();
    *shape = RegistryShape((*image)->MetricsSnapshot());
    CO_ASSERT_OK(co_await (*image)->Close());
  }(&meta_dev, &shape));
  sched.Run();
  EXPECT_EQ(shape, kRegistryShape);
}

// Every counter of the cluster's `store` and `device` nodes is the sum of
// the same counter over the per-OSD nodes, after a mixed run (writes,
// reads, discards, a snapshot) during which OSD 0 goes down, comes back
// and recovers.
TEST(ObsImage, ClusterTotalsSumTheOsds) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    CO_ASSERT_OK(cluster.status());
    auto image =
        co_await Image::Create(**cluster, "sum", "pw", TestImage(false));
    CO_ASSERT_OK(image.status());
    CO_ASSERT_TRUE(co_await MixedRun(**image, 48));
    CO_ASSERT_OK((co_await (*image)->SnapCreate("mid")).status());
    (*cluster)->MarkOsdDown(0);
    CO_ASSERT_TRUE(co_await MixedRun(**image, 48));
    (*cluster)->MarkOsdUp(0);
    CO_ASSERT_OK(co_await (*image)->Flush());
    co_await (*cluster)->Drain();
    EXPECT_GT((*cluster)->recovery().stats().objects_pushed, 0u);

    obs::Metrics node;
    (*cluster)->ExportMetrics(node);
    // "osd.<id>.store.<name> = v" and "store.<name> = v", same for device.
    static const std::regex kLine(
        "(?:osd\\.[0-9]+\\.)?(store|device)\\.([a-z_]+) = ([0-9]+)");
    std::map<std::string, uint64_t> totals, sums;
    std::istringstream text(node.ToText());
    for (std::string line; std::getline(text, line);) {
      std::smatch match;
      if (!std::regex_match(line, match, kLine)) continue;
      const std::string name = match[1].str() + "." + match[2].str();
      const uint64_t value = std::stoull(match[3].str());
      if (line.starts_with("osd.")) {
        sums[name] += value;
      } else {
        totals[name] = value;
      }
    }
    EXPECT_GT(totals["store.trim_ops"], 0u);
    EXPECT_GT(totals["store.clones"], 0u);
    EXPECT_GT(totals["device.read_ops"], 0u);
    for (const auto& [name, total] : totals) {
      EXPECT_TRUE(node.FindCounter(name) != nullptr) << name;
      EXPECT_EQ(total, sums[name]) << name;
    }
    EXPECT_EQ(sums.size(), totals.size());
  });
}

}  // namespace
}  // namespace vde::rbd
