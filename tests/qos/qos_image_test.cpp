// Integration tests of the QoS scheduler behind rbd::Image: passthrough
// mode is bit-identical to running without a scheduler (and keeps PR 2's
// lost-update regression guarantees), enabled policies throttle and cap
// in-flight depth without breaking ordering or verify-mode content, flush
// barriers hold through the dispatch queue, and a saturating noisy
// neighbor held to its caps cannot starve the victim.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "../testutil.h"
#include "qos/scheduler.h"
#include "rbd/image.h"
#include "workload/fio.h"

namespace vde::rbd {
namespace {

using testutil::ImageCounter;
using testutil::RunSim;
using testutil::SingleReplicaCluster;
using workload::FioConfig;
using workload::FioResult;
using workload::FioTenant;
using workload::FioTenantResult;
using workload::FioRunner;
using workload::MultiFioRunner;

constexpr uint64_t kObjSize = 64 * 1024;  // 16 blocks: cheap cross-object IO
constexpr uint64_t kImgSize = 8ull << 20;
constexpr uint64_t kBlk = core::kBlockSize;

ImageOptions TestImage(core::EncryptionSpec spec) {
  ImageOptions o;
  o.size = kImgSize;
  o.object_size = kObjSize;
  o.enc = spec;
  o.enc.iv_seed = 7;
  o.luks.pbkdf2_iterations = 10;
  o.luks.af_stripes = 8;
  return o;
}

core::EncryptionSpec ObjectEndSpec() {
  core::EncryptionSpec s;
  s.mode = core::CipherMode::kXtsRandom;
  s.layout = core::IvLayout::kObjectEnd;
  return s;
}

// Runs one fio workload on a fresh cluster+image; `qos`/`policy` configure
// the image's tenant slot (null = no scheduler at all). Returns the final
// sim time through `end_time` — the strongest equality check we have for
// the zero-overhead passthrough requirement.
struct WorkloadOutcome {
  FioResult result;
  obs::Metrics stats;
  bool ok = false;
};

sim::Task<void> RunWorkload(std::shared_ptr<qos::Scheduler> qos,
                            qos::QosPolicy policy, FioConfig fio,
                            WorkloadOutcome* out) {
  auto cluster = co_await rados::Cluster::Create(SingleReplicaCluster());
  CO_ASSERT_OK(cluster.status());
  ImageOptions options = TestImage(ObjectEndSpec());
  options.qos_scheduler = std::move(qos);
  options.qos = policy;
  auto image = co_await Image::Create(**cluster, "img", "pw", options);
  CO_ASSERT_OK(image.status());
  FioRunner runner(**image, fio);
  if (!fio.is_write && fio.WritePct() < 100) {
    CO_ASSERT_OK(co_await runner.Prefill());
    CO_ASSERT_OK(co_await (*image)->Flush());
    co_await (*cluster)->Drain();
  }
  auto result = co_await runner.Run();
  CO_ASSERT_OK(result.status());
  CO_ASSERT_OK(co_await (*image)->Flush());
  co_await (*cluster)->Drain();
  out->result = std::move(*result);
  out->stats = (*image)->MetricsSnapshot();
  out->ok = true;
}

FioConfig SmallRandReads() {
  FioConfig fio;
  fio.io_size = kBlk;
  fio.queue_depth = 8;
  fio.total_ops = 128;
  fio.working_set = 2ull << 20;
  return fio;
}

TEST(QosImage, DisabledPolicyIsBitIdenticalToNoScheduler) {
  // The acceptance bar for passthrough: attaching a scheduler with a
  // disabled policy must not move a single simulated nanosecond relative
  // to no scheduler at all — same fio timings, same stats, same clock.
  sim::SimTime end_none = 0, end_passthrough = 0;
  WorkloadOutcome none, passthrough;
  {
    sim::Scheduler sched;
    sched.Spawn(RunWorkload(nullptr, {}, SmallRandReads(), &none));
    end_none = sched.Run();
  }
  {
    sim::Scheduler sched;
    auto qos = std::make_shared<qos::Scheduler>();
    sched.Spawn(RunWorkload(qos, qos::QosPolicy{}, SmallRandReads(),
                            &passthrough));
    end_passthrough = sched.Run();
  }
  ASSERT_TRUE(none.ok);
  ASSERT_TRUE(passthrough.ok);
  EXPECT_EQ(end_none, end_passthrough) << "passthrough added sim work";
  EXPECT_EQ(none.result.duration, passthrough.result.duration);
  EXPECT_EQ(none.result.latency_ns.max(), passthrough.result.latency_ns.max());
  EXPECT_EQ(ImageCounter(none.stats, "reads"),
            ImageCounter(passthrough.stats, "reads"));
  EXPECT_EQ(ImageCounter(passthrough.stats, "qos_submitted"), 0u);
}

TEST(QosImage, LostUpdateRegressionHoldsThroughEnabledQos) {
  // PR 2's signature race, routed through an enabled (throttled) queue:
  // two concurrent sub-block writes to disjoint byte ranges of one block
  // must both apply — per-image FIFO dispatch preserves the submission
  // order the write-back guards rely on.
  RunSim([]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(SingleReplicaCluster());
    CO_ASSERT_OK(cluster.status());
    auto qos = std::make_shared<qos::Scheduler>();
    ImageOptions options = TestImage(ObjectEndSpec());
    options.qos_scheduler = qos;
    options.qos.enabled = true;
    options.qos.max_iops = 20000;
    options.qos.burst_ops = 2;
    options.qos.max_queue_depth = 2;
    auto image = co_await Image::Create(**cluster, "img", "pw", options);
    CO_ASSERT_OK(image.status());
    auto& img = **image;

    const Bytes a(512, 0xAA);
    const Bytes b(512, 0xBB);
    auto ca = Completion::Create();
    auto cb = Completion::Create();
    // Disjoint byte ranges of block 0, submitted back to back.
    img.AioWrite(a, 0, ca);
    img.AioWrite(b, 1024, cb);
    co_await ca->Wait();
    co_await cb->Wait();
    CO_ASSERT_OK(ca->status());
    CO_ASSERT_OK(cb->status());
    CO_ASSERT_OK(co_await img.Flush());

    auto got = co_await img.Read(0, 2048);
    CO_ASSERT_OK(got.status());
    EXPECT_TRUE(std::all_of(got->begin(), got->begin() + 512,
                            [](uint8_t v) { return v == 0xAA; }))
        << "first write lost";
    EXPECT_TRUE(std::all_of(got->begin() + 1024, got->begin() + 1536,
                            [](uint8_t v) { return v == 0xBB; }))
        << "second write lost";
    EXPECT_GT(ImageCounter(img, "qos_submitted"), 0u);
  });
}

TEST(QosImage, VerifyFioMutatingThroughThrottledQos) {
  // Content correctness under throttling: a mixed read/write/discard
  // verify run at depth 8 through a tight token bucket + depth cap.
  RunSim([]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(SingleReplicaCluster());
    CO_ASSERT_OK(cluster.status());
    auto qos = std::make_shared<qos::Scheduler>();
    ImageOptions options = TestImage(ObjectEndSpec());
    options.qos_scheduler = qos;
    options.qos.enabled = true;
    options.qos.max_iops = 4000;
    options.qos.burst_ops = 4;
    options.qos.max_queue_depth = 4;
    auto image = co_await Image::Create(**cluster, "img", "pw", options);
    CO_ASSERT_OK(image.status());

    FioConfig fio;
    fio.rw_mix_pct = 50;
    fio.discard_pct = 10;
    fio.io_size = 2048;
    fio.offset_align = 512;
    fio.queue_depth = 8;
    fio.total_ops = 192;
    fio.working_set = 1ull << 20;
    fio.verify = true;
    FioRunner runner(**image, fio);
    CO_ASSERT_OK(co_await runner.Prefill());
    CO_ASSERT_OK(co_await (*image)->Flush());
    auto result = co_await runner.Run();
    CO_ASSERT_OK(result.status());
    EXPECT_EQ(result->ops, 192u);
    EXPECT_GT(result->read_ops, 0u);
    EXPECT_GT(result->write_ops, 0u);
    const obs::Metrics stats = (*image)->MetricsSnapshot();
    EXPECT_GT(ImageCounter(stats, "qos_submitted"), 0u);
    EXPECT_GT(ImageCounter(stats, "qos_throttled"), 0u);
    CO_ASSERT_OK(co_await (*image)->Flush());
  });
}

TEST(QosImage, IopsCeilingBoundsMeasuredThroughput) {
  RunSim([]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(SingleReplicaCluster());
    CO_ASSERT_OK(cluster.status());
    auto qos = std::make_shared<qos::Scheduler>();
    ImageOptions options = TestImage(ObjectEndSpec());
    options.qos_scheduler = qos;
    options.qos.enabled = true;
    options.qos.max_iops = 2000;
    options.qos.burst_ops = 1;
    auto image = co_await Image::Create(**cluster, "img", "pw", options);
    CO_ASSERT_OK(image.status());

    FioConfig fio;
    fio.is_write = true;
    fio.io_size = kBlk;
    fio.queue_depth = 16;  // far more demand than the ceiling admits
    fio.total_ops = 100;
    fio.working_set = 2ull << 20;
    FioRunner runner(**image, fio);
    auto result = co_await runner.Run();
    CO_ASSERT_OK(result.status());
    // 100 ops at <= 2000 IOPS need >= ~50 ms of simulated time; allow the
    // one-op burst headroom.
    EXPECT_LE(result->Iops(), 2100.0);
    EXPECT_GT(ImageCounter(**image, "qos_throttled"), 0u);
    CO_ASSERT_OK(co_await (*image)->Flush());
  });
}

TEST(QosImage, DepthCapBoundsInflightBelowGuestQueueDepth) {
  RunSim([]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(SingleReplicaCluster());
    CO_ASSERT_OK(cluster.status());
    auto qos = std::make_shared<qos::Scheduler>();
    ImageOptions options = TestImage(ObjectEndSpec());
    options.qos_scheduler = qos;
    options.qos.enabled = true;
    options.qos.max_queue_depth = 2;
    auto image = co_await Image::Create(**cluster, "img", "pw", options);
    CO_ASSERT_OK(image.status());

    FioConfig fio;
    fio.is_write = true;
    fio.io_size = kBlk;
    fio.queue_depth = 12;
    fio.total_ops = 96;
    fio.working_set = 2ull << 20;
    FioRunner runner(**image, fio);
    auto result = co_await runner.Run();
    CO_ASSERT_OK(result.status());
    const qos::TenantStats& ts = qos->stats((*image)->qos_tenant());
    EXPECT_EQ(ts.peak_inflight, 2u) << "depth cap not enforced";
    EXPECT_GT(ts.depth_deferred, 0u);
    const obs::Metrics m = (*image)->MetricsSnapshot();
    CO_ASSERT_TRUE(m.FindGauge("image.qos_peak_queue") != nullptr);
    EXPECT_GT(*m.FindGauge("image.qos_peak_queue"), 0.0);
    CO_ASSERT_OK(co_await (*image)->Flush());
  });
}

TEST(QosImage, FlushBarrierHoldsThroughThrottledQueue) {
  // AioFlush submitted behind throttled writes must cover them all: FIFO
  // dispatch keeps the barrier behind the writes it fences, and the flush
  // itself pays no tokens.
  RunSim([]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(SingleReplicaCluster());
    CO_ASSERT_OK(cluster.status());
    auto qos = std::make_shared<qos::Scheduler>();
    ImageOptions options = TestImage(ObjectEndSpec());
    options.qos_scheduler = qos;
    options.qos.enabled = true;
    options.qos.max_iops = 2000;
    options.qos.burst_ops = 1;
    auto image = co_await Image::Create(**cluster, "img", "pw", options);
    CO_ASSERT_OK(image.status());
    auto& img = **image;

    // Sub-block writes park in the write-back stage; the flush must drain
    // every one of them even though they dispatch ~ms apart.
    std::vector<CompletionPtr> writes;
    Bytes payload(512, 0x5A);
    for (int i = 0; i < 8; ++i) {
      auto c = Completion::Create();
      img.AioWrite(payload, static_cast<uint64_t>(i) * kBlk + 256, c);
      writes.push_back(std::move(c));
    }
    auto flush = Completion::Create();
    img.AioFlush(flush);
    co_await flush->Wait();
    CO_ASSERT_OK(flush->status());
    for (auto& c : writes) {
      EXPECT_TRUE(c->complete()) << "flush resolved before a prior write";
      CO_ASSERT_OK(c->status());
    }
    EXPECT_EQ(img.writeback().staged_blocks(), 0u)
        << "flush left staged bytes behind";
  });
}

// --- Noisy neighbor ---

struct NeighborOutcome {
  FioResult victim;
  FioResult aggressor;
  bool ok = false;
};

// Victim: latency-sensitive 4 KiB random reads. Aggressor: deep-queue
// 64 KiB write stream, background (runs as long as the victim). With
// `use_qos`, both images share one scheduler and the aggressor is
// rate-limited + depth-capped.
sim::Task<void> RunNeighbors(bool use_qos, NeighborOutcome* out) {
  auto cluster = co_await rados::Cluster::Create(SingleReplicaCluster());
  CO_ASSERT_OK(cluster.status());
  std::shared_ptr<qos::Scheduler> qos;
  qos::QosPolicy victim_policy, aggressor_policy;
  if (use_qos) {
    // The aggressor's caps do the isolating here (weighted sharing of a
    // finite slot pool is a different contention shape, covered by
    // scheduler_test's fairness case — bounding the slots in THIS
    // scenario would squeeze the victim's own dispatch too).
    qos = std::make_shared<qos::Scheduler>();
    victim_policy.enabled = true;
    aggressor_policy.enabled = true;
    aggressor_policy.max_bps = 16ull << 20;  // 16 MiB/s
    aggressor_policy.max_queue_depth = 2;
  }
  ImageOptions vopt = TestImage(ObjectEndSpec());
  vopt.qos_scheduler = qos;
  vopt.qos = victim_policy;
  auto victim_img = co_await Image::Create(**cluster, "victim", "pw", vopt);
  CO_ASSERT_OK(victim_img.status());
  ImageOptions aopt = TestImage(ObjectEndSpec());
  aopt.qos_scheduler = qos;
  aopt.qos = aggressor_policy;
  auto aggressor_img =
      co_await Image::Create(**cluster, "aggressor", "pw", aopt);
  CO_ASSERT_OK(aggressor_img.status());

  FioConfig victim_fio = SmallRandReads();
  FioConfig aggressor_fio;
  aggressor_fio.is_write = true;
  aggressor_fio.io_size = 64 * 1024;
  aggressor_fio.queue_depth = 16;
  aggressor_fio.total_ops = 1u << 30;  // bounded by the victim finishing
  aggressor_fio.working_set = 4ull << 20;

  MultiFioRunner multi({
      {"victim", victim_img->get(), victim_fio, /*background=*/false},
      {"aggressor", aggressor_img->get(), aggressor_fio,
       /*background=*/true},
  });
  // Prefill only the victim (runner 0); the aggressor writes.
  CO_ASSERT_OK(co_await multi.runner(0).Prefill());
  CO_ASSERT_OK(co_await (*victim_img)->Flush());
  co_await (*cluster)->Drain();
  auto results = co_await multi.Run();
  CO_ASSERT_OK(results.status());
  CO_ASSERT_OK(co_await (*victim_img)->Flush());
  CO_ASSERT_OK(co_await (*aggressor_img)->Flush());
  co_await (*cluster)->Drain();
  out->victim = std::move((*results)[0].result);
  out->aggressor = std::move((*results)[1].result);
  out->ok = true;
}

TEST(QosImage, SaturatingNeighborDoesNotStarveWeightedVictim) {
  WorkloadOutcome solo;
  {
    sim::Scheduler sched;
    sched.Spawn(RunWorkload(nullptr, {}, SmallRandReads(), &solo));
    sched.Run();
  }
  NeighborOutcome unprotected, protected_;
  {
    sim::Scheduler sched;
    sched.Spawn(RunNeighbors(/*use_qos=*/false, &unprotected));
    sched.Run();
  }
  {
    sim::Scheduler sched;
    sched.Spawn(RunNeighbors(/*use_qos=*/true, &protected_));
    sched.Run();
  }
  ASSERT_TRUE(solo.ok);
  ASSERT_TRUE(unprotected.ok);
  ASSERT_TRUE(protected_.ok);
  const double p99_solo = solo.result.latency_ns.Percentile(99);
  const double p99_noisy = unprotected.victim.latency_ns.Percentile(99);
  const double p99_qos = protected_.victim.latency_ns.Percentile(99);
  // The aggressor really ran both times (partial background results).
  EXPECT_GT(unprotected.aggressor.ops, 0u);
  EXPECT_GT(protected_.aggressor.ops, 0u);
  // Unprotected, the victim degrades; with QoS its p99 must come back to
  // within 2x of the solo run (the acceptance bar) and strictly beat the
  // unprotected run.
  EXPECT_GT(p99_noisy, p99_solo) << "aggressor produced no contention";
  EXPECT_LT(p99_qos, p99_noisy);
  EXPECT_LE(p99_qos, 2.0 * p99_solo)
      << "p99 solo=" << p99_solo / 1e3 << "us noisy=" << p99_noisy / 1e3
      << "us qos=" << p99_qos / 1e3 << "us";
  // And the aggressor was actually rate-limited, not just lucky.
  EXPECT_LT(protected_.aggressor.BandwidthMBps(),
            unprotected.aggressor.BandwidthMBps());
}

TEST(QosImage, MultiFioRejectsAllBackgroundRuns) {
  RunSim([]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(SingleReplicaCluster());
    CO_ASSERT_OK(cluster.status());
    auto image = co_await Image::Create(**cluster, "img", "pw",
                                        TestImage(ObjectEndSpec()));
    CO_ASSERT_OK(image.status());
    FioConfig fio;
    fio.is_write = true;
    fio.total_ops = 4;
    MultiFioRunner multi({{"bg", image->get(), fio, /*background=*/true}});
    auto result = co_await multi.Run();
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  });
}

}  // namespace
}  // namespace vde::rbd
