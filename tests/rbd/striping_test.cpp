// Guest-side striping tests: the stripe-unit/stripe-count mapping math,
// header persistence of the geometry, invalid-geometry rejection, verify-
// mode mutating fio across stripe geometries and queue depths, the RMW
// lost-update regression with striping + write-back on, and sim-clock
// determinism of the N-core CPU model at every core count.
#include <algorithm>
#include <gtest/gtest.h>

#include "../testutil.h"
#include "rbd/image.h"
#include "util/rng.h"
#include "workload/fio.h"

namespace vde::rbd {
namespace {

using testutil::TestCluster;

constexpr uint64_t kObjSize = 64 * 1024;  // 16 blocks per object
constexpr uint64_t kImgSize = 8ull << 20;
constexpr uint64_t kBlk = core::kBlockSize;

ImageOptions StripedImage(uint64_t stripe_unit, uint64_t stripe_count) {
  ImageOptions o;
  o.size = kImgSize;
  o.object_size = kObjSize;
  o.enc.mode = core::CipherMode::kXtsRandom;
  o.enc.layout = core::IvLayout::kObjectEnd;
  o.enc.iv_seed = 7;
  o.luks.pbkdf2_iterations = 10;
  o.luks.af_stripes = 8;
  o.stripe_unit = stripe_unit;
  o.stripe_count = stripe_count;
  return o;
}

// --- Mapping math --------------------------------------------------------

TEST(Striping, DefaultsMatchContiguousLayout) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    auto image = co_await Image::Create(**cluster, "flat", "pw",
                                        StripedImage(0, 1));
    CO_ASSERT_OK(image.status());
    EXPECT_EQ((*image)->stripe_unit(), kObjSize);
    EXPECT_EQ((*image)->stripe_count(), 1u);
    for (const uint64_t off :
         {uint64_t{0}, uint64_t{512}, kObjSize - kBlk, kObjSize,
          3 * kObjSize + 5 * kBlk + 17}) {
      const Image::StripeRun at = (*image)->MapOffset(off);
      EXPECT_EQ(at.object_no, off / kObjSize) << off;
      EXPECT_EQ(at.in_obj, off % kObjSize) << off;
      EXPECT_EQ(at.run, kObjSize - off % kObjSize) << off;
    }
  });
}

TEST(Striping, MapOffsetStripedMath) {
  testutil::RunSim([]() -> sim::Task<void> {
    constexpr uint64_t kSu = 16 * 1024;  // 4 units per object
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    auto image = co_await Image::Create(**cluster, "striped", "pw",
                                        StripedImage(kSu, 4));
    CO_ASSERT_OK(image.status());
    struct Case {
      uint64_t off, object_no, in_obj, run;
    };
    // One object set = 4 objects x 4 units = 256 KiB. Consecutive units
    // rotate across the set's objects; unit k of the rotation lands at
    // row k/4 of object k%4.
    const Case cases[] = {
        {0, 0, 0, kSu},
        {kSu, 1, 0, kSu},                    // unit 1 -> next object
        {3 * kSu, 3, 0, kSu},                // last object of the set
        {4 * kSu, 0, kSu, kSu},              // wraps to row 1 of object 0
        {15 * kSu, 3, 3 * kSu, kSu},         // last unit of the set
        {16 * kSu, 4, 0, kSu},               // second object set
        {kSu + 512, 1, 512, kSu - 512},      // run ends at the unit edge
        {5 * kSu + kBlk, 1, kSu + kBlk, kSu - kBlk},
    };
    for (const Case& c : cases) {
      const Image::StripeRun at = (*image)->MapOffset(c.off);
      EXPECT_EQ(at.object_no, c.object_no) << c.off;
      EXPECT_EQ(at.in_obj, c.in_obj) << c.off;
      EXPECT_EQ(at.run, c.run) << c.off;
    }
  });
}

// --- Header persistence and validation -----------------------------------

TEST(Striping, GeometryRoundTripsThroughHeader) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    Rng rng(61);
    // Spans several stripe units and both object sets.
    const Bytes data = rng.RandomBytes(160 * 1024);
    {
      auto image = co_await Image::Create(**cluster, "geo", "pw",
                                          StripedImage(8 * 1024, 4));
      CO_ASSERT_OK(image.status());
      CO_ASSERT_OK(co_await (*image)->Write(4096, data));
      CO_ASSERT_OK(co_await (*image)->Flush());
      CO_ASSERT_OK(co_await (*image)->Close());
    }
    auto reopened = co_await Image::Open(**cluster, "geo", "pw");
    CO_ASSERT_OK(reopened.status());
    EXPECT_EQ((*reopened)->stripe_unit(), 8 * 1024u);
    EXPECT_EQ((*reopened)->stripe_count(), 4u);
    auto got = co_await (*reopened)->Read(4096, data.size());
    CO_ASSERT_OK(got.status());
    EXPECT_TRUE(*got == data);
  });
}

TEST(Striping, InvalidGeometryRejected) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    // Not block-aligned.
    auto a = co_await Image::Create(**cluster, "bad-a", "pw",
                                    StripedImage(1000, 4));
    EXPECT_FALSE(a.ok());
    // Larger than the object.
    auto b = co_await Image::Create(**cluster, "bad-b", "pw",
                                    StripedImage(2 * kObjSize, 4));
    EXPECT_FALSE(b.ok());
    // Not a divisor of the object size.
    auto c = co_await Image::Create(**cluster, "bad-c", "pw",
                                    StripedImage(24 * 1024, 4));
    EXPECT_FALSE(c.ok());
    // stripe_count 0 is normalized to 1, not rejected.
    auto d = co_await Image::Create(**cluster, "zero-sc", "pw",
                                    StripedImage(0, 0));
    CO_ASSERT_OK(d.status());
    EXPECT_EQ((*d)->stripe_count(), 1u);
    CO_ASSERT_OK(co_await (*d)->Close());
    auto reopened = co_await Image::Open(**cluster, "zero-sc", "pw");
    CO_ASSERT_OK(reopened.status());
    EXPECT_EQ((*reopened)->stripe_count(), 1u);
  });
}

// --- Mutating verify fio across geometries and depths --------------------

struct Geometry {
  uint64_t su;
  uint64_t sc;
};

class StripingGeometries : public ::testing::TestWithParam<Geometry> {};

INSTANTIATE_TEST_SUITE_P(
    Geometries, StripingGeometries,
    ::testing::Values(Geometry{0, 1}, Geometry{16 * 1024, 4},
                      Geometry{4096, 8}),
    [](const ::testing::TestParamInfo<Geometry>& info) {
      return "su" + std::to_string(info.param.su / 1024) + "k_sc" +
             std::to_string(info.param.sc);
    });

// Verify-mode fio with sub-block writes, then a full read-back check, then
// writes racing discards — at queue depths 1, 8, and 32. The issue-time
// content model catches lost or torn RMWs in any stripe geometry.
TEST_P(StripingGeometries, VerifyFioMutatingAtDepth) {
  for (const size_t qd : {size_t{1}, size_t{8}, size_t{32}}) {
    testutil::RunSim([geo = GetParam(), qd]() -> sim::Task<void> {
      auto cluster = co_await rados::Cluster::Create(TestCluster());
      auto image = co_await Image::Create(**cluster, "vfio", "pw",
                                          StripedImage(geo.su, geo.sc));
      CO_ASSERT_OK(image.status());
      auto& img = **image;
      workload::FioConfig cfg;
      cfg.is_write = true;
      cfg.io_size = 4608;  // straddles blocks: RMW at every unit edge
      cfg.offset_align = 512;
      cfg.total_ops = 96;
      cfg.queue_depth = qd;
      cfg.working_set = 1 << 20;
      cfg.verify = true;
      cfg.seed = 71 + qd;
      workload::FioRunner writer(img, cfg);
      CO_ASSERT_OK(co_await writer.Prefill());
      auto wres = co_await writer.Run();
      CO_ASSERT_OK(wres.status());
      EXPECT_EQ(wres->ops, cfg.total_ops);

      workload::FioConfig check = cfg;
      check.is_write = false;
      workload::FioRunner reader(img, check);
      auto rres = co_await reader.Run();
      CO_ASSERT_OK(rres.status());

      workload::FioConfig mix = cfg;
      mix.discard_pct = 25;
      mix.seed = cfg.seed + 1;
      workload::FioRunner mixer(img, mix);
      CO_ASSERT_OK(co_await mixer.Prefill());
      auto mres = co_await mixer.Run();
      CO_ASSERT_OK(mres.status());
      EXPECT_EQ(mres->ops, cfg.total_ops);
    });
  }
}

// --- Lost-update regression with striping + write-back on ----------------

// Two concurrent sub-block writes to disjoint byte ranges of one block of
// a striped image: the write-back range guards must serialize the RMW
// windows exactly as in the contiguous layout (the stripe map changes
// which object holds the block, never the within-block merge).
TEST(Striping, ConcurrentDisjointSubBlockWritesBothApply) {
  for (const bool coalesce : {true, false}) {
    testutil::RunSim([coalesce]() -> sim::Task<void> {
      auto cluster = co_await rados::Cluster::Create(TestCluster());
      ImageOptions opts = StripedImage(16 * 1024, 4);
      opts.writeback.coalesce = coalesce;
      auto image = co_await Image::Create(**cluster, "race", "pw", opts);
      CO_ASSERT_OK(image.status());
      auto& img = **image;
      Rng rng(41);
      // Block 4 sits in stripe unit 1 -> object 1 of the first set.
      const uint64_t base = 16 * 1024;
      Bytes model = rng.RandomBytes(kBlk);
      CO_ASSERT_OK(co_await img.Write(base, model));

      const Bytes patch_a = rng.RandomBytes(512);
      const Bytes patch_b = rng.RandomBytes(512);
      auto ca = Completion::Create();
      auto cb = Completion::Create();
      img.AioWrite(patch_a, base, ca);
      img.AioWrite(patch_b, base + 2048, cb);
      co_await ca->Wait();
      co_await cb->Wait();
      CO_ASSERT_OK(ca->status());
      CO_ASSERT_OK(cb->status());
      std::copy(patch_a.begin(), patch_a.end(), model.begin());
      std::copy(patch_b.begin(), patch_b.end(), model.begin() + 2048);

      CO_ASSERT_OK(co_await img.Flush());
      auto got = co_await img.Read(base, kBlk);
      CO_ASSERT_OK(got.status());
      EXPECT_TRUE(*got == model) << "lost update with coalesce=" << coalesce;
    });
  }
}

// --- Determinism across core counts --------------------------------------

struct DetPoint {
  sim::SimTime end_time = 0;
  uint64_t ops = 0;
  uint64_t bytes = 0;
  bool ok = false;
};

// One verify-mode striped run on a fresh scheduler with `cores` CPU model
// cores (0 = disabled). The N-core model is a cost model, not a threading
// model: the same seed must land on the same clock every time.
DetPoint RunDeterminismPoint(size_t cores) {
  DetPoint point;
  sim::Scheduler sched;
  if (cores > 0) sched.ConfigureCores(cores);
  auto body = [&]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    if (!cluster.ok()) co_return;
    auto image = co_await Image::Create(**cluster, "det", "pw",
                                        StripedImage(16 * 1024, 4));
    if (!image.ok()) co_return;
    workload::FioConfig cfg;
    cfg.is_write = true;
    cfg.io_size = 4096;
    cfg.total_ops = 64;
    cfg.queue_depth = 8;
    cfg.working_set = 1 << 20;
    cfg.verify = true;
    cfg.seed = 91;
    workload::FioRunner runner(**image, cfg);
    if (!(co_await runner.Prefill()).ok()) co_return;
    auto result = co_await runner.Run();
    if (!result.ok()) co_return;
    point.ops = result->ops;
    point.bytes = result->bytes;
    if (!(co_await (*image)->Flush()).ok()) co_return;
    co_await (*cluster)->Drain();
    point.end_time = sim::Scheduler::Current().now();
    point.ok = true;
  };
  sched.Spawn(body());
  sched.Run();
  return point;
}

TEST(Striping, DeterministicAtEveryCoreCount) {
  for (const size_t cores : {size_t{0}, size_t{1}, size_t{2}, size_t{4}}) {
    const DetPoint a = RunDeterminismPoint(cores);
    const DetPoint b = RunDeterminismPoint(cores);
    ASSERT_TRUE(a.ok && b.ok) << "cores=" << cores;
    EXPECT_EQ(a.end_time, b.end_time) << "cores=" << cores;
    EXPECT_EQ(a.ops, b.ops) << "cores=" << cores;
    EXPECT_EQ(a.bytes, b.bytes) << "cores=" << cores;
  }
  // The verified IO totals also match across core counts — only the
  // clock placement of CPU charges moves.
  const DetPoint off = RunDeterminismPoint(0);
  const DetPoint quad = RunDeterminismPoint(4);
  ASSERT_TRUE(off.ok && quad.ok);
  EXPECT_EQ(off.ops, quad.ops);
  EXPECT_EQ(off.bytes, quad.bytes);
}

}  // namespace
}  // namespace vde::rbd
