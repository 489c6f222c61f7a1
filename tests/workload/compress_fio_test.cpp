// The compressibility knob: a codec-enabled image must store roughly
// (100 - compressibility_pct)% of each written block — the knob is only
// useful for capacity experiments if the achieved ratio tracks it — and
// verify mode must keep composing with the shaped content.
#include "workload/fio.h"

#include <gtest/gtest.h>

#include <cmath>

#include "../testutil.h"

namespace vde::workload {
namespace {

using testutil::ImageCounter;

rados::ClusterConfig SubBlockAllocCluster() {
  rados::ClusterConfig c = testutil::TestCluster();
  c.store.alloc_unit = 512;
  return c;
}

sim::Task<Result<std::shared_ptr<rbd::Image>>> MakeCompressedImage(
    rados::Cluster& cluster) {
  rbd::ImageOptions options;
  options.size = 64ull << 20;
  options.enc.mode = core::CipherMode::kXtsRandom;
  options.enc.layout = core::IvLayout::kObjectEnd;
  options.enc.iv_seed = 5;
  options.enc.compression.codec = core::Compression::kLz;
  options.luks.pbkdf2_iterations = 10;
  options.luks.af_stripes = 8;
  co_return co_await rbd::Image::Create(cluster, "cwl", "pw", options);
}

// Writes with compressibility_pct = `pct` and returns stored/logical from
// the image's compression counters.
double AchievedRatio(uint32_t pct) {
  double ratio = -1.0;
  testutil::RunSim([pct, &ratio]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(SubBlockAllocCluster());
    auto image = co_await MakeCompressedImage(**cluster);
    CO_ASSERT_OK(image.status());
    FioConfig cfg;
    cfg.is_write = true;
    cfg.io_size = 4096;
    cfg.queue_depth = 8;
    cfg.total_ops = 256;
    cfg.seed = 9;
    cfg.compressibility_pct = pct;
    FioRunner runner(**image, cfg);
    auto result = co_await runner.Run();
    CO_ASSERT_OK(result.status());
    const obs::Metrics& s = result->metrics;
    CO_ASSERT_TRUE(ImageCounter(s, "compress_in_bytes") > 0);
    ratio = static_cast<double>(ImageCounter(s, "compress_stored_bytes")) /
            static_cast<double>(ImageCounter(s, "compress_in_bytes"));
  });
  return ratio;
}

// The acceptance check: the achieved stored/logical ratio tracks the knob
// within 5 points across its range. pct=0 is pure random data — verbatim
// blocks, ratio exactly 1.0 (min_gain refuses marginal compressions).
TEST(CompressFio, AchievedRatioTracksCompressibilityKnob) {
  EXPECT_DOUBLE_EQ(AchievedRatio(0), 1.0);
  for (const uint32_t pct : {30u, 60u, 90u}) {
    const double expected = (100.0 - pct) / 100.0;
    const double got = AchievedRatio(pct);
    EXPECT_LT(std::abs(got - expected), 0.05)
        << "pct=" << pct << " achieved=" << got << " expected=" << expected;
  }
}

// Shaped content still round-trips: mutating verify over 60%-compressible
// data, including discards, so the content model and the codec agree at
// every queue-depth interleaving.
TEST(CompressFio, VerifyComposesWithShapedContent) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(SubBlockAllocCluster());
    auto image = co_await MakeCompressedImage(**cluster);
    CO_ASSERT_OK(image.status());
    FioConfig cfg;
    cfg.rw_mix_pct = 50;
    cfg.discard_pct = 10;
    cfg.io_size = 4096;
    cfg.queue_depth = 8;
    cfg.total_ops = 128;
    cfg.working_set = 2ull << 20;
    cfg.seed = 13;
    cfg.compressibility_pct = 60;
    cfg.verify = true;
    FioRunner runner(**image, cfg);
    CO_ASSERT_OK(co_await runner.Prefill());
    auto result = co_await runner.Run();
    CO_ASSERT_OK(result.status());
    EXPECT_GT(ImageCounter(result->metrics, "compress_blocks"), 0u);
  });
}

// The knob must reject out-of-range values like every other percentage.
TEST(CompressFio, RejectsOutOfRangeKnob) {
  FioConfig cfg;
  cfg.compressibility_pct = 101;
  EXPECT_FALSE(cfg.Validate().ok());
}

}  // namespace
}  // namespace vde::workload
