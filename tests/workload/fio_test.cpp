// Workload driver tests: measurement mechanics, determinism, prefill/verify.
#include "workload/fio.h"

#include <gtest/gtest.h>

#include "../testutil.h"

namespace vde::workload {
namespace {

using testutil::ImageCounter;
using testutil::TestCluster;

sim::Task<Result<std::shared_ptr<rbd::Image>>> MakeImage(
    rados::Cluster& cluster, core::IvLayout layout) {
  rbd::ImageOptions options;
  options.size = 256ull << 20;
  options.enc.mode = layout == core::IvLayout::kNone
                         ? core::CipherMode::kXtsLba
                         : core::CipherMode::kXtsRandom;
  options.enc.layout = layout;
  options.enc.iv_seed = 5;
  options.luks.pbkdf2_iterations = 10;
  options.luks.af_stripes = 8;
  co_return co_await rbd::Image::Create(cluster, "wl", "pw", options);
}

TEST(Fio, WriteWorkloadCompletesAndMeasures) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    auto image = co_await MakeImage(**cluster, core::IvLayout::kNone);
    CO_ASSERT_OK(image.status());
    FioConfig cfg;
    cfg.is_write = true;
    cfg.io_size = 16384;
    cfg.queue_depth = 8;
    cfg.total_ops = 64;
    FioRunner runner(**image, cfg);
    auto result = co_await runner.Run();
    CO_ASSERT_OK(result.status());
    EXPECT_EQ(result->ops, 64u);
    EXPECT_EQ(result->bytes, 64u * 16384);
    EXPECT_GT(result->duration, 0u);
    EXPECT_GT(result->BandwidthMBps(), 0.0);
    EXPECT_EQ(result->latency_ns.count(), 64u);
  });
}

TEST(Fio, ReadAfterPrefillVerifiesContent) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    auto image = co_await MakeImage(**cluster, core::IvLayout::kObjectEnd);
    CO_ASSERT_OK(image.status());
    FioConfig cfg;
    cfg.is_write = false;
    cfg.io_size = 8192;
    cfg.queue_depth = 4;
    cfg.total_ops = 32;
    cfg.verify = true;  // decrypted content must equal prefill content
    FioRunner runner(**image, cfg);
    CO_ASSERT_OK(co_await runner.Prefill());
    auto result = co_await runner.Run();
    CO_ASSERT_OK(result.status());
    EXPECT_EQ(result->ops, 32u);
  });
}

TEST(Fio, VerifyWorksThroughEveryLayout) {
  for (const auto layout : {core::IvLayout::kUnaligned,
                            core::IvLayout::kObjectEnd,
                            core::IvLayout::kOmap}) {
    testutil::RunSim([layout]() -> sim::Task<void> {
      auto cluster = co_await rados::Cluster::Create(TestCluster());
      auto image = co_await MakeImage(**cluster, layout);
      CO_ASSERT_OK(image.status());
      FioConfig cfg;
      cfg.is_write = false;
      cfg.io_size = 4096;
      cfg.queue_depth = 4;
      cfg.total_ops = 16;
      cfg.verify = true;
      FioRunner runner(**image, cfg);
      CO_ASSERT_OK(co_await runner.Prefill());
      auto result = co_await runner.Run();
      CO_ASSERT_OK(result.status());
    });
  }
}

TEST(Fio, DeterministicAcrossRuns) {
  double bw[2] = {0, 0};
  for (int round = 0; round < 2; ++round) {
    testutil::RunSim([&bw, round]() -> sim::Task<void> {
      auto cluster = co_await rados::Cluster::Create(TestCluster());
      auto image = co_await MakeImage(**cluster, core::IvLayout::kObjectEnd);
      CO_ASSERT_OK(image.status());
      FioConfig cfg;
      cfg.is_write = true;
      cfg.io_size = 4096;
      cfg.queue_depth = 8;
      cfg.total_ops = 128;
      cfg.seed = 99;
      FioRunner runner(**image, cfg);
      auto result = co_await runner.Run();
      CO_ASSERT_OK(result.status());
      bw[round] = result->BandwidthMBps();
    });
  }
  EXPECT_DOUBLE_EQ(bw[0], bw[1])
      << "identical seeds must give identical simulated bandwidth";
}

TEST(Fio, SequentialPatternCoversWorkingSetInOrder) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    auto image = co_await MakeImage(**cluster, core::IvLayout::kNone);
    CO_ASSERT_OK(image.status());
    FioConfig cfg;
    cfg.is_write = true;
    cfg.pattern = FioConfig::Pattern::kSequential;
    cfg.io_size = 65536;
    cfg.queue_depth = 1;
    cfg.total_ops = 16;
    cfg.warmup_ops = 1;
    FioRunner runner(**image, cfg);
    auto result = co_await runner.Run();
    CO_ASSERT_OK(result.status());
    // All 16 + 1 warmup sequential 64K IOs -> image bytes written cover
    // 17 * 64K contiguously from offset 0.
    EXPECT_EQ(ImageCounter(**image, "bytes_written"), 17u * 65536);
  });
}

TEST(Fio, QueueDepthBoundsConcurrencyEffect) {
  // Higher queue depth must not reduce simulated bandwidth.
  double bw_qd1 = 0, bw_qd16 = 0;
  for (const size_t qd : {size_t{1}, size_t{16}}) {
    testutil::RunSim([qd, &bw_qd1, &bw_qd16]() -> sim::Task<void> {
      auto cluster = co_await rados::Cluster::Create(TestCluster());
      auto image = co_await MakeImage(**cluster, core::IvLayout::kNone);
      CO_ASSERT_OK(image.status());
      FioConfig cfg;
      cfg.is_write = true;
      cfg.io_size = 4096;
      cfg.queue_depth = qd;
      cfg.total_ops = 64;
      FioRunner runner(**image, cfg);
      auto result = co_await runner.Run();
      CO_ASSERT_OK(result.status());
      (qd == 1 ? bw_qd1 : bw_qd16) = result->BandwidthMBps();
    });
  }
  EXPECT_GT(bw_qd16, bw_qd1 * 4)
      << "QD16 should scale bandwidth well past QD1 at 4K";
}

TEST(Fio, InvalidConfigsAreRejectedUpFront) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    auto image = co_await MakeImage(**cluster, core::IvLayout::kNone);
    CO_ASSERT_OK(image.status());

    FioConfig zero_io;
    zero_io.io_size = 0;
    EXPECT_EQ(zero_io.Validate().code(), StatusCode::kInvalidArgument);
    FioConfig zero_qd;
    zero_qd.queue_depth = 0;
    EXPECT_EQ(zero_qd.Validate().code(), StatusCode::kInvalidArgument);
    FioConfig tiny_ws;
    tiny_ws.io_size = 8192;
    tiny_ws.working_set = 4096;
    EXPECT_EQ(tiny_ws.Validate().code(), StatusCode::kInvalidArgument);
    FioConfig bad_mix;
    bad_mix.rw_mix_pct = 101;
    EXPECT_EQ(bad_mix.Validate().code(), StatusCode::kInvalidArgument);
    bad_mix.rw_mix_pct = -50;  // only -1 (sentinel) is a valid negative
    EXPECT_EQ(bad_mix.Validate().code(), StatusCode::kInvalidArgument);
    FioConfig bad_discard;
    bad_discard.discard_pct = 101;
    EXPECT_EQ(bad_discard.Validate().code(), StatusCode::kInvalidArgument);

    // The runner reports the verdict instead of dividing by zero or
    // spinning with no workers; both entry points refuse.
    FioRunner runner(**image, zero_qd);
    auto result = co_await runner.Run();
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    FioRunner runner2(**image, zero_io);
    EXPECT_EQ((co_await runner2.Prefill()).code(),
              StatusCode::kInvalidArgument);
  });
}

TEST(Fio, RwMixDrivesBothDirectionsAndVerifies) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    auto image = co_await MakeImage(**cluster, core::IvLayout::kObjectEnd);
    CO_ASSERT_OK(image.status());
    FioConfig cfg;
    cfg.rw_mix_pct = 50;
    cfg.io_size = 4096;
    cfg.queue_depth = 8;
    cfg.total_ops = 128;
    cfg.working_set = 4ull << 20;
    cfg.verify = true;
    FioRunner runner(**image, cfg);
    CO_ASSERT_OK(co_await runner.Prefill());
    auto result = co_await runner.Run();
    CO_ASSERT_OK(result.status());
    EXPECT_EQ(result->ops, 128u);
    EXPECT_GT(result->read_ops, 16u);
    EXPECT_GT(result->write_ops, 16u);
    EXPECT_EQ(result->read_ops + result->write_ops, 128u);
    // The registry delta rode along for Summary consumers: it covers the
    // measured window, so neither the prefill nor the warmup writes count,
    // while ops issued before the window opened may complete inside it.
    EXPECT_GE(ImageCounter(result->metrics, "writes"), result->write_ops);
    EXPECT_LT(ImageCounter(result->metrics, "writes"),
              ImageCounter(**image, "writes"));
  });
}

// Every counter of the metrics delta covers the measured window and
// nothing else: at queue depth 1 the warmup writes complete before the
// first measured op is issued, so the image saw exactly total_ops writes.
TEST(Fio, MetricsDeltaExcludesWarmup) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    auto image = co_await MakeImage(**cluster, core::IvLayout::kObjectEnd);
    CO_ASSERT_OK(image.status());
    FioConfig cfg;
    cfg.is_write = true;
    cfg.io_size = 4096;
    cfg.queue_depth = 1;
    cfg.total_ops = 24;
    cfg.warmup_ops = 8;
    FioRunner runner(**image, cfg);
    auto result = co_await runner.Run();
    CO_ASSERT_OK(result.status());
    EXPECT_EQ(ImageCounter(result->metrics, "writes"), cfg.total_ops);
    EXPECT_EQ(ImageCounter(result->metrics, "bytes_written"),
              cfg.total_ops * cfg.io_size);
    EXPECT_EQ(ImageCounter(**image, "writes"),
              cfg.total_ops + cfg.warmup_ops);
  });
}

TEST(Fio, IsWriteStaysSugarForPureMixes) {
  // is_write=true with the default rw_mix_pct=-1 must behave exactly like
  // rw_mix_pct=100: identical op mix AND identical rng stream (same
  // deterministic timings).
  sim::SimTime dur_sugar = 0, dur_explicit = 0;
  for (const bool use_explicit : {false, true}) {
    testutil::RunSim(
        [use_explicit, &dur_sugar, &dur_explicit]() -> sim::Task<void> {
          auto cluster = co_await rados::Cluster::Create(TestCluster());
          auto image = co_await MakeImage(**cluster, core::IvLayout::kNone);
          CO_ASSERT_OK(image.status());
          FioConfig cfg;
          if (use_explicit) {
            cfg.rw_mix_pct = 100;
          } else {
            cfg.is_write = true;
          }
          cfg.io_size = 4096;
          cfg.queue_depth = 8;
          cfg.total_ops = 64;
          FioRunner runner(**image, cfg);
          auto result = co_await runner.Run();
          CO_ASSERT_OK(result.status());
          EXPECT_EQ(result->write_ops, 64u);
          EXPECT_EQ(result->read_ops, 0u);
          (use_explicit ? dur_explicit : dur_sugar) = result->duration;
        });
  }
  EXPECT_EQ(dur_sugar, dur_explicit);
}

TEST(Fio, SummarySurfacesWritebackCounters) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    auto image = co_await MakeImage(**cluster, core::IvLayout::kObjectEnd);
    CO_ASSERT_OK(image.status());
    FioConfig cfg = FioConfig::Db();  // 512 B stream: stages + coalesces
    cfg.total_ops = 128;
    cfg.working_set = 2ull << 20;
    FioRunner runner(**image, cfg);
    auto result = co_await runner.Run();
    CO_ASSERT_OK(result.status());
    EXPECT_GT(ImageCounter(result->metrics, "wb_hits"), 0u);
    const std::string summary = result->Summary();
    EXPECT_NE(summary.find("wb["), std::string::npos) << summary;
    EXPECT_NE(summary.find("writes="), std::string::npos) << summary;
    CO_ASSERT_OK(co_await (*image)->Flush());
  });
}

// The verify model asserts trimmed-then-read blocks as zeros at ANY
// queue depth: a mutating 512 B stream with a heavy discard mix forces
// partial writes over trimmed blocks (the kZeroPartial state — content in
// the written sub-range, hard-asserted zeros around it), so a trimmed
// byte resurrected by the RMW merge or a stale write-back stage fails the
// run instead of being skipped as "unknown".
TEST(Fio, MutatingVerifyAssertsTrimmedBytesStayZero) {
  for (const size_t qd : {1u, 8u, 32u}) {
    testutil::RunSim([qd]() -> sim::Task<void> {
      auto cluster = co_await rados::Cluster::Create(TestCluster());
      auto image = co_await MakeImage(**cluster, core::IvLayout::kObjectEnd);
      CO_ASSERT_OK(image.status());
      FioConfig cfg;
      cfg.rw_mix_pct = 40;
      cfg.io_size = 512;  // sub-block: rewrites of trimmed blocks RMW
      cfg.offset_align = 512;
      cfg.discard_pct = 25;
      cfg.queue_depth = qd;
      cfg.total_ops = 512;
      cfg.working_set = 1ull << 20;
      cfg.verify = true;
      FioRunner runner(**image, cfg);
      CO_ASSERT_OK(co_await runner.Prefill());
      auto result = co_await runner.Run();
      CO_ASSERT_OK(result.status());
      EXPECT_GT(result->discards, 0u);
      EXPECT_GT(result->read_ops, 0u);
      CO_ASSERT_OK(co_await (*image)->Flush());
    });
  }
}

// Whole-block discards at depth: trimmed blocks reread as zeros through
// the verify model (the plain kZero assertion), across a working set
// larger than one object so the full-object remove path is exercised too.
TEST(Fio, VerifyTrimmedBlocksReadZeroAcrossObjects) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    auto image = co_await MakeImage(**cluster, core::IvLayout::kOmap);
    CO_ASSERT_OK(image.status());
    FioConfig cfg;
    cfg.rw_mix_pct = 30;
    cfg.io_size = 4ull << 20;  // whole-object IOs: discard => kRemove
    cfg.discard_pct = 30;
    cfg.queue_depth = 4;
    cfg.total_ops = 48;
    cfg.working_set = 16ull << 20;
    cfg.verify = true;
    FioRunner runner(**image, cfg);
    CO_ASSERT_OK(co_await runner.Prefill());
    auto result = co_await runner.Run();
    CO_ASSERT_OK(result.status());
    EXPECT_GT(result->discards, 0u);
    CO_ASSERT_OK(co_await (*image)->Flush());
  });
}

}  // namespace
}  // namespace vde::workload
