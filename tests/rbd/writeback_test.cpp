// Tests of the per-image write-back layer: the RMW lost-update regression
// (concurrent sub-block writes to disjoint byte ranges of one 4 KiB block),
// coalescing of adjacent 512 B streams into one RMW read + one transaction,
// read-your-writes overlay, discard/write-zeroes draining, flush/snapshot
// durability barriers, merge-window close, pressure eviction (overlapped
// with the evicting miss's RMW read), and verify-mode fio with writes and
// discards at queue depth >= 8, also under constant buffer pressure.
#include <algorithm>
#include <gtest/gtest.h>

#include "../testutil.h"
#include "rbd/image.h"
#include "util/rng.h"
#include "workload/fio.h"

namespace vde::rbd {
namespace {

using testutil::ImageCounter;
using testutil::SingleReplicaCluster;
using testutil::TestCluster;

constexpr uint64_t kObjSize = 64 * 1024;  // 16 blocks: cheap cross-object IO
constexpr uint64_t kImgSize = 8ull << 20;
constexpr uint64_t kBlk = core::kBlockSize;

uint64_t TxnCount(rados::Cluster& cluster) {
  uint64_t n = 0;
  for (size_t i = 0; i < cluster.osd_count(); ++i) {
    n += cluster.osd(i).store().stats().transactions;
  }
  return n;
}

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

core::EncryptionSpec Spec(core::CipherMode mode, core::IvLayout layout,
                          core::Integrity integrity = core::Integrity::kNone) {
  core::EncryptionSpec s;
  s.mode = mode;
  s.layout = layout;
  s.integrity = integrity;
  return s;
}

// The four layouts of the paper (Fig. 2) plus integrity/AEAD variants.
std::vector<core::EncryptionSpec> AllLayouts() {
  return {
      Spec(core::CipherMode::kXtsLba, core::IvLayout::kNone),  // LUKS2 base
      Spec(core::CipherMode::kXtsRandom, core::IvLayout::kUnaligned),
      Spec(core::CipherMode::kXtsRandom, core::IvLayout::kObjectEnd),
      Spec(core::CipherMode::kXtsRandom, core::IvLayout::kOmap),
      Spec(core::CipherMode::kXtsRandom, core::IvLayout::kObjectEnd,
           core::Integrity::kHmac),
      Spec(core::CipherMode::kGcmRandom, core::IvLayout::kOmap),
  };
}

std::string SpecTestName(const ::testing::TestParamInfo<core::EncryptionSpec>&
                             info) {
  std::string name = info.param.Name();
  for (char& c : name) {
    if (c == '/' || c == '-' || c == '+') c = '_';
  }
  return name;
}

class WritebackAllLayouts
    : public ::testing::TestWithParam<core::EncryptionSpec> {};

INSTANTIATE_TEST_SUITE_P(AllLayouts, WritebackAllLayouts,
                         ::testing::ValuesIn(AllLayouts()), SpecTestName);

// THE regression: two concurrent writes to disjoint byte ranges of the same
// 4 KiB block. Without the write-back guards both writes read the old block
// concurrently in their RMW, each overlaid only its own bytes, and the last
// transaction erased the other update.
TEST_P(WritebackAllLayouts, ConcurrentDisjointSubBlockWritesBothApply) {
  for (const bool coalesce : {true, false}) {
    testutil::RunSim([spec = GetParam(), coalesce]() -> sim::Task<void> {
      auto cluster = co_await rados::Cluster::Create(TestCluster());
      ImageOptions opts = TestImage(spec);
      // coalesce=false forces the write-through RMW path: the guard table
      // alone must serialize it (the staging buffer is a policy, the
      // guards are the correctness fix).
      opts.writeback.coalesce = coalesce;
      auto image = co_await Image::Create(**cluster, "race", "pw", opts);
      CO_ASSERT_OK(image.status());
      auto& img = **image;
      Rng rng(41);
      Bytes model = rng.RandomBytes(kBlk);
      CO_ASSERT_OK(co_await img.Write(0, model));

      const Bytes patch_a = rng.RandomBytes(512);
      const Bytes patch_b = rng.RandomBytes(512);
      auto ca = Completion::Create();
      auto cb = Completion::Create();
      img.AioWrite(patch_a, 0, ca);          // bytes [0, 512)
      img.AioWrite(patch_b, 2048, cb);       // bytes [2048, 2560)
      co_await ca->Wait();
      co_await cb->Wait();
      CO_ASSERT_OK(ca->status());
      CO_ASSERT_OK(cb->status());
      std::copy(patch_a.begin(), patch_a.end(), model.begin());
      std::copy(patch_b.begin(), patch_b.end(), model.begin() + 2048);

      CO_ASSERT_OK(co_await img.Flush());
      auto got = co_await img.Read(0, kBlk);
      CO_ASSERT_OK(got.status());
      EXPECT_TRUE(*got == model) << "lost update with coalesce=" << coalesce;
    });
  }
}

// Same race through the write-through path: two multi-block writes whose
// covers share one block (disjoint halves of block 2). Both are too big to
// stage, so the block-range guards must serialize their RMW windows.
TEST_P(WritebackAllLayouts, OverlappingWriteThroughCoversSerialize) {
  testutil::RunSim([spec = GetParam()]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    auto image =
        co_await Image::Create(**cluster, "wt-race", "pw", TestImage(spec));
    CO_ASSERT_OK(image.status());
    auto& img = **image;
    Rng rng(42);
    Bytes model = rng.RandomBytes(6 * kBlk);
    CO_ASSERT_OK(co_await img.Write(0, model));

    // w1 covers blocks 0..2 (ends mid-block 2), w2 covers blocks 2..4
    // (starts mid-block 2): disjoint bytes, one shared block.
    const Bytes w1 = rng.RandomBytes(2 * kBlk);   // [2048, 10240)
    const Bytes w2 = rng.RandomBytes(2 * kBlk);   // [10240, 18432)
    auto c1 = Completion::Create();
    auto c2 = Completion::Create();
    img.AioWrite(w1, 2048, c1);
    img.AioWrite(w2, 2048 + w1.size(), c2);
    co_await c1->Wait();
    co_await c2->Wait();
    CO_ASSERT_OK(c1->status());
    CO_ASSERT_OK(c2->status());
    std::copy(w1.begin(), w1.end(), model.begin() + 2048);
    std::copy(w2.begin(), w2.end(),
              model.begin() + 2048 + static_cast<long>(w1.size()));

    CO_ASSERT_OK(co_await img.Flush());
    auto got = co_await img.Read(0, model.size());
    CO_ASSERT_OK(got.status());
    CO_ASSERT_TRUE(*got == model);
  });
}

// N adjacent 512 B writes to one block: one RMW read + one flush
// transaction, not N of each.
TEST(Writeback, CoalescesAdjacentSubBlockWrites) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(SingleReplicaCluster());
    ImageOptions opts = TestImage(
        Spec(core::CipherMode::kXtsRandom, core::IvLayout::kObjectEnd));
    opts.writeback.flush_window = 100 * sim::kMs;  // keep the window open
    auto image = co_await Image::Create(**cluster, "coalesce", "pw", opts);
    CO_ASSERT_OK(image.status());
    auto& img = **image;
    Rng rng(43);
    CO_ASSERT_OK(co_await img.Write(0, rng.RandomBytes(2 * kBlk)));
    CO_ASSERT_OK(co_await img.Flush());

    Bytes model(kBlk);
    const uint64_t before = TxnCount(**cluster);
    const uint64_t rmw_before = ImageCounter(img, "rmw_blocks");
    for (int i = 0; i < 8; ++i) {
      const Bytes sector = rng.RandomBytes(512);
      CO_ASSERT_OK(co_await img.Write(i * 512, sector));
      std::copy(sector.begin(), sector.end(),
                model.begin() + static_cast<long>(i) * 512);
    }
    EXPECT_EQ(ImageCounter(img, "wb_stages"), 1u);
    EXPECT_EQ(ImageCounter(img, "wb_hits"), 7u);
    EXPECT_EQ(ImageCounter(img, "rmw_blocks") - rmw_before, 1u)
        << "one RMW read for 8 sub-block writes";
    EXPECT_EQ(TxnCount(**cluster) - before, 0u)
        << "no transactions while staged";

    CO_ASSERT_OK(co_await img.Flush());
    EXPECT_EQ(ImageCounter(img, "wb_flushes"), 1u);
    EXPECT_EQ(TxnCount(**cluster) - before, 1u)
        << "8 writes coalesced into one transaction";
    auto got = co_await img.Read(0, kBlk);
    CO_ASSERT_OK(got.status());
    CO_ASSERT_TRUE(*got == model);
  });
}

// Reads observe completed-but-unflushed writes (volatile cache semantics).
TEST_P(WritebackAllLayouts, ReadSeesStagedData) {
  testutil::RunSim([spec = GetParam()]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    ImageOptions opts = TestImage(spec);
    opts.writeback.flush_window = 100 * sim::kMs;
    auto image = co_await Image::Create(**cluster, "rds", "pw", opts);
    CO_ASSERT_OK(image.status());
    auto& img = **image;
    Rng rng(44);
    Bytes model = rng.RandomBytes(2 * kBlk);
    CO_ASSERT_OK(co_await img.Write(0, model));

    const Bytes patch = rng.RandomBytes(700);
    CO_ASSERT_OK(co_await img.Write(1500, patch));  // staged, not flushed
    std::copy(patch.begin(), patch.end(), model.begin() + 1500);
    EXPECT_GT(img.writeback().staged_blocks(), 0u);

    auto got = co_await img.Read(0, model.size());
    CO_ASSERT_OK(got.status());
    CO_ASSERT_TRUE(*got == model);
    // An unaligned read of just part of the staged range.
    auto sub = co_await img.Read(1600, 400);
    CO_ASSERT_OK(sub.status());
    CO_ASSERT_TRUE(std::equal(sub->begin(), sub->end(),
                              model.begin() + 1600));

    CO_ASSERT_OK(co_await img.Flush());
    EXPECT_EQ(img.writeback().staged_blocks(), 0u);
    auto after = co_await img.Read(0, model.size());
    CO_ASSERT_OK(after.status());
    CO_ASSERT_TRUE(*after == model);
  });
}

// Discarding a block with staged bytes drops the stage: nothing may
// resurrect trimmed data, not even a later flush.
TEST_P(WritebackAllLayouts, DiscardDropsStagedData) {
  testutil::RunSim([spec = GetParam()]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    ImageOptions opts = TestImage(spec);
    opts.writeback.flush_window = 100 * sim::kMs;
    auto image = co_await Image::Create(**cluster, "dds", "pw", opts);
    CO_ASSERT_OK(image.status());
    auto& img = **image;
    Rng rng(45);
    CO_ASSERT_OK(co_await img.Write(0, rng.RandomBytes(2 * kBlk)));

    CO_ASSERT_OK(co_await img.Write(100, rng.RandomBytes(512)));  // staged
    EXPECT_GT(img.writeback().staged_blocks(), 0u);
    CO_ASSERT_OK(co_await img.Discard(0, kBlk));
    EXPECT_EQ(img.writeback().staged_blocks(), 0u);

    CO_ASSERT_OK(co_await img.Flush());
    auto got = co_await img.Read(0, kBlk);
    CO_ASSERT_OK(got.status());
    CO_ASSERT_TRUE(std::all_of(got->begin(), got->end(),
                               [](uint8_t b) { return b == 0; }));
  });
}

// Write-zeroes over a partially staged block folds the staged bytes into
// its RMW (the store copy is stale) and zeroes exactly the asked range.
TEST_P(WritebackAllLayouts, WriteZeroesAbsorbsStagedBytes) {
  testutil::RunSim([spec = GetParam()]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    ImageOptions opts = TestImage(spec);
    opts.writeback.flush_window = 100 * sim::kMs;
    auto image = co_await Image::Create(**cluster, "wzs", "pw", opts);
    CO_ASSERT_OK(image.status());
    auto& img = **image;
    Rng rng(46);
    Bytes model = rng.RandomBytes(kBlk);
    CO_ASSERT_OK(co_await img.Write(0, model));

    const Bytes patch = rng.RandomBytes(512);
    CO_ASSERT_OK(co_await img.Write(100, patch));  // staged
    std::copy(patch.begin(), patch.end(), model.begin() + 100);

    CO_ASSERT_OK(co_await img.WriteZeroes(50, 300));
    std::fill(model.begin() + 50, model.begin() + 350, 0);
    EXPECT_GT(ImageCounter(img, "rmw_merged"), 0u)
        << "edge RMW must come from the stage, not the stale store copy";

    CO_ASSERT_OK(co_await img.Flush());
    auto got = co_await img.Read(0, kBlk);
    CO_ASSERT_OK(got.status());
    CO_ASSERT_TRUE(*got == model);
  });
}

// A snapshot is a durability barrier: staged bytes written before it must
// be served by snap reads after later overwrites.
TEST(Writeback, SnapshotCapturesStagedWrites) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    ImageOptions opts = TestImage(
        Spec(core::CipherMode::kXtsRandom, core::IvLayout::kOmap));
    opts.writeback.flush_window = 100 * sim::kMs;
    auto image = co_await Image::Create(**cluster, "snapwb", "pw", opts);
    CO_ASSERT_OK(image.status());
    auto& img = **image;
    Rng rng(47);
    Bytes v1 = rng.RandomBytes(kBlk);
    CO_ASSERT_OK(co_await img.Write(0, v1));

    const Bytes patch = rng.RandomBytes(512);
    CO_ASSERT_OK(co_await img.Write(1024, patch));  // staged
    std::copy(patch.begin(), patch.end(), v1.begin() + 1024);
    auto snap = co_await img.SnapCreate("with-staged");
    CO_ASSERT_OK(snap.status());
    EXPECT_EQ(img.writeback().staged_blocks(), 0u)
        << "SnapCreate must drain the buffer";

    CO_ASSERT_OK(co_await img.Write(0, rng.RandomBytes(kBlk)));
    CO_ASSERT_OK(co_await img.Flush());
    auto old = co_await img.Read(0, kBlk, *snap);
    CO_ASSERT_OK(old.status());
    CO_ASSERT_TRUE(*old == v1);
  });
}

// Closing the merge window writes the accumulated content out but keeps
// coalescing on top of the retained block.
TEST(Writeback, MergeWindowCloseWritesOut) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(SingleReplicaCluster());
    ImageOptions opts = TestImage(
        Spec(core::CipherMode::kXtsRandom, core::IvLayout::kObjectEnd));
    opts.writeback.flush_window = 1 * sim::kMs;
    auto image = co_await Image::Create(**cluster, "window", "pw", opts);
    CO_ASSERT_OK(image.status());
    auto& img = **image;
    Rng rng(48);
    Bytes model(kBlk, 0);
    for (int i = 0; i < 3; ++i) {
      const Bytes sector = rng.RandomBytes(512);
      CO_ASSERT_OK(co_await img.Write(i * 512, sector));
      std::copy(sector.begin(), sector.end(),
                model.begin() + static_cast<long>(i) * 512);
      co_await sim::Sleep{2 * sim::kMs};  // idle past the merge window
    }
    EXPECT_EQ(ImageCounter(img, "wb_stages"), 1u);
    EXPECT_EQ(ImageCounter(img, "wb_hits"), 2u);
    EXPECT_EQ(ImageCounter(img, "wb_flushes"), 2u)
        << "each window close writes the prior content out";
    CO_ASSERT_OK(co_await img.Flush());
    auto got = co_await img.Read(0, kBlk);
    CO_ASSERT_OK(got.status());
    CO_ASSERT_TRUE(*got == model);
  });
}

// Buffer pressure evicts the oldest stage from inside the staging write.
TEST(Writeback, PressureEvictsOldestStage) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    ImageOptions opts = TestImage(
        Spec(core::CipherMode::kXtsRandom, core::IvLayout::kObjectEnd));
    opts.writeback.flush_window = 100 * sim::kMs;
    opts.writeback.max_staged_blocks = 2;
    auto image = co_await Image::Create(**cluster, "pressure", "pw", opts);
    CO_ASSERT_OK(image.status());
    auto& img = **image;
    Rng rng(49);
    Bytes model(6 * kBlk, 0);
    CO_ASSERT_OK(co_await img.Write(0, model));
    for (int b = 0; b < 6; ++b) {
      const Bytes sector = rng.RandomBytes(512);
      CO_ASSERT_OK(co_await img.Write(b * kBlk + 100, sector));
      std::copy(sector.begin(), sector.end(),
                model.begin() + static_cast<long>(b) * kBlk + 100);
    }
    EXPECT_LE(img.writeback().staged_blocks(), 3u);
    EXPECT_GE(ImageCounter(img, "wb_flushes"), 3u);
    CO_ASSERT_OK(co_await img.Flush());
    EXPECT_EQ(img.writeback().staged_blocks(), 0u);
    auto got = co_await img.Read(0, model.size());
    CO_ASSERT_OK(got.status());
    CO_ASSERT_TRUE(*got == model);
  });
}

// Pressure eviction must never wait for a guard the evicting writer (or a
// concurrent writer) already holds: a straddling sub-block write stages two
// blocks under one hold with max_staged_blocks=1, so the eviction candidate
// for the second block is the first — covered by the writer's own hold.
// Eviction has to skip it instead of deadlocking.
TEST(Writeback, PressureEvictionSkipsHeldBlocks) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    ImageOptions opts = TestImage(
        Spec(core::CipherMode::kXtsRandom, core::IvLayout::kObjectEnd));
    opts.writeback.flush_window = 100 * sim::kMs;
    opts.writeback.max_staged_blocks = 1;
    auto image = co_await Image::Create(**cluster, "evict-held", "pw", opts);
    CO_ASSERT_OK(image.status());
    auto& img = **image;
    Rng rng(50);
    Bytes model = rng.RandomBytes(2 * kBlk);
    CO_ASSERT_OK(co_await img.Write(0, model));

    // 4096 B at offset 512: covers blocks 0..1 with partial edges — one
    // exclusive hold over both blocks, two stage creations.
    const Bytes patch = rng.RandomBytes(kBlk);
    CO_ASSERT_OK(co_await img.Write(512, patch));
    std::copy(patch.begin(), patch.end(), model.begin() + 512);

    CO_ASSERT_OK(co_await img.Flush());
    auto got = co_await img.Read(0, model.size());
    CO_ASSERT_OK(got.status());
    CO_ASSERT_TRUE(*got == model);
  });
}

// A staging miss under pressure writes the victim out while its own RMW
// read is in flight. Measured in one cluster: (a) a miss on an empty
// buffer, (b) the Flush of one staged block, (c) a miss that evicts. Run
// back to back, (c) would cost a + b; overlapped it costs about the
// longer of the two.
TEST(Writeback, PressureEvictionOverlapsRmwRead) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    ImageOptions opts = TestImage(
        Spec(core::CipherMode::kGcmRandom, core::IvLayout::kUnaligned));
    opts.writeback.flush_window = 100 * sim::kMs;
    opts.writeback.max_staged_blocks = 1;
    auto image = co_await Image::Create(**cluster, "overlap", "pw", opts);
    CO_ASSERT_OK(image.status());
    auto& img = **image;
    Rng rng(52);
    Bytes model = rng.RandomBytes(4 * kBlk);
    CO_ASSERT_OK(co_await img.Write(0, model));
    std::vector<Bytes> sectors;
    for (int b = 1; b <= 3; ++b) {
      sectors.push_back(rng.RandomBytes(512));
      std::copy(sectors.back().begin(), sectors.back().end(),
                model.begin() + static_cast<long>(b * kBlk + 100));
    }

    const sim::Scheduler& sched = sim::Scheduler::Current();
    sim::SimTime start = sched.now();
    CO_ASSERT_OK(co_await img.Write(1 * kBlk + 100, sectors[0]));
    const sim::SimTime miss = sched.now() - start;
    start = sched.now();
    CO_ASSERT_OK(co_await img.Flush());
    const sim::SimTime flush = sched.now() - start;
    // Stages block 2: the one-block buffer is now full.
    CO_ASSERT_OK(co_await img.Write(2 * kBlk + 100, sectors[1]));
    start = sched.now();
    CO_ASSERT_OK(co_await img.Write(3 * kBlk + 100, sectors[2]));
    const sim::SimTime evicting_miss = sched.now() - start;

    EXPECT_EQ(ImageCounter(img, "wb_evictions"), 1u);
    EXPECT_GE(evicting_miss, std::max(miss, flush));
    EXPECT_LE(evicting_miss, miss + flush - std::min(miss, flush) / 2)
        << "miss " << miss << " ns, flush " << flush << " ns";
    CO_ASSERT_OK(co_await img.Flush());
    auto got = co_await img.Read(0, model.size());
    CO_ASSERT_OK(got.status());
    CO_ASSERT_TRUE(*got == model);
  });
}

// Constant pressure on every layout: with four stage slots nearly every
// staging miss evicts while its RMW read is in flight. A straddling
// 4,608 B write stages two blocks under one hold, so its own first block
// is often the oldest stage, and eviction must skip it rather than wait.
// Verified reads and discards race the evictions at depth 8; after Flush
// the buffer is empty and the store returns every byte the staged overlay
// returned before it.
TEST_P(WritebackAllLayouts, VerifyFioUnderPressure) {
  for (const uint64_t io_size : {uint64_t{512}, uint64_t{4608}}) {
    testutil::RunSim([spec = GetParam(), io_size]() -> sim::Task<void> {
      auto cluster = co_await rados::Cluster::Create(TestCluster());
      ImageOptions opts = TestImage(spec);
      opts.writeback.max_staged_blocks = 4;
      auto image = co_await Image::Create(**cluster, "pfio", "pw", opts);
      CO_ASSERT_OK(image.status());
      auto& img = **image;
      workload::FioConfig cfg;
      cfg.rw_mix_pct = 75;
      cfg.io_size = io_size;
      cfg.offset_align = 512;
      cfg.discard_pct = 10;
      cfg.total_ops = 256;
      cfg.queue_depth = 8;
      cfg.working_set = 1 << 20;
      cfg.verify = true;
      cfg.seed = 61 + io_size;
      workload::FioRunner fio(img, cfg);
      CO_ASSERT_OK(co_await fio.Prefill());
      auto res = co_await fio.Run();
      CO_ASSERT_OK(res.status());  // a verify mismatch fails the run
      EXPECT_GT(res->read_ops, 0u);
      EXPECT_GT(res->discards, 0u);
      EXPECT_GT(ImageCounter(img, "wb_evictions"), 0u);

      // Eviction skips busy stages instead of giving up the round, so the
      // buffer overshoots its limit by at most what in-flight writes hold
      // (two blocks each).
      EXPECT_LE(img.writeback().staged_blocks(),
                opts.writeback.max_staged_blocks + 2 * cfg.queue_depth);
      auto staged = co_await img.Read(0, cfg.working_set);
      CO_ASSERT_OK(staged.status());
      CO_ASSERT_OK(co_await img.Flush());
      EXPECT_EQ(img.writeback().staged_blocks(), 0u);
      auto stored = co_await img.Read(0, cfg.working_set);
      CO_ASSERT_OK(stored.status());
      CO_ASSERT_TRUE(*stored == *staged);
    });
  }
}

// Acceptance: verify-mode fio with writes and discards at queue depth >= 8.
// Overlapping in-flight IO applies in submission order, so the issue-time
// content model stays consistent at depth. Phase 1 writes (content-true) at
// depth 8; phase 2 read-verifies every byte the concurrent writes produced
// — any torn or lost RMW decrypts to garbage and fails the check. A third
// run mixes discards into the writes at depth 8 (zero/content transitions
// racing sub-block RMWs).
TEST_P(WritebackAllLayouts, VerifyFioMutatingAtDepth8) {
  for (const uint64_t io_size : {uint64_t{512}, uint64_t{4608}}) {
    testutil::RunSim([spec = GetParam(), io_size]() -> sim::Task<void> {
      auto cluster = co_await rados::Cluster::Create(TestCluster());
      auto image =
          co_await Image::Create(**cluster, "vfio", "pw", TestImage(spec));
      CO_ASSERT_OK(image.status());
      auto& img = **image;
      workload::FioConfig cfg;
      cfg.is_write = true;
      cfg.io_size = io_size;
      cfg.offset_align = 512;
      cfg.total_ops = 96;
      cfg.queue_depth = 8;
      cfg.working_set = 1 << 20;
      cfg.verify = true;
      cfg.seed = 31 + io_size;
      workload::FioRunner writer(img, cfg);
      CO_ASSERT_OK(co_await writer.Prefill());
      EXPECT_EQ(writer.config().queue_depth, 8u) << "clamp must be gone";
      auto wres = co_await writer.Run();
      CO_ASSERT_OK(wres.status());
      EXPECT_EQ(wres->ops, cfg.total_ops);

      // Content-true writes leave every block holding seed-derived
      // content, which is exactly a fresh verify model: read it all back
      // at depth (no prefill — the concurrent writes' bytes are checked).
      workload::FioConfig check = cfg;
      check.is_write = false;
      workload::FioRunner reader(img, check);
      auto rres = co_await reader.Run();
      CO_ASSERT_OK(rres.status());

      // Writes AND discards racing at depth 8.
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

// Write-back config is client-side runtime policy: a reopen can disable
// coalescing without touching persisted metadata.
TEST(Writeback, OpenHonorsClientWritebackConfig) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    auto image = co_await Image::Create(
        **cluster, "opencfg", "pw",
        TestImage(Spec(core::CipherMode::kXtsRandom,
                       core::IvLayout::kObjectEnd)));
    CO_ASSERT_OK(image.status());
    Rng rng(51);
    const Bytes base = rng.RandomBytes(kBlk);
    CO_ASSERT_OK(co_await (*image)->Write(0, base));

    ImageOptions no_coalesce;
    no_coalesce.writeback.coalesce = false;
    auto reopened =
        co_await Image::Open(**cluster, "opencfg", "pw", no_coalesce);
    CO_ASSERT_OK(reopened.status());
    auto& img = **reopened;
    const Bytes patch = rng.RandomBytes(512);
    CO_ASSERT_OK(co_await img.Write(700, patch));
    EXPECT_EQ(ImageCounter(img, "wb_stages"), 0u)
        << "sub-block write must go through";
    auto got = co_await img.Read(700, patch.size());
    CO_ASSERT_OK(got.status());
    CO_ASSERT_TRUE(*got == patch);
  });
}

// The db preset coalesces: measurably fewer transactions per guest write
// than one (head issued >= 1 txn per sub-block write, plus RMW reads).
TEST(Writeback, DbStreamCoalescesTransactions) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(SingleReplicaCluster());
    auto image = co_await Image::Create(
        **cluster, "db", "pw",
        TestImage(Spec(core::CipherMode::kXtsRandom,
                       core::IvLayout::kObjectEnd)));
    CO_ASSERT_OK(image.status());
    auto& img = **image;
    workload::FioConfig cfg = workload::FioConfig::Db();
    cfg.total_ops = 256;
    cfg.working_set = 1 << 20;
    workload::FioRunner fio(img, cfg);
    CO_ASSERT_OK(co_await fio.Prefill());
    CO_ASSERT_OK(co_await img.Flush());
    const uint64_t before = TxnCount(**cluster);
    auto result = co_await fio.Run();
    CO_ASSERT_OK(result.status());
    CO_ASSERT_OK(co_await img.Flush());
    const uint64_t txns = TxnCount(**cluster) - before;
    const uint64_t writes = result->ops;
    EXPECT_LT(txns * 2, writes)
        << "db stream must coalesce well below one txn per write; got "
        << txns << " txns for " << writes << " writes";
    EXPECT_GT(ImageCounter(img, "wb_hits"), 0u);
  });
}

}  // namespace
}  // namespace vde::rbd
