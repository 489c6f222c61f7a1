// Persistent metadata plane: warm reopens off the local KV, crash
// consistency (cold-start degradation, never torn/stale state), rollback
// rejection via per-object write-generation epochs, and the disabled
// passthrough contract.
#include <algorithm>

#include <gtest/gtest.h>

#include "../testutil.h"
#include "device/nvme.h"
#include "rbd/image.h"
#include "util/rng.h"

namespace vde::rbd {
namespace {

using testutil::ImageCounter;

constexpr uint64_t kObjSize = 64 * 1024;  // 16 blocks
constexpr uint64_t kImgSize = 8ull << 20;
constexpr uint64_t kBlk = core::kBlockSize;

rados::ClusterConfig TestCluster() {
  rados::ClusterConfig c;
  c.store.journal_size = 8ull << 20;
  c.store.kv_region_size = 32ull << 20;
  return c;
}

core::EncryptionSpec Spec(core::CipherMode mode, core::IvLayout layout,
                          core::Integrity integrity = core::Integrity::kNone) {
  core::EncryptionSpec s;
  s.mode = mode;
  s.layout = layout;
  s.integrity = integrity;
  return s;
}

// Image options with the plane AND the IV cache on: the plane persists
// whatever the cache holds, so warm tests need both.
ImageOptions PlaneImage(core::EncryptionSpec spec, dev::BlockDevice* meta) {
  ImageOptions o;
  o.size = kImgSize;
  o.object_size = kObjSize;
  o.enc = spec;
  o.enc.iv_seed = 7;
  o.luks.pbkdf2_iterations = 10;
  o.luks.af_stripes = 8;
  o.iv_cache.enabled = true;
  o.meta_store.enabled = true;
  o.meta_store.device = meta;
  return o;
}

MetaStoreConfig PlaneConfig(dev::BlockDevice* meta) {
  MetaStoreConfig c;
  c.enabled = true;
  c.device = meta;
  return c;
}

// The three metadata geometries the warm path must cover.
std::vector<core::EncryptionSpec> HmacSpecs() {
  return {
      Spec(core::CipherMode::kXtsRandom, core::IvLayout::kUnaligned,
           core::Integrity::kHmac),
      Spec(core::CipherMode::kXtsRandom, core::IvLayout::kObjectEnd,
           core::Integrity::kHmac),
      Spec(core::CipherMode::kXtsRandom, core::IvLayout::kOmap,
           core::Integrity::kHmac),
  };
}

std::string SpecTestName(
    const ::testing::TestParamInfo<core::EncryptionSpec>& info) {
  std::string name = info.param.Name();
  for (char& c : name) {
    if (c == '/' || c == '-' || c == '+') c = '_';
  }
  return name;
}

class MetaPlaneAllGeometries
    : public ::testing::TestWithParam<core::EncryptionSpec> {};

INSTANTIATE_TEST_SUITE_P(Geometries, MetaPlaneAllGeometries,
                         ::testing::ValuesIn(HmacSpecs()), SpecTestName);

// Clean close -> reopen: the bitmap and the IV rows come off the local
// plane. The reopened image reads every block without ONE metadata byte
// or bitmap load from the object store.
TEST_P(MetaPlaneAllGeometries, WarmReopenServesMetadataLocally) {
  testutil::RunSim([spec = GetParam()]() -> sim::Task<void> {
    dev::NvmeDevice meta_dev;
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    Rng rng(21);
    const Bytes data = rng.RandomBytes(4 * kBlk);
    {
      auto image = co_await Image::Create(**cluster, "warm", "pw",
                                          PlaneImage(spec, &meta_dev));
      CO_ASSERT_OK(image.status());
      CO_ASSERT_OK(co_await (*image)->Write(0, data));
      CO_ASSERT_OK(co_await (*image)->Discard(2 * kBlk, kBlk));
      CO_ASSERT_OK(co_await (*image)->Flush());
      co_await (*cluster)->Drain();
      const obs::Metrics s = (*image)->MetricsSnapshot();
      EXPECT_GT(ImageCounter(s, "meta_spills"), 0u)
          << "writes must journal rows/bitmaps";
      EXPECT_GT(ImageCounter(s, "meta_kv_wal_commits"), 0u)
          << "plane KV stats must surface in the image registry node";
      CO_ASSERT_OK(co_await (*image)->Close());
    }
    auto reopened = co_await Image::Open(**cluster, "warm", "pw", {}, nullptr,
                                         {}, {.enabled = true},
                                         PlaneConfig(&meta_dev));
    CO_ASSERT_OK(reopened.status());
    auto& img = **reopened;
    for (uint64_t b = 0; b < 4; ++b) {
      auto got = co_await img.Read(b * kBlk, kBlk);
      CO_ASSERT_OK(got.status());
      if (b == 2) {
        EXPECT_TRUE(std::all_of(got->begin(), got->end(),
                                [](uint8_t v) { return v == 0; }));
      } else {
        EXPECT_TRUE(std::equal(got->begin(), got->end(),
                               data.begin() + static_cast<long>(b * kBlk)));
      }
    }
    const obs::Metrics s = img.MetricsSnapshot();
    EXPECT_GT(ImageCounter(s, "meta_warm_hits"), 0u);
    EXPECT_GT(ImageCounter(s, "meta_recovered_rows"), 0u);
    EXPECT_EQ(ImageCounter(s, "trim_state_loads"), 0u)
        << "warm reopen must not load the bitmap from the store";
    EXPECT_EQ(ImageCounter(s, "iv_meta_bytes_fetched"), 0u)
        << "warm reopen must not fetch IV metadata from the store";
    EXPECT_EQ(ImageCounter(s, "meta_cold_resets"), 0u);
    CO_ASSERT_OK(co_await img.Close());
  });
}

// A warm reopen with the IV cache disabled loads no rows: no read could
// use them. The bitmap still comes off the plane.
TEST(MetaStore, WarmReopenWithCacheDisabledLoadsNoRows) {
  testutil::RunSim([]() -> sim::Task<void> {
    const auto spec = Spec(core::CipherMode::kXtsRandom,
                           core::IvLayout::kObjectEnd,
                           core::Integrity::kHmac);
    dev::NvmeDevice meta_dev;
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    Rng rng(75);
    const Bytes data = rng.RandomBytes(4 * kBlk);
    {
      auto image = co_await Image::Create(**cluster, "nocache", "pw",
                                          PlaneImage(spec, &meta_dev));
      CO_ASSERT_OK(image.status());
      CO_ASSERT_OK(co_await (*image)->Write(0, data));
      CO_ASSERT_OK(co_await (*image)->Flush());
      co_await (*cluster)->Drain();
      CO_ASSERT_OK(co_await (*image)->Close());
    }
    auto reopened = co_await Image::Open(**cluster, "nocache", "pw", {},
                                         nullptr, {}, IvCacheConfig{},
                                         PlaneConfig(&meta_dev));
    CO_ASSERT_OK(reopened.status());
    auto& img = **reopened;
    auto got = co_await img.Read(0, 4 * kBlk);
    CO_ASSERT_OK(got.status());
    EXPECT_TRUE(std::equal(got->begin(), got->end(), data.begin()));
    EXPECT_EQ(img.object_meta().cached_rows(), 0u);
    const obs::Metrics s = img.MetricsSnapshot();
    EXPECT_EQ(ImageCounter(s, "meta_recovered_rows"), 0u);
    EXPECT_EQ(ImageCounter(s, "meta_warm_hits"), 1u);
    EXPECT_EQ(ImageCounter(s, "trim_state_loads"), 0u);
    CO_ASSERT_OK(co_await img.Close());
  });
}

// A session with the plane on and the IV cache off still journals the
// rows its writes and trims supersede: the next warm session with the
// cache on must not install the stale ones.
TEST(MetaStore, CacheDisabledSessionKeepsPersistedRowsFresh) {
  testutil::RunSim([]() -> sim::Task<void> {
    const auto spec = Spec(core::CipherMode::kXtsRandom,
                           core::IvLayout::kObjectEnd,
                           core::Integrity::kHmac);
    dev::NvmeDevice meta_dev;
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    Rng rng(76);
    {
      auto image = co_await Image::Create(**cluster, "fresh", "pw",
                                          PlaneImage(spec, &meta_dev));
      CO_ASSERT_OK(image.status());
      CO_ASSERT_OK(co_await (*image)->Write(0, rng.RandomBytes(2 * kBlk)));
      CO_ASSERT_OK(co_await (*image)->Close());
    }
    const Bytes v2 = rng.RandomBytes(kBlk);
    {
      auto image = co_await Image::Open(**cluster, "fresh", "pw", {}, nullptr,
                                        {}, IvCacheConfig{},
                                        PlaneConfig(&meta_dev));
      CO_ASSERT_OK(image.status());
      CO_ASSERT_OK(co_await (*image)->Write(0, v2));
      CO_ASSERT_OK(co_await (*image)->Discard(kBlk, kBlk));
      CO_ASSERT_OK(co_await (*image)->Close());
    }
    auto reopened = co_await Image::Open(**cluster, "fresh", "pw", {},
                                         nullptr, {}, {.enabled = true},
                                         PlaneConfig(&meta_dev));
    CO_ASSERT_OK(reopened.status());
    auto& img = **reopened;
    auto got = co_await img.Read(0, 2 * kBlk);
    CO_ASSERT_OK(got.status());
    EXPECT_TRUE(std::equal(v2.begin(), v2.end(), got->begin()));
    EXPECT_TRUE(std::all_of(got->begin() + static_cast<long>(kBlk),
                            got->end(), [](uint8_t v) { return v == 0; }));
    EXPECT_GT(ImageCounter(img, "meta_recovered_rows"), 0u);
    CO_ASSERT_OK(co_await img.Close());
  });
}

// No Close (crash): the clean flag stays cleared, so the reopen purges
// the persisted rows/bitmaps and degrades to a full cold start — and the
// data still reads back correctly from the authoritative store.
TEST(MetaStore, DirtyReopenColdStartsAndStaysCorrect) {
  testutil::RunSim([]() -> sim::Task<void> {
    const auto spec = Spec(core::CipherMode::kXtsRandom,
                           core::IvLayout::kObjectEnd,
                           core::Integrity::kHmac);
    dev::NvmeDevice meta_dev;
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    Rng rng(22);
    const Bytes data = rng.RandomBytes(3 * kBlk);
    {
      auto image = co_await Image::Create(**cluster, "dirty", "pw",
                                          PlaneImage(spec, &meta_dev));
      CO_ASSERT_OK(image.status());
      CO_ASSERT_OK(co_await (*image)->Write(0, data));
      CO_ASSERT_OK(co_await (*image)->Flush());
      co_await (*cluster)->Drain();
      // Dropped without Close: the journal flushed (Flush does that) but
      // the plane stays marked dirty.
    }
    auto reopened = co_await Image::Open(**cluster, "dirty", "pw", {},
                                         nullptr, {}, {.enabled = true},
                                         PlaneConfig(&meta_dev));
    CO_ASSERT_OK(reopened.status());
    auto& img = **reopened;
    auto got = co_await img.Read(0, 3 * kBlk);
    CO_ASSERT_OK(got.status());
    EXPECT_TRUE(std::equal(got->begin(), got->end(), data.begin()));
    const obs::Metrics s = img.MetricsSnapshot();
    EXPECT_GE(ImageCounter(s, "meta_cold_resets"), 1u);
    EXPECT_EQ(ImageCounter(s, "meta_warm_hits"), 0u)
        << "a dirty plane must never serve persisted state";
    EXPECT_EQ(ImageCounter(s, "meta_recovered_rows"), 0u);
    EXPECT_GT(ImageCounter(s, "iv_meta_bytes_fetched"), 0u)
        << "cold start refetches metadata from the store";
    CO_ASSERT_OK(co_await img.Close());
  });
}

// Kill between spill and KV commit: rows sit in the write-behind journal
// (never committed — the flush threshold is out of reach and the image
// dies before Flush/Close). The reopen must not see them: cold start,
// zero recovered rows, correct data. Write-through is used so the data
// reaches the store without AioFlush (which would commit the journal).
TEST(MetaStore, CrashBeforeJournalCommitLosesSpillsSafely) {
  testutil::RunSim([]() -> sim::Task<void> {
    const auto spec = Spec(core::CipherMode::kXtsRandom,
                           core::IvLayout::kUnaligned,
                           core::Integrity::kHmac);
    dev::NvmeDevice meta_dev;
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    Rng rng(23);
    const Bytes data = rng.RandomBytes(2 * kBlk);
    {
      ImageOptions o = PlaneImage(spec, &meta_dev);
      o.writeback.coalesce = false;
      o.meta_store.journal_flush_rows = 1u << 20;
      auto image = co_await Image::Create(**cluster, "torn", "pw", o);
      CO_ASSERT_OK(image.status());
      CO_ASSERT_OK(co_await (*image)->Write(0, data));
      co_await (*cluster)->Drain();
      const obs::Metrics s = (*image)->MetricsSnapshot();
      EXPECT_GT(ImageCounter(s, "meta_spills"), 0u)
          << "rows were journaled in memory";
      EXPECT_EQ(ImageCounter(s, "meta_journal_flushes"), 0u)
          << "nothing may have committed before the crash";
      // Dropped without Flush or Close: pending journal entries vanish.
    }
    auto reopened = co_await Image::Open(**cluster, "torn", "pw", {}, nullptr,
                                         {}, {.enabled = true},
                                         PlaneConfig(&meta_dev));
    CO_ASSERT_OK(reopened.status());
    auto& img = **reopened;
    auto got = co_await img.Read(0, 2 * kBlk);
    CO_ASSERT_OK(got.status());
    EXPECT_TRUE(std::equal(got->begin(), got->end(), data.begin()));
    const obs::Metrics s = img.MetricsSnapshot();
    EXPECT_GE(ImageCounter(s, "meta_cold_resets"), 1u);
    EXPECT_EQ(ImageCounter(s, "meta_recovered_rows"), 0u)
        << "uncommitted spills must never resurface";
    CO_ASSERT_OK(co_await img.Close());
  });
}

// A torn plane superblock (CRC failure) wipes the plane and reopens it
// cold — never failing the image open, never serving stale state.
TEST(MetaStore, CorruptPlaneSuperblockDegradesToCold) {
  testutil::RunSim([]() -> sim::Task<void> {
    const auto spec = Spec(core::CipherMode::kXtsRandom,
                           core::IvLayout::kObjectEnd,
                           core::Integrity::kHmac);
    dev::NvmeDevice meta_dev;
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    Rng rng(24);
    const Bytes data = rng.RandomBytes(2 * kBlk);
    {
      auto image = co_await Image::Create(**cluster, "sb", "pw",
                                          PlaneImage(spec, &meta_dev));
      CO_ASSERT_OK(image.status());
      CO_ASSERT_OK(co_await (*image)->Write(0, data));
      CO_ASSERT_OK(co_await (*image)->Flush());
      co_await (*cluster)->Drain();
      CO_ASSERT_OK(co_await (*image)->Close());
    }
    // Corrupt the superblock body (past the magic — a wrong magic just
    // looks like a fresh device; a wrong CRC is detected corruption).
    const Bytes garbage = rng.RandomBytes(16);
    meta_dev.PokeWrite(16, garbage);
    auto reopened = co_await Image::Open(**cluster, "sb", "pw", {}, nullptr,
                                         {}, {.enabled = true},
                                         PlaneConfig(&meta_dev));
    // A corrupt plane must never fail the image open.
    CO_ASSERT_OK(reopened.status());
    auto& img = **reopened;
    auto got = co_await img.Read(0, 2 * kBlk);
    CO_ASSERT_OK(got.status());
    EXPECT_TRUE(std::equal(got->begin(), got->end(), data.begin()));
    const obs::Metrics s = img.MetricsSnapshot();
    EXPECT_GE(ImageCounter(s, "meta_cold_resets"), 1u);
    EXPECT_EQ(ImageCounter(s, "meta_warm_hits"), 0u);
    CO_ASSERT_OK(co_await img.Close());
  });
}

// Rollback rejection, bitmap flavor: an attacker replays an OLD (validly
// MAC'd) bitmap record into the store. The plane's epoch floor — kept
// across the dirty-reopen purge — rejects it as Corruption. Covered
// under HMAC and GCM.
sim::Task<void> RunStaleBitmapReplay(core::EncryptionSpec spec) {
  dev::NvmeDevice meta_dev;
  auto cluster = co_await rados::Cluster::Create(TestCluster());
  Rng rng(25);
  Bytes old_record;
  const Bytes bitmap_key(1, uint8_t{'B'});
  std::string oid;
  {
    auto image = co_await Image::Create(**cluster, "replay", "pw",
                                        PlaneImage(spec, &meta_dev));
    CO_ASSERT_OK(image.status());
    oid = (*image)->ObjectName(0);
    CO_ASSERT_OK(co_await (*image)->Write(0, rng.RandomBytes(2 * kBlk)));
    CO_ASSERT_OK(co_await (*image)->Flush());
    co_await (*cluster)->Drain();
    // Snapshot the current sealed bitmap record (the attacker peeking).
    for (size_t i = 0; i < (*cluster)->osd_count(); ++i) {
      objstore::ObjectStore& os = (*cluster)->osd(i).store();
      if (!os.ObjectExists(oid)) continue;
      auto row = co_await os.PeekOmapRow(oid, bitmap_key);
      CO_ASSERT_OK(row.status());
      old_record = *row;
      break;
    }
    CO_ASSERT_FALSE(old_record.empty());
    // Advance the generation: the discard bumps the epoch and reseals.
    CO_ASSERT_OK(co_await (*image)->Discard(0, kBlk));
    CO_ASSERT_OK(co_await (*image)->Flush());
    co_await (*cluster)->Drain();
    // Dropped WITHOUT Close: the reopen purges persisted bitmaps (cold)
    // but keeps the epoch floors — the exact path rollback attacks.
  }
  // Replay the stale record on every replica.
  for (size_t i = 0; i < (*cluster)->osd_count(); ++i) {
    objstore::ObjectStore& os = (*cluster)->osd(i).store();
    if (!os.ObjectExists(oid)) continue;
    CO_ASSERT_OK(co_await os.TamperOmapRow(oid, bitmap_key, old_record));
  }
  auto reopened = co_await Image::Open(**cluster, "replay", "pw", {},
                                       nullptr, {}, {.enabled = true},
                                       PlaneConfig(&meta_dev));
  CO_ASSERT_OK(reopened.status());
  auto got = co_await (*reopened)->Read(kBlk, kBlk);
  EXPECT_EQ(got.status().code(), StatusCode::kCorruption)
      << "replayed stale bitmap must be rejected by the epoch floor, got: "
      << got.status().ToString();
  CO_ASSERT_OK(co_await (*reopened)->Close());
}

TEST(MetaStore, StaleBitmapReplayRejectedHmac) {
  testutil::RunSim([]() -> sim::Task<void> {
    co_await RunStaleBitmapReplay(Spec(core::CipherMode::kXtsRandom,
                                       core::IvLayout::kOmap,
                                       core::Integrity::kHmac));
  });
}

TEST(MetaStore, StaleBitmapReplayRejectedGcm) {
  testutil::RunSim([]() -> sim::Task<void> {
    co_await RunStaleBitmapReplay(
        Spec(core::CipherMode::kGcmRandom, core::IvLayout::kOmap));
  });
}

// Rollback rejection, IV-row flavor: a session that bypasses the plane
// overwrites a block, leaving the plane's persisted rows stale. The next
// plane-enabled open serves them warm — and the read fails ciphertext
// authentication instead of returning wrong data. Under HMAC and GCM.
sim::Task<void> RunStaleIvRows(core::EncryptionSpec spec) {
  dev::NvmeDevice meta_dev;
  auto cluster = co_await rados::Cluster::Create(TestCluster());
  Rng rng(26);
  {
    auto image = co_await Image::Create(**cluster, "staleiv", "pw",
                                        PlaneImage(spec, &meta_dev));
    CO_ASSERT_OK(image.status());
    CO_ASSERT_OK(co_await (*image)->Write(0, rng.RandomBytes(kBlk)));
    CO_ASSERT_OK(co_await (*image)->Flush());
    co_await (*cluster)->Drain();
    CO_ASSERT_OK(co_await (*image)->Close());
  }
  {
    // Plane-less session: the store moves on, the plane does not.
    auto image = co_await Image::Open(**cluster, "staleiv", "pw");
    CO_ASSERT_OK(image.status());
    CO_ASSERT_OK(co_await (*image)->Write(0, rng.RandomBytes(kBlk)));
    CO_ASSERT_OK(co_await (*image)->Flush());
    co_await (*cluster)->Drain();
    CO_ASSERT_OK(co_await (*image)->Close());
  }
  auto reopened = co_await Image::Open(**cluster, "staleiv", "pw", {},
                                       nullptr, {}, {.enabled = true},
                                       PlaneConfig(&meta_dev));
  CO_ASSERT_OK(reopened.status());
  auto got = co_await (*reopened)->Read(0, kBlk);
  EXPECT_EQ(got.status().code(), StatusCode::kCorruption)
      << "a stale persisted IV row must fail authentication, got: "
      << got.status().ToString();
  CO_ASSERT_OK(co_await (*reopened)->Close());
}

TEST(MetaStore, StalePersistedIvRowRejectedHmac) {
  testutil::RunSim([]() -> sim::Task<void> {
    co_await RunStaleIvRows(Spec(core::CipherMode::kXtsRandom,
                                 core::IvLayout::kObjectEnd,
                                 core::Integrity::kHmac));
  });
}

TEST(MetaStore, StalePersistedIvRowRejectedGcm) {
  testutil::RunSim([]() -> sim::Task<void> {
    co_await RunStaleIvRows(
        Spec(core::CipherMode::kGcmRandom, core::IvLayout::kObjectEnd));
  });
}

// Close is idempotent: the journal and the write-back buffer flush
// exactly once, and the second Close (with or without a plane) is a
// clean no-op that keeps the plane warm for the NEXT open.
TEST(MetaStore, DoubleCloseIsCleanNoOp) {
  testutil::RunSim([]() -> sim::Task<void> {
    const auto spec = Spec(core::CipherMode::kXtsRandom,
                           core::IvLayout::kObjectEnd,
                           core::Integrity::kHmac);
    dev::NvmeDevice meta_dev;
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    Rng rng(27);
    const Bytes data = rng.RandomBytes(kBlk);
    {
      auto image = co_await Image::Create(**cluster, "dc", "pw",
                                          PlaneImage(spec, &meta_dev));
      CO_ASSERT_OK(image.status());
      CO_ASSERT_OK(co_await (*image)->Write(0, data));
      CO_ASSERT_OK(co_await (*image)->Close());
      CO_ASSERT_OK(co_await (*image)->Close());
      co_await (*cluster)->Drain();
    }
    {
      // Plane-less image: double Close is equally safe.
      auto image = co_await Image::Open(**cluster, "dc", "pw");
      CO_ASSERT_OK(image.status());
      CO_ASSERT_OK(co_await (*image)->Close());
      CO_ASSERT_OK(co_await (*image)->Close());
    }
    // The doubled Close left the plane clean: the next open is warm.
    auto reopened = co_await Image::Open(**cluster, "dc", "pw", {}, nullptr,
                                         {}, {.enabled = true},
                                         PlaneConfig(&meta_dev));
    CO_ASSERT_OK(reopened.status());
    auto got = co_await (*reopened)->Read(0, kBlk);
    CO_ASSERT_OK(got.status());
    EXPECT_TRUE(std::equal(got->begin(), got->end(), data.begin()));
    CO_ASSERT_OK(co_await (*reopened)->Close());
  });
}

// Eight concurrent first touches of one object share one load. The first
// session is dropped without Close, so the second opens a cold plane and
// fetches the bitmap from the store once; it closes cleanly, and the third
// serves the rows and the bitmap off the plane once each.
TEST(MetaStore, ConcurrentFirstTouchesLoadOnce) {
  testutil::RunSim([]() -> sim::Task<void> {
    const auto spec = Spec(core::CipherMode::kXtsRandom,
                           core::IvLayout::kObjectEnd,
                           core::Integrity::kHmac);
    dev::NvmeDevice meta_dev;
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    Rng rng(74);
    constexpr size_t kReads = 8;
    const Bytes data = rng.RandomBytes(kReads * kBlk);
    {
      auto image = co_await Image::Create(**cluster, "touch", "pw",
                                          PlaneImage(spec, &meta_dev));
      CO_ASSERT_OK(image.status());
      CO_ASSERT_OK(co_await (*image)->Write(0, data));
      CO_ASSERT_OK(co_await (*image)->Flush());
      co_await (*cluster)->Drain();
    }
    // One AioRead per block, all in flight before the first completes.
    auto read_blocks = [&data](Image& img) -> sim::Task<void> {
      std::vector<Bytes> bufs(kReads, Bytes(kBlk));
      std::vector<CompletionPtr> done;
      for (size_t b = 0; b < kReads; ++b) {
        done.push_back(Completion::Create());
        img.AioRead(MutByteSpan(bufs[b]), b * kBlk, done.back());
      }
      for (size_t b = 0; b < kReads; ++b) {
        co_await done[b]->Wait();
        CO_ASSERT_OK(done[b]->status());
        EXPECT_TRUE(std::equal(bufs[b].begin(), bufs[b].end(),
                               data.begin() + static_cast<long>(b * kBlk)));
      }
    };
    {
      auto cold = co_await Image::Open(**cluster, "touch", "pw", {}, nullptr,
                                       {}, {.enabled = true},
                                       PlaneConfig(&meta_dev));
      CO_ASSERT_OK(cold.status());
      co_await read_blocks(**cold);
      EXPECT_EQ(ImageCounter(**cold, "meta_cold_resets"), 1u);
      EXPECT_EQ(ImageCounter(**cold, "trim_state_loads"), 1u);
      CO_ASSERT_OK(co_await (*cold)->Close());
    }
    auto warm = co_await Image::Open(**cluster, "touch", "pw", {}, nullptr,
                                     {}, {.enabled = true},
                                     PlaneConfig(&meta_dev));
    CO_ASSERT_OK(warm.status());
    co_await read_blocks(**warm);
    EXPECT_EQ(ImageCounter(**warm, "meta_warm_hits"), 2u);
    EXPECT_EQ(ImageCounter(**warm, "meta_recovered_rows"), kReads);
    EXPECT_EQ(ImageCounter(**warm, "trim_state_loads"), 0u);
    CO_ASSERT_OK(co_await (*warm)->Close());
  });
}

// Disabled config and non-authenticating formats are full passthroughs:
// identical IO behavior, identical simulated time, all meta counters 0.
TEST(MetaStore, DisabledPlaneIsBehaviorIdenticalPassthrough) {
  const auto spec = Spec(core::CipherMode::kXtsRandom,
                         core::IvLayout::kObjectEnd, core::Integrity::kHmac);
  auto run = [&](bool with_disabled_config, uint64_t* end_time,
                 obs::Metrics* out) {
    testutil::RunSim([&]() -> sim::Task<void> {
      dev::NvmeDevice meta_dev;
      auto cluster = co_await rados::Cluster::Create(TestCluster());
      ImageOptions o;
      o.size = kImgSize;
      o.object_size = kObjSize;
      o.enc = spec;
      o.enc.iv_seed = 7;
      o.luks.pbkdf2_iterations = 10;
      o.luks.af_stripes = 8;
      o.iv_cache.enabled = true;
      if (with_disabled_config) {
        // enabled=false with a device attached: still a passthrough.
        o.meta_store.enabled = false;
        o.meta_store.device = &meta_dev;
      }
      auto image = co_await Image::Create(**cluster, "pt", "pw", o);
      CO_ASSERT_OK(image.status());
      Rng rng(28);
      CO_ASSERT_OK(co_await (*image)->Write(0, rng.RandomBytes(4 * kBlk)));
      CO_ASSERT_OK(co_await (*image)->Discard(kBlk, kBlk));
      auto got = co_await (*image)->Read(0, 4 * kBlk);
      CO_ASSERT_OK(got.status());
      CO_ASSERT_OK(co_await (*image)->Flush());
      co_await (*cluster)->Drain();
      *out = (*image)->MetricsSnapshot();
      *end_time = sim::Scheduler::Current().now();
      CO_ASSERT_OK(co_await (*image)->Close());
    });
  };
  uint64_t t_base = 0, t_disabled = 0;
  obs::Metrics s_base, s_disabled;
  run(false, &t_base, &s_base);
  run(true, &t_disabled, &s_disabled);
  EXPECT_EQ(t_base, t_disabled)
      << "a disabled plane must not change simulated time";
  EXPECT_EQ(ImageCounter(s_base, "bytes_written"),
            ImageCounter(s_disabled, "bytes_written"));
  EXPECT_EQ(ImageCounter(s_base, "bytes_read"),
            ImageCounter(s_disabled, "bytes_read"));
  EXPECT_EQ(ImageCounter(s_base, "iv_hits"),
            ImageCounter(s_disabled, "iv_hits"));
  EXPECT_EQ(ImageCounter(s_base, "iv_meta_bytes_fetched"),
            ImageCounter(s_disabled, "iv_meta_bytes_fetched"));
  EXPECT_EQ(ImageCounter(s_base, "trim_state_loads"),
            ImageCounter(s_disabled, "trim_state_loads"));
  EXPECT_EQ(ImageCounter(s_disabled, "meta_spills"), 0u);
  EXPECT_EQ(ImageCounter(s_disabled, "meta_journal_flushes"), 0u);
  EXPECT_EQ(ImageCounter(s_disabled, "meta_kv_wal_commits"), 0u);
}

// A format without authenticated trims (plain XTS, no integrity) refuses
// the plane even when enabled: persisting rows a read cannot verify
// would turn local staleness into silent corruption.
TEST(MetaStore, UnauthenticatedFormatRefusesPlane) {
  testutil::RunSim([]() -> sim::Task<void> {
    dev::NvmeDevice meta_dev;
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    ImageOptions o = PlaneImage(
        Spec(core::CipherMode::kXtsRandom, core::IvLayout::kObjectEnd),
        &meta_dev);
    auto image = co_await Image::Create(**cluster, "noauth", "pw", o);
    CO_ASSERT_OK(image.status());
    EXPECT_FALSE((*image)->object_meta().has_plane());
    Rng rng(29);
    CO_ASSERT_OK(co_await (*image)->Write(0, rng.RandomBytes(kBlk)));
    CO_ASSERT_OK(co_await (*image)->Flush());
    co_await (*cluster)->Drain();
    EXPECT_EQ(ImageCounter(**image, "meta_spills"), 0u);
    CO_ASSERT_OK(co_await (*image)->Close());
  });
}

// --- Plane GC for removed objects ----------------------------------------

// Session 1 persists IV rows for two objects (plus a bitmap row from a
// partial discard). Session 2 removes object 0 wholesale and closes: the
// close-time GC must drop its persisted 'B'/'I' rows (gc_rows > 0), so
// session 3 recovers strictly fewer rows yet still serves object 1 warm.
TEST(MetaStore, CloseGcDropsRowsForRemovedObjects) {
  testutil::RunSim([]() -> sim::Task<void> {
    const auto spec = Spec(core::CipherMode::kXtsRandom,
                           core::IvLayout::kObjectEnd,
                           core::Integrity::kHmac);
    dev::NvmeDevice meta_dev;
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    Rng rng(71);
    const Bytes obj0 = rng.RandomBytes(kObjSize);
    const Bytes obj1 = rng.RandomBytes(kObjSize);
    {
      auto image = co_await Image::Create(**cluster, "gc", "pw",
                                          PlaneImage(spec, &meta_dev));
      CO_ASSERT_OK(image.status());
      CO_ASSERT_OK(co_await (*image)->Write(0, obj0));
      CO_ASSERT_OK(co_await (*image)->Write(kObjSize, obj1));
      CO_ASSERT_OK(co_await (*image)->Discard(2 * kBlk, kBlk));  // 'B' row
      CO_ASSERT_OK(co_await (*image)->Flush());
      co_await (*cluster)->Drain();
      CO_ASSERT_OK(co_await (*image)->Close());
      EXPECT_EQ(ImageCounter(**image, "meta_gc_rows"), 0u);
    }
    uint64_t rows_before_gc = 0;
    {
      auto image = co_await Image::Open(**cluster, "gc", "pw", {}, nullptr,
                                        {}, {.enabled = true},
                                        PlaneConfig(&meta_dev));
      CO_ASSERT_OK(image.status());
      // Rows install lazily on first touch: read both objects so the
      // recovered-row count covers the whole persisted working set.
      auto r0 = co_await (*image)->Read(0, kObjSize);
      CO_ASSERT_OK(r0.status());
      auto r1 = co_await (*image)->Read(kObjSize, kObjSize);
      CO_ASSERT_OK(r1.status());
      EXPECT_TRUE(std::equal(r1->begin(), r1->end(), obj1.begin()));
      rows_before_gc = ImageCounter(**image, "meta_recovered_rows");
      EXPECT_GT(rows_before_gc, 0u);
      CO_ASSERT_OK(co_await (*image)->Discard(0, kObjSize));  // full remove
      CO_ASSERT_OK(co_await (*image)->Flush());
      co_await (*cluster)->Drain();
      CO_ASSERT_OK(co_await (*image)->Close());
      EXPECT_GT(ImageCounter(**image, "meta_gc_rows"), 0u);
    }
    auto reopened = co_await Image::Open(**cluster, "gc", "pw", {}, nullptr,
                                         {}, {.enabled = true},
                                         PlaneConfig(&meta_dev));
    CO_ASSERT_OK(reopened.status());
    auto& img = **reopened;
    // Object 0 is gone: reads come back zero.
    auto gone = co_await img.Read(0, kObjSize);
    CO_ASSERT_OK(gone.status());
    EXPECT_TRUE(std::all_of(gone->begin(), gone->end(),
                            [](uint8_t b) { return b == 0; }));
    // Object 1 still serves warm off the plane.
    auto kept = co_await img.Read(kObjSize, kObjSize);
    CO_ASSERT_OK(kept.status());
    EXPECT_TRUE(std::equal(kept->begin(), kept->end(), obj1.begin()));
    EXPECT_EQ(ImageCounter(img, "iv_meta_bytes_fetched"), 0u);
    // The same read pass now installs strictly fewer rows: object 0's
    // persisted rows were deleted by the close-time GC.
    EXPECT_LT(ImageCounter(img, "meta_recovered_rows"), rows_before_gc);
    CO_ASSERT_OK(co_await img.Close());
  });
}

// A rewrite after the remove cancels the pending GC: the object's fresh
// rows are journaled again, close deletes nothing, and the next session
// serves the new content warm.
TEST(MetaStore, RewriteAfterRemoveCancelsGc) {
  testutil::RunSim([]() -> sim::Task<void> {
    const auto spec = Spec(core::CipherMode::kXtsRandom,
                           core::IvLayout::kObjectEnd,
                           core::Integrity::kHmac);
    dev::NvmeDevice meta_dev;
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    Rng rng(72);
    {
      auto image = co_await Image::Create(**cluster, "regc", "pw",
                                          PlaneImage(spec, &meta_dev));
      CO_ASSERT_OK(image.status());
      CO_ASSERT_OK(co_await (*image)->Write(0, rng.RandomBytes(kObjSize)));
      CO_ASSERT_OK(co_await (*image)->Flush());
      co_await (*cluster)->Drain();
      CO_ASSERT_OK(co_await (*image)->Close());
    }
    const Bytes fresh = rng.RandomBytes(kObjSize);
    {
      auto image = co_await Image::Open(**cluster, "regc", "pw", {}, nullptr,
                                        {}, {.enabled = true},
                                        PlaneConfig(&meta_dev));
      CO_ASSERT_OK(image.status());
      CO_ASSERT_OK(co_await (*image)->Discard(0, kObjSize));
      CO_ASSERT_OK(co_await (*image)->Write(0, fresh));
      CO_ASSERT_OK(co_await (*image)->Flush());
      co_await (*cluster)->Drain();
      CO_ASSERT_OK(co_await (*image)->Close());
      EXPECT_EQ(ImageCounter(**image, "meta_gc_rows"), 0u);
    }
    auto reopened = co_await Image::Open(**cluster, "regc", "pw", {}, nullptr,
                                         {}, {.enabled = true},
                                         PlaneConfig(&meta_dev));
    CO_ASSERT_OK(reopened.status());
    auto& img = **reopened;
    auto got = co_await img.Read(0, kObjSize);
    CO_ASSERT_OK(got.status());
    EXPECT_TRUE(std::equal(got->begin(), got->end(), fresh.begin()));
    EXPECT_EQ(ImageCounter(img, "iv_meta_bytes_fetched"), 0u);
    EXPECT_GT(ImageCounter(img, "meta_warm_hits"), 0u);
    CO_ASSERT_OK(co_await img.Close());
  });
}

// GC keeps the 'E' epoch floors on purpose: a record sealed before the
// remove must STILL be rejected when replayed against a recreated object
// — deleting the floor with the other rows would reopen the rollback
// window the epochs exist to close.
TEST(MetaStore, EpochFloorSurvivesCloseGc) {
  testutil::RunSim([]() -> sim::Task<void> {
    const auto spec = Spec(core::CipherMode::kXtsRandom,
                           core::IvLayout::kOmap, core::Integrity::kHmac);
    dev::NvmeDevice meta_dev;
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    Rng rng(73);
    Bytes old_record;
    const Bytes bitmap_key(1, uint8_t{'B'});
    std::string oid;
    {
      auto image = co_await Image::Create(**cluster, "gcfloor", "pw",
                                          PlaneImage(spec, &meta_dev));
      CO_ASSERT_OK(image.status());
      oid = (*image)->ObjectName(0);
      CO_ASSERT_OK(co_await (*image)->Write(0, rng.RandomBytes(2 * kBlk)));
      CO_ASSERT_OK(co_await (*image)->Flush());
      co_await (*cluster)->Drain();
      // The attacker snapshots the sealed bitmap record of generation N.
      for (size_t i = 0; i < (*cluster)->osd_count(); ++i) {
        objstore::ObjectStore& os = (*cluster)->osd(i).store();
        if (!os.ObjectExists(oid)) continue;
        auto row = co_await os.PeekOmapRow(oid, bitmap_key);
        CO_ASSERT_OK(row.status());
        old_record = *row;
        break;
      }
      CO_ASSERT_FALSE(old_record.empty());
      // Remove the whole object and close cleanly: GC drops its rows.
      CO_ASSERT_OK(co_await (*image)->Discard(0, kObjSize));
      CO_ASSERT_OK(co_await (*image)->Flush());
      co_await (*cluster)->Drain();
      CO_ASSERT_OK(co_await (*image)->Close());
      EXPECT_GT(ImageCounter(**image, "meta_gc_rows"), 0u);
    }
    {
      // Recreate the object past the floor; drop WITHOUT Close so the
      // next reopen purges warm bitmaps and loads them cold from the
      // (tampered) store — the path a rollback targets.
      auto image = co_await Image::Open(**cluster, "gcfloor", "pw", {},
                                        nullptr, {}, {.enabled = true},
                                        PlaneConfig(&meta_dev));
      CO_ASSERT_OK(image.status());
      CO_ASSERT_OK(co_await (*image)->Write(0, rng.RandomBytes(2 * kBlk)));
      CO_ASSERT_OK(co_await (*image)->Discard(0, kBlk));
      CO_ASSERT_OK(co_await (*image)->Flush());
      co_await (*cluster)->Drain();
    }
    for (size_t i = 0; i < (*cluster)->osd_count(); ++i) {
      objstore::ObjectStore& os = (*cluster)->osd(i).store();
      if (!os.ObjectExists(oid)) continue;
      CO_ASSERT_OK(co_await os.TamperOmapRow(oid, bitmap_key, old_record));
    }
    auto reopened = co_await Image::Open(**cluster, "gcfloor", "pw", {},
                                         nullptr, {}, {.enabled = true},
                                         PlaneConfig(&meta_dev));
    CO_ASSERT_OK(reopened.status());
    auto got = co_await (*reopened)->Read(kBlk, kBlk);
    EXPECT_EQ(got.status().code(), StatusCode::kCorruption)
        << "pre-remove bitmap record must stay below the GC-surviving "
        << "epoch floor, got: " << got.status().ToString();
    CO_ASSERT_OK(co_await (*reopened)->Close());
  });
}

}  // namespace
}  // namespace vde::rbd
