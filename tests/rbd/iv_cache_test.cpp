// Tests of the IV rows the client-side object-metadata table caches:
// hit/miss/eviction/invalidation accounting, cold-vs-warm reread
// equivalence across the three metadata geometries, correctness across
// the write-back barriers (flush re-encrypts staged blocks with fresh IVs;
// the cached row must follow), snapshot bypass, the RMW lost-update
// regression shape with the cache enabled, and a mutating verify-mode fio
// through the cached path.
#include <algorithm>
#include <functional>
#include <gtest/gtest.h>

#include "../testutil.h"
#include "rbd/image.h"
#include "rbd/object_meta.h"
#include "util/rng.h"
#include "workload/fio.h"

namespace vde::rbd {
namespace {

using testutil::ImageCounter;

constexpr uint64_t kObjSize = 64 * 1024;  // 16 blocks: cheap cross-object IO
constexpr uint64_t kImgSize = 8ull << 20;
constexpr uint64_t kBlk = core::kBlockSize;

rados::ClusterConfig TestCluster() {
  rados::ClusterConfig c;
  c.store.journal_size = 8ull << 20;
  c.store.kv_region_size = 32ull << 20;
  return c;
}

ImageOptions TestImage(core::EncryptionSpec spec, bool cache_enabled = true,
                       size_t max_objects = 64) {
  ImageOptions o;
  o.size = kImgSize;
  o.object_size = kObjSize;
  o.enc = spec;
  o.enc.iv_seed = 7;
  o.luks.pbkdf2_iterations = 10;
  o.luks.af_stripes = 8;
  o.iv_cache.enabled = cache_enabled;
  o.iv_cache.max_objects = max_objects;
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

// The three metadata geometries, plus integrity/AEAD variants — the specs
// the cache exists for.
std::vector<core::EncryptionSpec> MetadataLayouts() {
  return {
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

class IvCacheAllLayouts
    : public ::testing::TestWithParam<core::EncryptionSpec> {};

INSTANTIATE_TEST_SUITE_P(MetadataLayouts, IvCacheAllLayouts,
                         ::testing::ValuesIn(MetadataLayouts()), SpecTestName);

// --- Row-cache structure tests (no IO) ---

// Runs `body` against the object-metadata table of a fresh image whose IV
// cache is enabled with `max_objects` capacity.
void WithRows(size_t max_objects,
              const std::function<void(ObjectMeta&)>& body) {
  testutil::RunSim([&]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    CO_ASSERT_OK(cluster.status());
    auto image = co_await Image::Create(
        **cluster, "rows", "pw",
        TestImage(MetadataLayouts().front(), true, max_objects));
    CO_ASSERT_OK(image.status());
    body((*image)->object_meta());
  });
}

TEST(IvCacheUnit, TryGetRangeIsAllOrNothing) {
  WithRows(4, [](ObjectMeta& cache) {
    cache.PutRange(1, 10, {Bytes(16, 0xAA), Bytes(16, 0xBB)});
    core::IvRows rows;
    EXPECT_FALSE(cache.TryGetRange(1, 10, 3, &rows));  // block 12 uncached
    EXPECT_TRUE(rows.empty()) << "partial lookup must not copy rows";
    EXPECT_TRUE(cache.TryGetRange(1, 10, 2, &rows));
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0], Bytes(16, 0xAA));
    EXPECT_EQ(rows[1], Bytes(16, 0xBB));
    EXPECT_FALSE(cache.TryGetRange(2, 10, 1, &rows));  // other object
  });
}

TEST(IvCacheUnit, PutCachesClearedRowsAsMarkersAndOverwrites) {
  WithRows(4, [](ObjectMeta& cache) {
    cache.PutRange(1, 0, {Bytes(16, 1), Bytes{}, Bytes(16, 3)});
    // The empty row is retained as a cleared marker (negative entry).
    EXPECT_EQ(cache.cached_rows(), 3u);
    core::IvRows rows;
    ASSERT_TRUE(cache.TryGetRange(1, 0, 3, &rows));
    EXPECT_EQ(rows[1], Bytes{});
    cache.PutRange(1, 0, {Bytes(16, 9)});
    EXPECT_EQ(cache.cached_rows(), 3u);  // overwrite, not a new row
    rows.clear();
    ASSERT_TRUE(cache.TryGetRange(1, 0, 1, &rows));
    EXPECT_EQ(rows[0], Bytes(16, 9));
  });
}

TEST(IvCacheUnit, PutClearedInsertsMarkersRespectingCapacity) {
  WithRows(4, [](ObjectMeta& cache) {
    cache.PutCleared(7, 4, 3);
    EXPECT_EQ(cache.cached_rows(), 3u);
    core::IvRows rows;
    ASSERT_TRUE(cache.TryGetRange(7, 4, 3, &rows));
    for (const auto& row : rows) EXPECT_TRUE(row.empty());
  });
  // Zero-capacity caches retain nothing, markers included.
  WithRows(0, [](ObjectMeta& zero) {
    zero.PutCleared(7, 4, 3);
    EXPECT_EQ(zero.cached_rows(), 0u);
  });
}

TEST(IvCacheUnit, LruEvictsLeastRecentlyTouchedObject) {
  WithRows(2, [](ObjectMeta& cache) {
    cache.PutRange(1, 0, {Bytes(16, 1)});
    cache.PutRange(2, 0, {Bytes(16, 2)});
    core::IvRows rows;
    ASSERT_TRUE(cache.TryGetRange(1, 0, 1, &rows));  // touch 1: LRU 1,2
    cache.PutRange(3, 0, {Bytes(16, 3)});            // evicts object 2
    EXPECT_EQ(cache.stats().iv_evictions, 1u);
    EXPECT_EQ(cache.cached_objects(), 2u);
    rows.clear();
    EXPECT_FALSE(cache.TryGetRange(2, 0, 1, &rows));
    EXPECT_TRUE(cache.TryGetRange(1, 0, 1, &rows));
    EXPECT_TRUE(cache.TryGetRange(3, 0, 1, &rows));
  });
}

TEST(IvCacheUnit, InvalidateRangeDropsRowsAndEmptyObjects) {
  WithRows(4, [](ObjectMeta& cache) {
    cache.PutRange(1, 0, {Bytes(16, 1), Bytes(16, 2), Bytes(16, 3)});
    cache.InvalidateRange(1, 1, 1);
    EXPECT_EQ(cache.stats().iv_invalidations, 1u);
    EXPECT_EQ(cache.cached_rows(), 2u);
    cache.InvalidateRange(1, 0, 2);
    EXPECT_EQ(cache.stats().iv_invalidations, 3u);
    EXPECT_EQ(cache.cached_objects(), 0u);
    cache.InvalidateRange(7, 0, 100);  // unknown object: no-op
    EXPECT_EQ(cache.stats().iv_invalidations, 3u);
  });
}

TEST(IvCacheUnit, ZeroCapacityRetainsNothing) {
  WithRows(0, [](ObjectMeta& cache) {
    cache.PutRange(1, 0, {Bytes(16, 1)});
    EXPECT_EQ(cache.cached_rows(), 0u);
    EXPECT_EQ(cache.cached_objects(), 0u);
    EXPECT_EQ(cache.stats().iv_evictions, 0u);  // never inserted or evicted
  });
}

// --- End-to-end through the image datapath ---

// A reopened image starts with a cold cache: the first read fetches the
// metadata (miss), the second serves it from memory (hit, data-only read).
// Both must return the same bytes the writer put down.
TEST_P(IvCacheAllLayouts, ColdVsWarmRereadEquivalence) {
  testutil::RunSim([spec = GetParam()]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    Bytes model;
    {
      auto image = co_await Image::Create(**cluster, "reread", "pw",
                                          TestImage(spec));
      CO_ASSERT_OK(image.status());
      Rng rng(11);
      model = rng.RandomBytes(6 * kBlk);
      CO_ASSERT_OK(co_await (*image)->Write(kBlk, model));
      CO_ASSERT_OK(co_await (*image)->Flush());
    }
    IvCacheConfig cache_on;
    cache_on.enabled = true;
    auto reopened = co_await Image::Open(**cluster, "reread", "pw", {},
                                         nullptr, {}, cache_on);
    CO_ASSERT_OK(reopened.status());
    auto& img = **reopened;

    auto cold = co_await img.Read(kBlk, model.size());
    CO_ASSERT_OK(cold.status());
    CO_ASSERT_TRUE(*cold == model);
    const obs::Metrics after_cold = img.MetricsSnapshot();
    EXPECT_EQ(ImageCounter(after_cold, "iv_hits"), 0u);
    EXPECT_GT(ImageCounter(after_cold, "iv_misses"), 0u);
    EXPECT_GT(ImageCounter(after_cold, "iv_meta_bytes_fetched"), 0u);

    auto warm = co_await img.Read(kBlk, model.size());
    CO_ASSERT_OK(warm.status());
    CO_ASSERT_TRUE(*warm == model);
    const obs::Metrics after_warm = img.MetricsSnapshot();
    // The interleaved layout only profits on single-block extents, so a
    // multi-block warm read stays on the full-fetch path there.
    if (spec.layout == core::IvLayout::kUnaligned) {
      EXPECT_EQ(ImageCounter(after_warm, "iv_hits"), 0u);
    } else {
      EXPECT_GT(ImageCounter(after_warm, "iv_hits"), 0u);
      EXPECT_GT(ImageCounter(after_warm, "iv_meta_bytes_saved"), 0u);
      EXPECT_EQ(ImageCounter(after_warm, "iv_misses"),
                ImageCounter(after_cold, "iv_misses"))
          << "warm reread must not fetch metadata again";
    }
  });
}

// Unaligned geometry through its profitable path: single-block RMW edge
// reads. A sub-block write pays one RMW read; with the row cached by an
// earlier read, that RMW read goes data-only.
TEST(IvCache, UnalignedSingleBlockRmwHits) {
  testutil::RunSim([]() -> sim::Task<void> {
    const auto spec =
        Spec(core::CipherMode::kXtsRandom, core::IvLayout::kUnaligned);
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    ImageOptions opts = TestImage(spec);
    opts.writeback.coalesce = false;  // write-through: RMW on every write
    auto image = co_await Image::Create(**cluster, "rmw", "pw", opts);
    CO_ASSERT_OK(image.status());
    auto& img = **image;
    Rng rng(12);
    Bytes model = rng.RandomBytes(kBlk);
    CO_ASSERT_OK(co_await img.Write(0, model));

    // Single-block read: profitable for unaligned, populates the row.
    auto got = co_await img.Read(0, kBlk);
    CO_ASSERT_OK(got.status());
    const uint64_t misses_after_read = ImageCounter(img, "iv_misses");

    const Bytes patch = rng.RandomBytes(512);
    CO_ASSERT_OK(co_await img.Write(256, patch));
    std::copy(patch.begin(), patch.end(), model.begin() + 256);
    const obs::Metrics stats = img.MetricsSnapshot();
    EXPECT_GT(ImageCounter(stats, "iv_hits"), 0u)
        << "RMW edge read should hit the cache";
    EXPECT_EQ(ImageCounter(stats, "iv_misses"), misses_after_read);

    auto reread = co_await img.Read(0, kBlk);
    CO_ASSERT_OK(reread.status());
    CO_ASSERT_TRUE(*reread == model);
  });
}

// Discard must drop the trimmed blocks' rows (a later cached read would
// otherwise decrypt a cleared block with a stale IV), and the trimmed
// range reads zeros afterwards.
TEST_P(IvCacheAllLayouts, DiscardInvalidatesRows) {
  testutil::RunSim([spec = GetParam()]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    auto image =
        co_await Image::Create(**cluster, "trim", "pw", TestImage(spec));
    CO_ASSERT_OK(image.status());
    auto& img = **image;
    Rng rng(13);
    const Bytes model = rng.RandomBytes(4 * kBlk);
    CO_ASSERT_OK(co_await img.Write(0, model));
    CO_ASSERT_OK(co_await img.Flush());
    auto warmup = co_await img.Read(0, 4 * kBlk);  // rows resident
    CO_ASSERT_OK(warmup.status());
    const uint64_t invalidations_before = ImageCounter(img, "iv_invalidations");

    CO_ASSERT_OK(co_await img.Discard(kBlk, 2 * kBlk));  // blocks 1..2
    EXPECT_GT(ImageCounter(img, "iv_invalidations"), invalidations_before);

    auto got = co_await img.Read(0, 4 * kBlk);
    CO_ASSERT_OK(got.status());
    Bytes expect = model;
    std::fill(expect.begin() + kBlk, expect.begin() + 3 * kBlk, 0);
    CO_ASSERT_TRUE(*got == expect);
  });
}

// Write-zeroes: the interior blocks' rows are invalidated with the stages,
// the re-encrypted partial edges get fresh rows, and the byte-exact zero
// range survives a warm reread.
TEST_P(IvCacheAllLayouts, WriteZeroesInvalidatesAndRereadsCorrectly) {
  testutil::RunSim([spec = GetParam()]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    auto image =
        co_await Image::Create(**cluster, "wz", "pw", TestImage(spec));
    CO_ASSERT_OK(image.status());
    auto& img = **image;
    Rng rng(14);
    Bytes model = rng.RandomBytes(4 * kBlk);
    CO_ASSERT_OK(co_await img.Write(0, model));
    CO_ASSERT_OK(co_await img.Flush());
    auto warmup = co_await img.Read(0, 4 * kBlk);
    CO_ASSERT_OK(warmup.status());

    // Zero [512, 3*kBlk + 256): partial head edge, two interior blocks,
    // partial tail edge.
    CO_ASSERT_OK(co_await img.WriteZeroes(512, 3 * kBlk + 256 - 512));
    std::fill(model.begin() + 512, model.begin() + 3 * kBlk + 256, 0);

    auto cold = co_await img.Read(0, 4 * kBlk);
    CO_ASSERT_OK(cold.status());
    CO_ASSERT_TRUE(*cold == model);
    auto warm = co_await img.Read(0, 4 * kBlk);
    CO_ASSERT_OK(warm.status());
    CO_ASSERT_TRUE(*warm == model);
  });
}

// Flush re-encrypts staged blocks with FRESH random IVs. The cached row
// must follow the flush (WriteOutStage updates it), or the next data-only
// read would decrypt new ciphertext with the old IV.
TEST_P(IvCacheAllLayouts, FlushKeepsCachedRowsFresh) {
  testutil::RunSim([spec = GetParam()]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    auto image =
        co_await Image::Create(**cluster, "fresh", "pw", TestImage(spec));
    CO_ASSERT_OK(image.status());
    auto& img = **image;
    Rng rng(15);
    Bytes model = rng.RandomBytes(kBlk);
    CO_ASSERT_OK(co_await img.Write(0, model));
    CO_ASSERT_OK(co_await img.Flush());

    // Stage a sub-block write (coalescing on): the row cached by the
    // initial write now describes ciphertext the flush will replace.
    const Bytes patch = rng.RandomBytes(512);
    CO_ASSERT_OK(co_await img.Write(1024, patch));
    std::copy(patch.begin(), patch.end(), model.begin() + 1024);
    CO_ASSERT_OK(co_await img.Flush());  // re-encrypt under a fresh IV

    auto got = co_await img.Read(0, kBlk);  // warm: data-only where cached
    CO_ASSERT_OK(got.status());
    CO_ASSERT_TRUE(*got == model);
  });
}

// Snapshot reads bypass the cache (rows describe the head), and a
// post-snapshot overwrite keeps head reads warm and correct.
TEST_P(IvCacheAllLayouts, SnapshotReadsBypassCache) {
  testutil::RunSim([spec = GetParam()]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    auto image =
        co_await Image::Create(**cluster, "snap", "pw", TestImage(spec));
    CO_ASSERT_OK(image.status());
    auto& img = **image;
    Rng rng(16);
    const Bytes before = rng.RandomBytes(2 * kBlk);
    CO_ASSERT_OK(co_await img.Write(0, before));
    auto snap = co_await img.SnapCreate("s1");
    CO_ASSERT_OK(snap.status());

    const Bytes after = rng.RandomBytes(2 * kBlk);
    CO_ASSERT_OK(co_await img.Write(0, after));
    CO_ASSERT_OK(co_await img.Flush());

    auto head = co_await img.Read(0, 2 * kBlk);
    CO_ASSERT_OK(head.status());
    CO_ASSERT_TRUE(*head == after);
    auto head_warm = co_await img.Read(0, 2 * kBlk);
    CO_ASSERT_OK(head_warm.status());
    CO_ASSERT_TRUE(*head_warm == after);
    auto old = co_await img.Read(0, 2 * kBlk, *snap);
    CO_ASSERT_OK(old.status());
    CO_ASSERT_TRUE(*old == before);
  });
}

// LRU pressure across many objects: a tiny capacity keeps the cache
// bounded, counts evictions, and never compromises read correctness.
TEST(IvCache, LruEvictionUnderManyObjects) {
  testutil::RunSim([]() -> sim::Task<void> {
    const auto spec =
        Spec(core::CipherMode::kXtsRandom, core::IvLayout::kObjectEnd);
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    auto image = co_await Image::Create(
        **cluster, "lru", "pw",
        TestImage(spec, /*cache_enabled=*/true, /*max_objects=*/2));
    CO_ASSERT_OK(image.status());
    auto& img = **image;
    Rng rng(17);
    // Touch 6 objects (kObjSize apart).
    std::vector<Bytes> models;
    for (uint64_t o = 0; o < 6; ++o) {
      models.push_back(rng.RandomBytes(kBlk));
      CO_ASSERT_OK(co_await img.Write(o * kObjSize, models.back()));
    }
    const obs::Metrics stats = img.MetricsSnapshot();
    EXPECT_GT(ImageCounter(stats, "iv_evictions"), 0u);
    EXPECT_LE(img.object_meta().cached_objects(), 2u);
    for (uint64_t o = 0; o < 6; ++o) {
      auto got = co_await img.Read(o * kObjSize, kBlk);
      CO_ASSERT_OK(got.status());
      CO_ASSERT_TRUE(*got == models[o]);
    }
  });
}

// THE PR 2 regression shape, with the cache enabled: two concurrent writes
// to disjoint byte ranges of one block. The cache must not weaken the
// guard-table ordering or resurrect stale bytes through a cached IV.
TEST_P(IvCacheAllLayouts, ConcurrentDisjointSubBlockWritesBothApply) {
  for (const bool coalesce : {true, false}) {
    testutil::RunSim([spec = GetParam(), coalesce]() -> sim::Task<void> {
      auto cluster = co_await rados::Cluster::Create(TestCluster());
      ImageOptions opts = TestImage(spec);
      opts.writeback.coalesce = coalesce;
      auto image = co_await Image::Create(**cluster, "race", "pw", opts);
      CO_ASSERT_OK(image.status());
      auto& img = **image;
      Rng rng(41);
      Bytes model = rng.RandomBytes(kBlk);
      CO_ASSERT_OK(co_await img.Write(0, model));
      // Warm the row so the racing RMWs exercise the cached read path.
      auto warm = co_await img.Read(0, kBlk);
      CO_ASSERT_OK(warm.status());

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

// Mutating verify-mode fio through the enabled cache: random rwmix with
// discards at depth 8 over every geometry — every read checks content
// against the issue-order model, so a stale cached IV or a missed
// invalidation fails loudly.
TEST_P(IvCacheAllLayouts, MutatingVerifyFioWithCacheEnabled) {
  testutil::RunSim([spec = GetParam()]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    auto image =
        co_await Image::Create(**cluster, "fio", "pw", TestImage(spec));
    CO_ASSERT_OK(image.status());
    auto& img = **image;

    workload::FioConfig fio;
    fio.rw_mix_pct = 50;
    fio.io_size = 3072;          // sub-block + straddling: RMW-heavy
    fio.offset_align = 512;
    fio.discard_pct = 10;
    fio.queue_depth = 8;
    fio.total_ops = 300;
    fio.working_set = 2ull << 20;
    fio.verify = true;
    workload::FioRunner runner(img, fio);
    CO_ASSERT_OK(co_await runner.Prefill());
    auto result = co_await runner.Run();
    CO_ASSERT_OK(result.status());
    EXPECT_GT(ImageCounter(result->metrics, "iv_hits") +
                  ImageCounter(result->metrics, "iv_misses"),
              0u)
        << "cache consult path never engaged";
  });
}

// Disabled cache keeps zeroed counters and identical results — the
// passthrough contract (the sim-clock equality gate lives in
// bench_iv_cache, which compares end-to-end timings).
TEST(IvCache, DisabledCacheCountsNothing) {
  testutil::RunSim([]() -> sim::Task<void> {
    const auto spec =
        Spec(core::CipherMode::kXtsRandom, core::IvLayout::kObjectEnd);
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    auto image = co_await Image::Create(
        **cluster, "off", "pw", TestImage(spec, /*cache_enabled=*/false));
    CO_ASSERT_OK(image.status());
    auto& img = **image;
    Rng rng(19);
    const Bytes model = rng.RandomBytes(2 * kBlk);
    CO_ASSERT_OK(co_await img.Write(0, model));
    auto r1 = co_await img.Read(0, 2 * kBlk);
    CO_ASSERT_OK(r1.status());
    auto r2 = co_await img.Read(0, 2 * kBlk);
    CO_ASSERT_OK(r2.status());
    CO_ASSERT_TRUE(*r1 == model);
    CO_ASSERT_TRUE(*r2 == model);
    const obs::Metrics stats = img.MetricsSnapshot();
    EXPECT_EQ(ImageCounter(stats, "iv_hits"), 0u);
    EXPECT_EQ(ImageCounter(stats, "iv_misses"), 0u);
    EXPECT_EQ(ImageCounter(stats, "iv_meta_bytes_fetched"), 0u);
    EXPECT_EQ(ImageCounter(stats, "iv_meta_bytes_saved"), 0u);
  });
}

// --- Negative caching of trimmed extents ---

// A warmed reread of a TRIMmed range is served from resident cleared
// markers: zero device read ops, zero metadata bytes fetched, and the
// trim_zero_reads counter grows — the fast path bench_trim gates.
TEST_P(IvCacheAllLayouts, TrimmedRereadZeroFillsWithoutStoreIO) {
  testutil::RunSim([spec = GetParam()]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    auto image =
        co_await Image::Create(**cluster, "neg", "pw", TestImage(spec));
    CO_ASSERT_OK(image.status());
    auto& img = **image;
    Rng rng(23);
    CO_ASSERT_OK(co_await img.Write(0, rng.RandomBytes(4 * kBlk)));
    CO_ASSERT_OK(co_await img.Flush());
    CO_ASSERT_OK(co_await img.Discard(kBlk, 2 * kBlk));  // blocks 1..2
    co_await (*cluster)->Drain();

    const dev::DeviceStats dev_before = (*cluster)->TotalDeviceStats();
    const obs::Metrics before = img.MetricsSnapshot();
    auto got = co_await img.Read(kBlk, 2 * kBlk);
    CO_ASSERT_OK(got.status());
    EXPECT_TRUE(std::all_of(got->begin(), got->end(),
                            [](uint8_t b) { return b == 0; }));
    const obs::Metrics after = img.MetricsSnapshot();
    EXPECT_EQ((*cluster)->TotalDeviceStats().read_ops, dev_before.read_ops)
        << "trimmed reread must not touch any device";
    EXPECT_EQ(ImageCounter(after, "iv_meta_bytes_fetched"),
              ImageCounter(before, "iv_meta_bytes_fetched"));
    EXPECT_GT(ImageCounter(after, "trim_zero_reads"),
              ImageCounter(before, "trim_zero_reads"));
  });
}

// Rewriting a trimmed block replaces its cleared marker with the fresh
// row; the reread returns the new content, not stale zeros.
TEST_P(IvCacheAllLayouts, RewriteReplacesClearedMarker) {
  testutil::RunSim([spec = GetParam()]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    auto image =
        co_await Image::Create(**cluster, "negrw", "pw", TestImage(spec));
    CO_ASSERT_OK(image.status());
    auto& img = **image;
    Rng rng(29);
    CO_ASSERT_OK(co_await img.Write(0, rng.RandomBytes(2 * kBlk)));
    CO_ASSERT_OK(co_await img.Discard(0, 2 * kBlk));
    auto zeros = co_await img.Read(0, kBlk);
    CO_ASSERT_OK(zeros.status());
    EXPECT_TRUE(std::all_of(zeros->begin(), zeros->end(),
                            [](uint8_t b) { return b == 0; }));
    const Bytes fresh = rng.RandomBytes(kBlk);
    CO_ASSERT_OK(co_await img.Write(0, fresh));
    CO_ASSERT_OK(co_await img.Flush());
    auto got = co_await img.Read(0, kBlk);
    CO_ASSERT_OK(got.status());
    CO_ASSERT_TRUE(*got == fresh);
    // Block 1 is still trimmed and still zero-fills.
    auto still = co_await img.Read(kBlk, kBlk);
    CO_ASSERT_OK(still.status());
    EXPECT_TRUE(std::all_of(still->begin(), still->end(),
                            [](uint8_t b) { return b == 0; }));
  });
}

// A full-object discard removes the object outright; the markers cached
// for it keep serving zeros client-side.
TEST_P(IvCacheAllLayouts, FullObjectDiscardCachesMarkers) {
  testutil::RunSim([spec = GetParam()]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    auto image =
        co_await Image::Create(**cluster, "negrm", "pw", TestImage(spec));
    CO_ASSERT_OK(image.status());
    auto& img = **image;
    Rng rng(31);
    CO_ASSERT_OK(co_await img.Write(0, rng.RandomBytes(kObjSize)));
    CO_ASSERT_OK(co_await img.Flush());
    CO_ASSERT_OK(co_await img.Discard(0, kObjSize));  // whole object 0
    co_await (*cluster)->Drain();
    const dev::DeviceStats dev_before = (*cluster)->TotalDeviceStats();
    auto got = co_await img.Read(0, 4 * kBlk);
    CO_ASSERT_OK(got.status());
    EXPECT_TRUE(std::all_of(got->begin(), got->end(),
                            [](uint8_t b) { return b == 0; }));
    EXPECT_EQ((*cluster)->TotalDeviceStats().read_ops, dev_before.read_ops);
    EXPECT_GT(ImageCounter(img, "trim_zero_reads"), 0u);
  });
}

}  // namespace
}  // namespace vde::rbd
