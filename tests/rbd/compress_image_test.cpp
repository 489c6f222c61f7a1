// Image-level compression-before-encryption: mutating verify fio across
// all three metadata geometries x {HMAC, GCM} with the codec on, capacity
// actually reclaimed through the punched pool, warm reopens off the local
// metadata plane keeping compressed lengths readable, and the
// compression-off path adding zero compress work to the sim. Runs in both
// ctest shards (single-core and VDE_SIM_CORES=4).
#include <gtest/gtest.h>

#include "../testutil.h"
#include "device/nvme.h"
#include "obs/trace.h"
#include "rbd/image.h"
#include "util/rng.h"
#include "workload/fio.h"

namespace vde::rbd {
namespace {

using testutil::ImageCounter;

constexpr uint64_t kObjSize = 64 * 1024;  // 16 blocks
constexpr uint64_t kImgSize = 8ull << 20;
constexpr uint64_t kBlk = core::kBlockSize;

// Compression scenarios run the store at 512 B allocation units so a
// trimmed slot tail frees capacity at sub-block granularity.
rados::ClusterConfig SubBlockAllocCluster() {
  rados::ClusterConfig c = testutil::TestCluster();
  c.store.alloc_unit = 512;
  return c;
}

core::EncryptionSpec CompressedSpec(core::IvLayout layout,
                                    core::CipherMode mode,
                                    core::Integrity integrity) {
  core::EncryptionSpec s;
  s.mode = mode;
  s.layout = layout;
  s.integrity = integrity;
  s.iv_seed = 7;
  s.compression.codec = core::Compression::kLz;
  return s;
}

ImageOptions TestImage(core::EncryptionSpec spec) {
  ImageOptions o;
  o.size = kImgSize;
  o.object_size = kObjSize;
  o.enc = spec;
  o.luks.pbkdf2_iterations = 10;
  o.luks.af_stripes = 8;
  return o;
}

// The full matrix the acceptance gate names: three geometries, XTS+HMAC
// and GCM authentication, codec on.
std::vector<core::EncryptionSpec> CompressedSpecs() {
  std::vector<core::EncryptionSpec> specs;
  for (const core::IvLayout layout :
       {core::IvLayout::kUnaligned, core::IvLayout::kObjectEnd,
        core::IvLayout::kOmap}) {
    specs.push_back(CompressedSpec(layout, core::CipherMode::kXtsRandom,
                                   core::Integrity::kHmac));
    specs.push_back(CompressedSpec(layout, core::CipherMode::kGcmRandom,
                                   core::Integrity::kNone));
  }
  return specs;
}

std::string SpecTestName(
    const ::testing::TestParamInfo<core::EncryptionSpec>& info) {
  std::string name = info.param.Name();
  for (char& c : name) {
    if (c == '/' || c == '-' || c == '+') c = '_';
  }
  return name;
}

class CompressedImageMatrix
    : public ::testing::TestWithParam<core::EncryptionSpec> {};

INSTANTIATE_TEST_SUITE_P(Geometries, CompressedImageMatrix,
                         ::testing::ValuesIn(CompressedSpecs()), SpecTestName);

// Mutating verify fio: mixed reads/writes/discards over compressible
// content, every read checked against the deterministic content model.
// Overwrites shrink and re-grow slots, discards clear them — the verify
// pass proves none of that loses or resurrects a byte.
TEST_P(CompressedImageMatrix, MutatingVerifyFio) {
  testutil::RunSim([spec = GetParam()]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(SubBlockAllocCluster());
    CO_ASSERT_OK(cluster.status());
    auto image =
        co_await Image::Create(**cluster, "cmp", "pw", TestImage(spec));
    CO_ASSERT_OK(image.status());

    workload::FioConfig fio;
    fio.rw_mix_pct = 50;
    fio.discard_pct = 10;
    fio.io_size = 4096;
    fio.queue_depth = 8;
    fio.total_ops = 192;
    fio.working_set = 2ull << 20;
    fio.seed = 17;
    fio.compressibility_pct = 60;
    fio.verify = true;
    workload::FioRunner runner(**image, fio);
    CO_ASSERT_OK(co_await runner.Prefill());
    auto result = co_await runner.Run();
    CO_ASSERT_OK(result.status());

    const obs::Metrics s = (*image)->MetricsSnapshot();
    EXPECT_GT(ImageCounter(s, "compress_blocks"), 0u)
        << "60%-runs must compress";
    EXPECT_GT(ImageCounter(s, "compress_in_bytes"),
              ImageCounter(s, "compress_stored_bytes"))
        << "stored bytes must shrink below logical bytes";
    EXPECT_GT(ImageCounter(s, "compress_expanded_blocks"), 0u)
        << "verified reads must decompress stored blocks";
    co_await (*cluster)->Drain();
  });
}

// Capacity is genuinely reclaimed: after writing compressible blocks, the
// store's punched pool holds the slot tails the format trimmed.
TEST(CompressedImage, ShortCiphertextsPunchCapacity) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(SubBlockAllocCluster());
    CO_ASSERT_OK(cluster.status());
    const auto spec =
        CompressedSpec(core::IvLayout::kObjectEnd,
                       core::CipherMode::kXtsRandom, core::Integrity::kHmac);
    auto image =
        co_await Image::Create(**cluster, "punch", "pw", TestImage(spec));
    CO_ASSERT_OK(image.status());

    const objstore::StoreSpace before = (*cluster)->TotalStoreSpace();
    Bytes data(64 * kBlk, 0x42);  // 256 KiB of maximally compressible blocks
    CO_ASSERT_OK(co_await (*image)->Write(0, data));
    CO_ASSERT_OK(co_await (*image)->Flush());
    co_await (*cluster)->Drain();

    const objstore::StoreSpace after = (*cluster)->TotalStoreSpace();
    // Each 4 KiB slot keeps only its 512 B head unit (16 B min ciphertext
    // rounds up to one alloc unit): at least 7/8 of the data bytes return
    // to the punched pool.
    const uint64_t punched_delta = after.punched_bytes - before.punched_bytes;
    EXPECT_GE(punched_delta, data.size() * 7 / 8);

    const obs::Metrics s = (*image)->MetricsSnapshot();
    EXPECT_EQ(ImageCounter(s, "compress_blocks"), 64u);
    EXPECT_EQ(ImageCounter(s, "compress_verbatim_blocks"), 0u);
  });
}

// Warm reopen through the metadata plane: the persisted IV rows carry the
// [codec][len] header, so a reopened image decompresses every block
// without fetching one metadata byte from the object store.
TEST(CompressedImage, WarmReopenKeepsCompressedLengths) {
  testutil::RunSim([]() -> sim::Task<void> {
    dev::NvmeDevice meta_dev;
    auto cluster = co_await rados::Cluster::Create(SubBlockAllocCluster());
    CO_ASSERT_OK(cluster.status());
    const auto spec =
        CompressedSpec(core::IvLayout::kObjectEnd,
                       core::CipherMode::kXtsRandom, core::Integrity::kHmac);
    Rng rng(29);
    // Mixed content: compressible, incompressible (verbatim), and zero
    // blocks — the reopened image must reconstruct all three.
    Bytes data(8 * kBlk);
    for (size_t b = 0; b < 8; ++b) {
      MutByteSpan block(data.data() + b * kBlk, kBlk);
      if (b % 3 == 0) {
        const Bytes r = rng.RandomBytes(kBlk);
        std::copy(r.begin(), r.end(), block.begin());
      } else if (b % 3 == 1) {
        std::fill(block.begin(), block.end(), static_cast<uint8_t>(b));
      }  // else: leave zero
    }
    ImageOptions o = TestImage(spec);
    o.iv_cache.enabled = true;
    o.meta_store.enabled = true;
    o.meta_store.device = &meta_dev;
    {
      auto image = co_await Image::Create(**cluster, "cwarm", "pw", o);
      CO_ASSERT_OK(image.status());
      CO_ASSERT_OK(co_await (*image)->Write(0, data));
      CO_ASSERT_OK(co_await (*image)->Flush());
      co_await (*cluster)->Drain();
      CO_ASSERT_OK(co_await (*image)->Close());
    }
    auto reopened = co_await Image::Open(**cluster, "cwarm", "pw", o);
    CO_ASSERT_OK(reopened.status());
    auto& img = **reopened;
    auto got = co_await img.Read(0, data.size());
    CO_ASSERT_OK(got.status());
    EXPECT_EQ(*got, data);
    const obs::Metrics s = img.MetricsSnapshot();
    EXPECT_EQ(ImageCounter(s, "iv_meta_bytes_fetched"), 0u)
        << "warm reopen must serve compressed lengths from the local plane";
    EXPECT_GT(ImageCounter(s, "compress_expanded_blocks"), 0u)
        << "compressed blocks must decompress off locally-served headers";
    CO_ASSERT_OK(co_await img.Close());
  });
}

// The reopened header carries the codec: an image created with
// compression keeps compressing after a cold reopen too.
TEST(CompressedImage, ReopenedImageKeepsCompressing) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(SubBlockAllocCluster());
    CO_ASSERT_OK(cluster.status());
    const auto spec =
        CompressedSpec(core::IvLayout::kOmap, core::CipherMode::kGcmRandom,
                       core::Integrity::kNone);
    {
      auto image =
          co_await Image::Create(**cluster, "chdr", "pw", TestImage(spec));
      CO_ASSERT_OK(image.status());
      CO_ASSERT_OK(co_await (*image)->Close());
    }
    auto reopened = co_await Image::Open(**cluster, "chdr", "pw");
    CO_ASSERT_OK(reopened.status());
    Bytes data(4 * kBlk, 0x5A);
    CO_ASSERT_OK(co_await (*reopened)->Write(0, data));
    CO_ASSERT_OK(co_await (*reopened)->Flush());
    auto got = co_await (*reopened)->Read(0, data.size());
    CO_ASSERT_OK(got.status());
    EXPECT_EQ(*got, data);
    const obs::Metrics s = (*reopened)->MetricsSnapshot();
    EXPECT_EQ(ImageCounter(s, "compress_blocks"), 4u)
        << "the persisted header must re-enable the codec on open";
    co_await (*cluster)->Drain();
  });
}

// Compression needs a per-block record: Create must reject the codec on
// length-preserving formats instead of minting an unreadable image.
TEST(CompressedImage, CreateRejectsCodecOnMetadataFreeFormat) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(SubBlockAllocCluster());
    CO_ASSERT_OK(cluster.status());
    ImageOptions o;
    o.size = kImgSize;
    o.object_size = kObjSize;
    o.enc.mode = core::CipherMode::kXtsLba;  // LUKS2 baseline: no metadata
    o.enc.compression.codec = core::Compression::kLz;
    o.luks.pbkdf2_iterations = 10;
    o.luks.af_stripes = 8;
    auto image = co_await Image::Create(**cluster, "bad", "pw", o);
    EXPECT_FALSE(image.ok());
  });
}

// --- The off path: compression disabled must add zero compress work ---

// One observed mixed run with compression off; returns clock + events and
// asserts the obs plane saw no compress span and no compress stats.
void OffRunAndClock(sim::SimTime* clock, uint64_t* events) {
  sim::Scheduler sched;
  bool ok = false;
  sched.Spawn([](bool* ok) -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(testutil::TestCluster());
    if (!cluster.ok()) co_return;
    ImageOptions o;
    o.size = kImgSize;
    o.object_size = kObjSize;
    o.enc.mode = core::CipherMode::kXtsRandom;
    o.enc.layout = core::IvLayout::kObjectEnd;
    o.enc.integrity = core::Integrity::kHmac;
    o.enc.iv_seed = 7;
    o.luks.pbkdf2_iterations = 10;
    o.luks.af_stripes = 8;
    o.obs.enabled = true;
    auto image = co_await Image::Create(**cluster, "off", "pw", o);
    if (!image.ok()) co_return;

    workload::FioConfig fio;
    fio.rw_mix_pct = 60;
    fio.discard_pct = 10;
    fio.io_size = 4096;
    fio.queue_depth = 8;
    fio.total_ops = 96;
    fio.working_set = 2ull << 20;
    fio.seed = 11;
    workload::FioRunner runner(**image, fio);
    if (!(co_await runner.Prefill()).ok()) co_return;
    if (!(co_await runner.Run()).ok()) co_return;

    for (const obs::Span& s : (*image)->obs().tracer().Spans()) {
      EXPECT_NE(s.stage, obs::Stage::kCompress)
          << "compression off must never open a compress span";
    }
    const obs::Metrics st = (*image)->MetricsSnapshot();
    EXPECT_EQ(ImageCounter(st, "compress_in_bytes"), 0u);
    EXPECT_EQ(ImageCounter(st, "compress_blocks"), 0u);
    EXPECT_EQ(ImageCounter(st, "compress_expanded_blocks"), 0u);
    co_await (*cluster)->Drain();
    *ok = true;
  }(&ok));
  sched.Run();
  ASSERT_TRUE(ok);
  *clock = sched.now();
  *events = sched.events_processed();
}

// Compression off is a pure passthrough: no compress spans, no compress
// stats, and the run is deterministic to the event. The .mc4 shard reruns
// this under VDE_SIM_CORES=4, covering the multi-core off path too.
TEST(CompressedImage, CompressionOffAddsNoCompressWork) {
  sim::SimTime clock_a = 0, clock_b = 0;
  uint64_t events_a = 0, events_b = 0;
  OffRunAndClock(&clock_a, &events_a);
  OffRunAndClock(&clock_b, &events_b);
  EXPECT_EQ(clock_a, clock_b);
  EXPECT_EQ(events_a, events_b);
}

}  // namespace
}  // namespace vde::rbd
