// Matrix tests of the completion-based async IO API: unaligned sub-block
// and straddling writes (RMW through the crypto layer), discard/write-zeroes,
// and flush ordering — across every encryption layout the paper discusses,
// plus verify-mode fio runs at sub-block and straddling IO sizes.
#include <algorithm>
#include <gtest/gtest.h>

#include "../testutil.h"
#include "rbd/image.h"
#include "util/rng.h"
#include "workload/fio.h"

namespace vde::rbd {
namespace {

using testutil::ImageCounter;
using testutil::TestCluster;

constexpr uint64_t kObjSize = 64 * 1024;  // 16 blocks: cheap cross-object IO
constexpr uint64_t kImgSize = 8ull << 20;

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

class AioAllLayouts : public ::testing::TestWithParam<core::EncryptionSpec> {};

INSTANTIATE_TEST_SUITE_P(AllLayouts, AioAllLayouts,
                         ::testing::ValuesIn(AllLayouts()), SpecTestName);

// Sub-block write: 512 B inside one 4 KiB block must merge with the old
// block content (RMW) and only re-encrypt that block.
TEST_P(AioAllLayouts, SubBlockWriteRoundTrips) {
  testutil::RunSim([spec = GetParam()]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    auto image =
        co_await Image::Create(**cluster, "sub", "pw", TestImage(spec));
    CO_ASSERT_OK(image.status());
    auto& img = **image;
    Rng rng(1);
    Bytes model = rng.RandomBytes(2 * core::kBlockSize);
    CO_ASSERT_OK(co_await img.Write(0, model));

    const Bytes patch = rng.RandomBytes(512);
    const uint64_t patch_off = 1000;  // mid-block, sector-unaligned
    CO_ASSERT_OK(co_await img.Write(patch_off, patch));
    std::copy(patch.begin(), patch.end(),
              model.begin() + static_cast<long>(patch_off));
    EXPECT_GT(ImageCounter(img, "rmw_blocks"), 0u);

    auto got = co_await img.Read(0, model.size());
    CO_ASSERT_OK(got.status());
    CO_ASSERT_TRUE(*got == model);
    // And an unaligned read of just the patched range.
    auto sub = co_await img.Read(patch_off, patch.size());
    CO_ASSERT_OK(sub.status());
    CO_ASSERT_TRUE(*sub == patch);
  });
}

// Straddling write: 6144 B crossing block AND object boundaries at a
// sector-unaligned offset.
TEST_P(AioAllLayouts, StraddlingWriteRoundTrips) {
  testutil::RunSim([spec = GetParam()]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    auto image =
        co_await Image::Create(**cluster, "straddle", "pw", TestImage(spec));
    CO_ASSERT_OK(image.status());
    auto& img = **image;
    Rng rng(2);
    const uint64_t span = 3 * kObjSize;
    Bytes model = rng.RandomBytes(span);
    CO_ASSERT_OK(co_await img.Write(0, model));

    // Crosses the object 1 -> object 2 boundary mid-block.
    const uint64_t off = 2 * kObjSize - 2048 - 512;
    const Bytes patch = rng.RandomBytes(6144);
    CO_ASSERT_OK(co_await img.Write(off, patch));
    std::copy(patch.begin(), patch.end(),
              model.begin() + static_cast<long>(off));

    auto got = co_await img.Read(0, span);
    CO_ASSERT_OK(got.status());
    CO_ASSERT_TRUE(*got == model);
  });
}

// A request's one buffer may be a window into a larger caller allocation:
// a write takes exactly its span's bytes, and a read fills exactly its span,
// leaving the guard bytes on either side untouched — at unaligned offsets
// across an object boundary, and for a read that runs into a never-written
// hole.
TEST_P(AioAllLayouts, SubspanIoTouchesOnlyItsBytes) {
  testutil::RunSim([spec = GetParam()]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    auto image =
        co_await Image::Create(**cluster, "window", "pw", TestImage(spec));
    CO_ASSERT_OK(image.status());
    auto& img = **image;
    Rng rng(3);
    Bytes model = rng.RandomBytes(2 * kObjSize);
    CO_ASSERT_OK(co_await img.Write(0, model));
    model.resize(3 * kObjSize, 0);  // object 2 is never written

    constexpr size_t kGuard = 64;
    constexpr uint8_t kPoison = 0xA5;
    const size_t len = 700 + 4096 + 1234;
    const uint64_t off = kObjSize - 4096 - 300;  // straddles objects 0/1
    const Bytes src = rng.RandomBytes(len + 2 * kGuard);
    const ByteSpan window = ByteSpan(src).subspan(kGuard, len);
    auto wc = Completion::Create();
    img.AioWrite(window, off, wc);
    co_await wc->Wait();
    CO_ASSERT_OK(wc->status());
    std::copy(window.begin(), window.end(),
              model.begin() + static_cast<long>(off));

    // Reads into a poisoned buffer: the first over the written window, the
    // second from object 1's tail into the hole of object 2.
    for (const uint64_t at : {off, 2 * kObjSize - 2048 - 300}) {
      Bytes dst(len + 2 * kGuard, kPoison);
      auto rc = Completion::Create();
      img.AioRead(MutByteSpan(dst).subspan(kGuard, len), at, rc);
      co_await rc->Wait();
      CO_ASSERT_OK(rc->status());
      CO_ASSERT_TRUE(std::equal(dst.begin() + kGuard,
                                dst.begin() + static_cast<long>(kGuard + len),
                                model.begin() + static_cast<long>(at)));
      for (size_t i = 0; i < kGuard; ++i) {
        CO_ASSERT_EQ(dst[i], kPoison);
        CO_ASSERT_EQ(dst[kGuard + len + i], kPoison);
      }
    }

    auto got = co_await img.Read(0, 3 * kObjSize);
    CO_ASSERT_OK(got.status());
    CO_ASSERT_TRUE(*got == model);
  });
}

// Discard of a full object range reads back as zeros; a partial discard
// zeroes only whole blocks inside the range and keeps the edges.
TEST_P(AioAllLayouts, DiscardThenReadZeroes) {
  testutil::RunSim([spec = GetParam()]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    auto image =
        co_await Image::Create(**cluster, "trim", "pw", TestImage(spec));
    CO_ASSERT_OK(image.status());
    auto& img = **image;
    Rng rng(4);
    Bytes model = rng.RandomBytes(2 * kObjSize);
    CO_ASSERT_OK(co_await img.Write(0, model));

    // Full first object.
    CO_ASSERT_OK(co_await img.Discard(0, kObjSize));
    std::fill(model.begin(), model.begin() + kObjSize, 0);

    // Partial in the second object: interior whole blocks only.
    const uint64_t off = kObjSize + 1000;
    const uint64_t len = 3 * core::kBlockSize;
    CO_ASSERT_OK(co_await img.Discard(off, len));
    const uint64_t zfirst =
        (off + core::kBlockSize - 1) / core::kBlockSize * core::kBlockSize;
    const uint64_t zlast = (off + len) / core::kBlockSize * core::kBlockSize;
    std::fill(model.begin() + static_cast<long>(zfirst),
              model.begin() + static_cast<long>(zlast), 0);

    auto got = co_await img.Read(0, model.size());
    CO_ASSERT_OK(got.status());
    CO_ASSERT_TRUE(*got == model);
    EXPECT_EQ(ImageCounter(img, "discards"), 2u);
    EXPECT_EQ(ImageCounter(img, "bytes_discarded"), kObjSize + len);
  });
}

// Write-zeroes zeroes the exact byte range, down to sub-block edges.
TEST_P(AioAllLayouts, WriteZeroesExactRange) {
  testutil::RunSim([spec = GetParam()]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    auto image =
        co_await Image::Create(**cluster, "wz", "pw", TestImage(spec));
    CO_ASSERT_OK(image.status());
    auto& img = **image;
    Rng rng(5);
    Bytes model = rng.RandomBytes(kObjSize);
    CO_ASSERT_OK(co_await img.Write(0, model));

    const uint64_t off = 1000;
    const uint64_t len = 2 * core::kBlockSize + 777;
    CO_ASSERT_OK(co_await img.WriteZeroes(off, len));
    std::fill(model.begin() + static_cast<long>(off),
              model.begin() + static_cast<long>(off + len), 0);

    auto got = co_await img.Read(0, model.size());
    CO_ASSERT_OK(got.status());
    CO_ASSERT_TRUE(*got == model);
  });
}

// Flush resolves only after every previously issued write completed.
TEST_P(AioAllLayouts, FlushOrdering) {
  testutil::RunSim([spec = GetParam()]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    auto image =
        co_await Image::Create(**cluster, "flush", "pw", TestImage(spec));
    CO_ASSERT_OK(image.status());
    auto& img = **image;
    Rng rng(6);

    std::vector<Bytes> bufs;
    std::vector<CompletionPtr> writes;
    for (int i = 0; i < 4; ++i) {
      bufs.push_back(rng.RandomBytes(5000));  // unaligned on purpose
      auto c = Completion::Create();
      img.AioWrite(bufs.back(), static_cast<uint64_t>(i) * 16384 + 100, c);
      writes.push_back(std::move(c));
    }
    bool flush_saw_all_writes = false;
    auto flush = Completion::Create([&](Completion&) {
      flush_saw_all_writes =
          std::all_of(writes.begin(), writes.end(),
                      [](const CompletionPtr& w) { return w->complete(); });
    });
    img.AioFlush(flush);
    CO_ASSERT_FALSE(flush->complete());  // writes still in flight
    co_await flush->Wait();
    CO_ASSERT_TRUE(flush->complete());
    CO_ASSERT_OK(flush->status());
    CO_ASSERT_TRUE(flush_saw_all_writes);
    for (const auto& w : writes) CO_ASSERT_OK(w->status());
    EXPECT_EQ(ImageCounter(img, "flushes"), 1u);
    // An idle-image flush resolves immediately.
    CO_ASSERT_OK(co_await img.Flush());
  });
}

// Every mutation path keeps data, IV metadata and the sealed discard bitmap
// in ONE object transaction (§3.1): write-through onto a trimmed block (the
// bitmap flips), a 3-block RMW write, a staged sub-block write (zero
// transactions until the flush drains it), a partial discard, write-zeroes
// with partial edges and an interior, and a whole-object remove. RMW and
// bitmap loads are reads, not transactions; replication 1 makes one
// mutation exactly one store transaction.
class AioTxnAtomicity
    : public ::testing::TestWithParam<core::EncryptionSpec> {};

INSTANTIATE_TEST_SUITE_P(
    AuthenticatedLayouts, AioTxnAtomicity,
    ::testing::Values(Spec(core::CipherMode::kXtsRandom,
                           core::IvLayout::kObjectEnd, core::Integrity::kHmac),
                      Spec(core::CipherMode::kGcmRandom, core::IvLayout::kOmap),
                      Spec(core::CipherMode::kGcmRandom,
                           core::IvLayout::kUnaligned)),
    SpecTestName);

TEST_P(AioTxnAtomicity, EveryMutationIsOneTransaction) {
  testutil::RunSim([spec = GetParam()]() -> sim::Task<void> {
    constexpr uint64_t kB = core::kBlockSize;
    rados::ClusterConfig cfg = TestCluster();
    cfg.nodes = 1;
    cfg.osds_per_node = 3;
    cfg.replication = 1;
    auto cluster = co_await rados::Cluster::Create(cfg);
    auto image = co_await Image::Create(**cluster, "atomic", "pw",
                                        TestImage(spec));
    CO_ASSERT_OK(image.status());
    auto& img = **image;
    Rng rng(7);
    Bytes model = rng.RandomBytes(2 * kObjSize);
    CO_ASSERT_OK(co_await img.Write(0, model));
    CO_ASSERT_OK(co_await img.Discard(3 * kB, kB));
    std::fill(model.begin() + 3 * kB, model.begin() + 4 * kB, 0);

    auto txn_count = [&]() {
      uint64_t n = 0;
      for (size_t i = 0; i < (*cluster)->osd_count(); ++i) {
        n += (*cluster)->osd(i).store().stats().transactions;
      }
      return n;
    };
    auto write = [&](uint64_t off, uint64_t len) -> sim::Task<Status> {
      const Bytes data = rng.RandomBytes(len);
      std::copy(data.begin(), data.end(), model.begin() + off);
      co_return co_await img.Write(off, data);
    };
    auto zero = [&](uint64_t off, uint64_t len) {
      std::fill(model.begin() + off, model.begin() + off + len, 0);
    };

    uint64_t before = txn_count();
    const uint64_t flips = ImageCounter(img, "trim_bitmap_updates");
    CO_ASSERT_OK(co_await write(3 * kB, kB));
    EXPECT_EQ(txn_count() - before, 1u) << "aligned write onto a trim";
    EXPECT_EQ(ImageCounter(img, "trim_bitmap_updates"), flips + 1)
        << "the write must flip the trimmed block's bit";

    before = txn_count();
    CO_ASSERT_OK(co_await write(5 * kB + 512, 2 * kB + 1024));
    EXPECT_EQ(txn_count() - before, 1u) << "3-block RMW write";

    before = txn_count();
    CO_ASSERT_OK(co_await write(9 * kB + 100, 512));
    EXPECT_EQ(txn_count() - before, 0u)
        << "sub-block write must stage, not write through";
    CO_ASSERT_OK(co_await img.Flush());
    EXPECT_EQ(txn_count() - before, 1u) << "staged write flushed";

    before = txn_count();
    CO_ASSERT_OK(co_await img.Discard(10 * kB, 2 * kB));
    zero(10 * kB, 2 * kB);
    EXPECT_EQ(txn_count() - before, 1u) << "2-block partial discard";

    before = txn_count();
    CO_ASSERT_OK(co_await img.WriteZeroes(12 * kB + 300, 3 * kB));
    zero(12 * kB + 300, 3 * kB);
    EXPECT_EQ(txn_count() - before, 1u) << "write-zeroes, edges + interior";

    before = txn_count();
    CO_ASSERT_OK(co_await img.Discard(kObjSize, kObjSize));
    zero(kObjSize, kObjSize);
    EXPECT_EQ(txn_count() - before, 1u) << "whole-object discard";

    auto got = co_await img.Read(0, 2 * kObjSize);
    CO_ASSERT_OK(got.status());
    EXPECT_TRUE(*got == model);
  });
}

// A recycled object extent must never resurrect TRIMmed data: full-object
// discard (kRemove) scrubs the extent, so a partial rewrite of the same
// object reads zeros — not the old ciphertext — everywhere else.
TEST_P(AioAllLayouts, DiscardedDataNotResurrectedByRewrite) {
  testutil::RunSim([spec = GetParam()]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    auto image =
        co_await Image::Create(**cluster, "scrub", "pw", TestImage(spec));
    CO_ASSERT_OK(image.status());
    auto& img = **image;
    Rng rng(9);
    const Bytes secret = rng.RandomBytes(kObjSize);
    CO_ASSERT_OK(co_await img.Write(0, secret));
    CO_ASSERT_OK(co_await img.Discard(0, kObjSize));
    // Rewrite one block; the rest of the object must stay zeros.
    const Bytes fresh = rng.RandomBytes(core::kBlockSize);
    CO_ASSERT_OK(co_await img.Write(0, fresh));
    auto got = co_await img.Read(0, kObjSize);
    CO_ASSERT_OK(got.status());
    CO_ASSERT_TRUE(std::equal(fresh.begin(), fresh.end(), got->begin()));
    CO_ASSERT_TRUE(std::all_of(got->begin() + core::kBlockSize, got->end(),
                               [](uint8_t b) { return b == 0; }));
  });
}

// Snapshots still serve pre-discard data: discard clones before clearing.
TEST(AioAtomicity, SnapshotSurvivesDiscard) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    auto image = co_await Image::Create(
        **cluster, "snaptrim", "pw",
        TestImage(Spec(core::CipherMode::kXtsRandom, core::IvLayout::kOmap)));
    CO_ASSERT_OK(image.status());
    auto& img = **image;
    Rng rng(8);
    const Bytes v1 = rng.RandomBytes(kObjSize);
    CO_ASSERT_OK(co_await img.Write(0, v1));
    auto snap = co_await img.SnapCreate("before-trim");
    CO_ASSERT_OK(snap.status());

    CO_ASSERT_OK(co_await img.Discard(0, kObjSize));
    auto head = co_await img.Read(0, kObjSize);
    CO_ASSERT_OK(head.status());
    CO_ASSERT_TRUE(std::all_of(head->begin(), head->end(),
                               [](uint8_t b) { return b == 0; }));
    auto old = co_await img.Read(0, kObjSize, *snap);
    CO_ASSERT_OK(old.status());
    CO_ASSERT_TRUE(*old == v1);
  });
}

// --- Verify-mode fio at sub-block and straddling IO sizes ---

class AioFio : public ::testing::TestWithParam<core::EncryptionSpec> {};

INSTANTIATE_TEST_SUITE_P(AllLayouts, AioFio,
                         ::testing::ValuesIn(AllLayouts()), SpecTestName);

TEST_P(AioFio, VerifyReadsAtUnalignedIoSizes) {
  for (const uint64_t io_size : {uint64_t{512}, uint64_t{6144}}) {
    testutil::RunSim([spec = GetParam(), io_size]() -> sim::Task<void> {
      auto cluster = co_await rados::Cluster::Create(TestCluster());
      auto image =
          co_await Image::Create(**cluster, "fio", "pw", TestImage(spec));
      CO_ASSERT_OK(image.status());
      workload::FioConfig cfg;
      cfg.io_size = io_size;
      cfg.offset_align = 512;  // sector-granular guest offsets
      cfg.total_ops = 48;
      cfg.queue_depth = 8;
      cfg.working_set = 1 << 20;
      cfg.verify = true;
      cfg.seed = 11 + io_size;
      workload::FioRunner fio(**image, cfg);
      CO_ASSERT_OK(co_await fio.Prefill());
      auto result = co_await fio.Run();
      CO_ASSERT_OK(result.status());
      EXPECT_EQ(result->ops, cfg.total_ops);
      EXPECT_EQ(result->bytes, cfg.total_ops * io_size);
    });
  }
}

TEST(AioFio, VerifiedDiscardMix) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    auto image = co_await Image::Create(
        **cluster, "fiotrim", "pw",
        TestImage(Spec(core::CipherMode::kXtsRandom,
                       core::IvLayout::kObjectEnd)));
    CO_ASSERT_OK(image.status());
    workload::FioConfig cfg;
    cfg.io_size = 8192 + 512;       // straddling, unaligned
    cfg.offset_align = 512;
    cfg.discard_pct = 30;
    cfg.total_ops = 64;
    cfg.queue_depth = 8;            // overlapping IO applies in issue order
                                    // (write-back guards), so the content
                                    // model holds at depth
    cfg.working_set = 1 << 20;
    cfg.verify = true;
    cfg.seed = 23;
    workload::FioRunner fio(**image, cfg);
    CO_ASSERT_OK(co_await fio.Prefill());
    auto result = co_await fio.Run();
    CO_ASSERT_OK(result.status());
    EXPECT_EQ(result->ops, cfg.total_ops);
    EXPECT_GT(result->discards, 0u);
  });
}

// FioResult::Summary reports percentile latency, and the histogram excludes
// warmup ops: exactly total_ops samples even though warmup IOs ran first.
TEST(AioFio, SummaryAndWarmupExclusion) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    auto image = co_await Image::Create(
        **cluster, "fiosum", "pw",
        TestImage(Spec(core::CipherMode::kXtsRandom,
                       core::IvLayout::kObjectEnd)));
    CO_ASSERT_OK(image.status());
    workload::FioConfig cfg;
    cfg.io_size = 4096;
    cfg.total_ops = 32;
    cfg.warmup_ops = 16;
    cfg.queue_depth = 4;
    cfg.working_set = 1 << 20;
    cfg.seed = 5;
    workload::FioRunner fio(**image, cfg);
    CO_ASSERT_OK(co_await fio.Prefill());
    auto result = co_await fio.Run();
    CO_ASSERT_OK(result.status());
    // Warmup ops ran (and are excluded): the histogram holds exactly the
    // measured ops.
    EXPECT_EQ(result->latency_ns.count(), cfg.total_ops);
    EXPECT_EQ(result->ops, cfg.total_ops);
    EXPECT_GT(result->latency_ns.Percentile(99), 0.0);
    const std::string summary = result->Summary();
    EXPECT_NE(summary.find("p50"), std::string::npos);
    EXPECT_NE(summary.find("p99"), std::string::npos);
    EXPECT_NE(summary.find("MB/s"), std::string::npos);
  });
}

}  // namespace
}  // namespace vde::rbd
