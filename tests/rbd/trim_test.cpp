// Erase-channel attack matrix (authenticated TRIM): an attacker with raw
// store access zeroes a block's ciphertext AND metadata, forging the
// cleared marker. Formats with ciphertext authentication (HMAC, GCM) must
// reject the forged discard via the MAC'd per-object discard bitmap while
// still reading authentic trims as zeros — across all three metadata
// geometries. Unauthenticated formats keep the legacy marker semantics.
#include <algorithm>

#include <gtest/gtest.h>

#include "../testutil.h"
#include "rbd/image.h"
#include "util/rng.h"

namespace vde::rbd {
namespace {

using testutil::TestCluster;

constexpr uint64_t kObjSize = 64 * 1024;  // 16 blocks
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

core::EncryptionSpec Spec(core::CipherMode mode, core::IvLayout layout,
                          core::Integrity integrity = core::Integrity::kNone) {
  core::EncryptionSpec s;
  s.mode = mode;
  s.layout = layout;
  s.integrity = integrity;
  return s;
}

// The authenticating format x geometry matrix the erase channel matters
// for: HMAC on all three layouts, GCM (AEAD) on two.
std::vector<core::EncryptionSpec> AuthSpecs() {
  return {
      Spec(core::CipherMode::kXtsRandom, core::IvLayout::kUnaligned,
           core::Integrity::kHmac),
      Spec(core::CipherMode::kXtsRandom, core::IvLayout::kObjectEnd,
           core::Integrity::kHmac),
      Spec(core::CipherMode::kXtsRandom, core::IvLayout::kOmap,
           core::Integrity::kHmac),
      Spec(core::CipherMode::kGcmRandom, core::IvLayout::kObjectEnd),
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

Bytes BlockKey(uint64_t block) {
  Bytes key(8);
  StoreU64Be(key.data(), block);
  return key;
}

// Zeroes block `block`'s ciphertext and per-block metadata of object 0 on
// every OSD holding it — the strongest store-level attacker: all replicas,
// data and metadata, without touching the transaction path.
sim::Task<void> EraseBlock(rados::Cluster& cluster, const Image& img,
                           uint64_t block) {
  const std::string oid = img.ObjectName(0);
  const core::EncryptionSpec& spec = img.spec();
  const size_t meta = spec.MetaPerBlock();
  for (size_t i = 0; i < cluster.osd_count(); ++i) {
    objstore::ObjectStore& os = cluster.osd(i).store();
    if (!os.ObjectExists(oid)) continue;
    switch (spec.layout) {
      case core::IvLayout::kUnaligned: {
        const uint64_t stride = kBlk + meta;
        CO_ASSERT_OK(os.TamperObjectData(oid, block * stride,
                                      Bytes(stride, 0)));
        break;
      }
      case core::IvLayout::kObjectEnd:
        CO_ASSERT_OK(os.TamperObjectData(oid, block * kBlk, Bytes(kBlk, 0)));
        CO_ASSERT_OK(os.TamperObjectData(oid, kObjSize + block * meta,
                                      Bytes(meta, 0)));
        break;
      case core::IvLayout::kOmap:
        CO_ASSERT_OK(os.TamperObjectData(oid, block * kBlk, Bytes(kBlk, 0)));
        CO_ASSERT_OK(co_await os.TamperOmapRow(oid, BlockKey(block),
                                               Bytes{}));
        break;
      case core::IvLayout::kNone:
        ADD_FAILURE() << "matrix only covers metadata layouts";
        co_return;
    }
  }
}

class TrimAuthAllLayouts
    : public ::testing::TestWithParam<core::EncryptionSpec> {};

INSTANTIATE_TEST_SUITE_P(AuthLayouts, TrimAuthAllLayouts,
                         ::testing::ValuesIn(AuthSpecs()), SpecTestName);

// The acceptance gate: a zeroed LIVE block fails authentication, an
// authentic trim of the SAME geometry reads as zeros, and untouched
// blocks keep reading their data.
TEST_P(TrimAuthAllLayouts, ZeroedLiveBlockFailsAuthenticTrimReadsZeros) {
  testutil::RunSim([spec = GetParam()]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    auto image =
        co_await Image::Create(**cluster, "era", "pw", TestImage(spec));
    CO_ASSERT_OK(image.status());
    auto& img = **image;
    Rng rng(11);
    const Bytes data = rng.RandomBytes(3 * kBlk);
    CO_ASSERT_OK(co_await img.Write(0, data));
    CO_ASSERT_OK(co_await img.Flush());
    co_await (*cluster)->Drain();

    // Authentic trim of block 2: reads as zeros, before and after.
    CO_ASSERT_OK(co_await img.Discard(2 * kBlk, kBlk));
    auto trimmed = co_await img.Read(2 * kBlk, kBlk);
    CO_ASSERT_OK(trimmed.status());
    EXPECT_TRUE(std::all_of(trimmed->begin(), trimmed->end(),
                            [](uint8_t b) { return b == 0; }));

    // Attacker zeroes live block 0 (data + metadata, every replica).
    co_await EraseBlock(**cluster, img, 0);
    auto forged = co_await img.Read(0, kBlk);
    EXPECT_EQ(forged.status().code(), StatusCode::kCorruption)
        << "attacker-zeroed live block must fail authentication, got: "
        << forged.status().ToString();

    // The untouched neighbor still round-trips.
    auto live = co_await img.Read(kBlk, kBlk);
    CO_ASSERT_OK(live.status());
    EXPECT_TRUE(std::equal(live->begin(), live->end(),
                           data.begin() + static_cast<long>(kBlk)));
  });
}

// Same attack, but the victim re-opens the image first: the discard
// bitmap is loaded back from the store (MAC verified) instead of from
// client memory, and the forged discard still fails.
TEST_P(TrimAuthAllLayouts, EraseDetectedAcrossReopen) {
  testutil::RunSim([spec = GetParam()]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    {
      auto image =
          co_await Image::Create(**cluster, "rea", "pw", TestImage(spec));
      CO_ASSERT_OK(image.status());
      Rng rng(12);
      CO_ASSERT_OK(co_await (*image)->Write(0, rng.RandomBytes(2 * kBlk)));
      CO_ASSERT_OK(co_await (*image)->Discard(kBlk, kBlk));
      CO_ASSERT_OK(co_await (*image)->Flush());
      co_await (*cluster)->Drain();
      co_await EraseBlock(**cluster, **image, 0);
    }
    auto reopened = co_await Image::Open(**cluster, "rea", "pw");
    CO_ASSERT_OK(reopened.status());
    auto forged = co_await (*reopened)->Read(0, kBlk);
    EXPECT_EQ(forged.status().code(), StatusCode::kCorruption);
    auto trimmed = co_await (*reopened)->Read(kBlk, kBlk);
    CO_ASSERT_OK(trimmed.status());
    EXPECT_TRUE(std::all_of(trimmed->begin(), trimmed->end(),
                            [](uint8_t b) { return b == 0; }));
  });
}

// Wiping the bitmap record itself is also detected: without a verifiable
// bitmap the image refuses to treat any cleared block as an authentic
// discard.
TEST_P(TrimAuthAllLayouts, WipedBitmapRecordDetectedOnReload) {
  testutil::RunSim([spec = GetParam()]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    {
      auto image =
          co_await Image::Create(**cluster, "wipe", "pw", TestImage(spec));
      CO_ASSERT_OK(image.status());
      Rng rng(13);
      CO_ASSERT_OK(co_await (*image)->Write(0, rng.RandomBytes(2 * kBlk)));
      CO_ASSERT_OK(co_await (*image)->Flush());
      co_await (*cluster)->Drain();
      // Wipe the sealed bitmap record on every replica.
      const std::string oid = (*image)->ObjectName(0);
      const size_t meta = spec.MetaPerBlock();
      const size_t bpo = kObjSize / kBlk;
      const size_t record = bpo / 8 + 32;
      for (size_t i = 0; i < (*cluster)->osd_count(); ++i) {
        objstore::ObjectStore& os = (*cluster)->osd(i).store();
        if (!os.ObjectExists(oid)) continue;
        if (spec.layout == core::IvLayout::kOmap) {
          // The OMAP attacker can do better than a zero-filled record:
          // EMPTY the row outright, trying to masquerade as a fresh
          // object. The existence probe in the bitmap read catches it.
          const Bytes bitmap_key(1, uint8_t{'B'});
          CO_ASSERT_OK(co_await os.TamperOmapRow(oid, bitmap_key, Bytes{}));
        } else {
          const uint64_t off = spec.layout == core::IvLayout::kUnaligned
                                   ? bpo * (kBlk + meta)
                                   : kObjSize + bpo * meta;
          CO_ASSERT_OK(os.TamperObjectData(oid, off, Bytes(record, 0)));
        }
      }
    }
    auto reopened = co_await Image::Open(**cluster, "wipe", "pw");
    CO_ASSERT_OK(reopened.status());
    auto got = co_await (*reopened)->Read(0, kBlk);
    EXPECT_EQ(got.status().code(), StatusCode::kCorruption);
  });
}

// A trim after a snapshot: the head authenticates the discard (zeros),
// while the snapshot still reads the preserved pre-trim data — the clone
// froze both the data and the trimmed-extent map.
TEST_P(TrimAuthAllLayouts, SnapshotPreservesDataAcrossAuthenticatedTrim) {
  testutil::RunSim([spec = GetParam()]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    auto image =
        co_await Image::Create(**cluster, "snap", "pw", TestImage(spec));
    CO_ASSERT_OK(image.status());
    auto& img = **image;
    Rng rng(15);
    const Bytes data = rng.RandomBytes(2 * kBlk);
    CO_ASSERT_OK(co_await img.Write(0, data));
    auto snap = co_await img.SnapCreate("pre-trim");
    CO_ASSERT_OK(snap.status());
    CO_ASSERT_OK(co_await img.Discard(0, kBlk));

    auto head = co_await img.Read(0, 2 * kBlk);
    CO_ASSERT_OK(head.status());
    EXPECT_TRUE(std::all_of(head->begin(),
                            head->begin() + static_cast<long>(kBlk),
                            [](uint8_t b) { return b == 0; }));
    EXPECT_TRUE(std::equal(head->begin() + static_cast<long>(kBlk),
                           head->end(),
                           data.begin() + static_cast<long>(kBlk)));
    auto old = co_await img.Read(0, 2 * kBlk, *snap);
    CO_ASSERT_OK(old.status());
    CO_ASSERT_TRUE(*old == data);
    co_await (*cluster)->Drain();
  });
}

// Contrast case: a format WITHOUT authentication keeps the legacy
// unauthenticated marker — the same attack silently reads as a discard.
// (This is the gap the bitmap closes for HMAC/GCM, kept bit-compatible
// for plain-IV formats.)
TEST(TrimAuthLegacy, UnauthenticatedFormatReadsForgedDiscardAsZeros) {
  testutil::RunSim([]() -> sim::Task<void> {
    const auto spec =
        Spec(core::CipherMode::kXtsRandom, core::IvLayout::kObjectEnd);
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    auto image =
        co_await Image::Create(**cluster, "leg", "pw", TestImage(spec));
    CO_ASSERT_OK(image.status());
    auto& img = **image;
    Rng rng(14);
    CO_ASSERT_OK(co_await img.Write(0, rng.RandomBytes(kBlk)));
    CO_ASSERT_OK(co_await img.Flush());
    co_await (*cluster)->Drain();
    co_await EraseBlock(**cluster, img, 0);
    auto got = co_await img.Read(0, kBlk);
    CO_ASSERT_OK(got.status());
    EXPECT_TRUE(std::all_of(got->begin(), got->end(),
                            [](uint8_t b) { return b == 0; }));
  });
}

}  // namespace
}  // namespace vde::rbd
