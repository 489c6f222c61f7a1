// On-disk format golden test: pins the exact bytes every metadata-bearing
// format writes, so a change to the crypto primitives underneath (or to the
// transaction layout) cannot silently make existing images unreadable.
//
// Each case feeds a fixed master key, IV seed and plaintext through
// MakeWrite and compares the resulting transaction — every op's type,
// offset, length and payload, plus OMAP kvs — against a recorded SHA-256 of
// its canonical serialization. The digest is computed with OpenSSL directly
// so the test does not depend on the hash it is guarding. A second table
// pins every other op the format builds (reads, data-only reads, discards,
// discard-bitmap record ops) for every spec. Also pinned: a sealed discard
// bitmap, the head of a seeded DRBG stream, a wide-block ciphertext, the
// deterministic formats and a LUKS key-slot digest.
#include <gtest/gtest.h>
#include <openssl/evp.h>

#include <string>

#include "core/format.h"
#include "core/luks_header.h"
#include "crypto/rand.h"
#include "crypto/wideblock.h"
#include "util/rng.h"

namespace vde::core {
namespace {

using objstore::OsdOp;
using objstore::Transaction;

constexpr uint64_t kObjectSize = 4ull << 20;
constexpr size_t kBlocks = 2;

Bytes GoldenKey() {
  Bytes key(64);
  for (size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<uint8_t>(i * 7 + 1);
  }
  return key;
}

// `kBlocks` blocks of plaintext. With `half_compressible`, the leading half
// of every block is one repeated byte and the rest is seeded noise, so the
// LZ stage stores each block at about 50%.
Bytes GoldenPlain(bool half_compressible) {
  Rng rng(0x601D);
  Bytes plain = rng.RandomBytes(kBlocks * kBlockSize);
  if (half_compressible) {
    for (size_t b = 0; b < kBlocks; ++b) {
      std::fill_n(plain.begin() + static_cast<long>(b * kBlockSize),
                  kBlockSize / 2, static_cast<uint8_t>(0xA5 + b));
    }
  }
  return plain;
}

std::string Sha256Hex(ByteSpan data) {
  uint8_t md[EVP_MAX_MD_SIZE];
  unsigned int len = 0;
  EXPECT_EQ(EVP_Digest(data.data(), data.size(), md, &len, EVP_sha256(),
                       nullptr),
            1);
  return ToHex(ByteSpan(md, len));
}

// Canonical serialization of the fields of `txn` that reach the store.
Bytes Serialize(const Transaction& txn) {
  Bytes out;
  for (const OsdOp& op : txn.ops) {
    AppendU8(out, static_cast<uint8_t>(op.type));
    AppendU64Le(out, op.offset);
    AppendU64Le(out, op.length);
    AppendU64Le(out, op.data.size());
    AppendBytes(out, op.data);
    AppendU64Le(out, op.omap_kvs.size());
    for (const auto& [k, v] : op.omap_kvs) {
      AppendU64Le(out, k.size());
      AppendBytes(out, k);
      AppendU64Le(out, v.size());
      AppendBytes(out, v);
    }
    if (op.type == OsdOp::Type::kOmapGetRange) {
      AppendU64Le(out, op.omap_start.size());
      AppendBytes(out, op.omap_start);
      AppendU64Le(out, op.omap_end.size());
      AppendBytes(out, op.omap_end);
    }
  }
  return out;
}

// Human-readable op shape, e.g. "W@0+8192 S[2] T@..." ("G" is an OMAP range
// read; its keys are in the digest): pins the layout
// independently of the payload digest, and makes a mismatch legible.
std::string Shape(const Transaction& txn) {
  std::string s;
  for (const OsdOp& op : txn.ops) {
    if (!s.empty()) s += ' ';
    switch (op.type) {
      case OsdOp::Type::kWrite: s += "W"; break;
      case OsdOp::Type::kRead: s += "R"; break;
      case OsdOp::Type::kTrim: s += "T"; break;
      case OsdOp::Type::kOmapSet:
        s += "S[" + std::to_string(op.omap_kvs.size()) + "]";
        continue;
      case OsdOp::Type::kOmapGetRange: s += "G"; continue;
      default: s += "?"; break;
    }
    s += "@" + std::to_string(op.offset) + "+" + std::to_string(op.length);
  }
  return s;
}

struct GoldenCase {
  const char* name;
  CipherMode mode;
  IvLayout layout;
  Integrity integrity;
  bool lz;
  const char* shape;
  const char* sha256;
};

EncryptionSpec SpecOf(const GoldenCase& c) {
  EncryptionSpec spec;
  spec.mode = c.mode;
  spec.layout = c.layout;
  spec.integrity = c.integrity;
  spec.iv_seed = 0x5EED;
  if (c.lz) spec.compression.codec = Compression::kLz;
  return spec;
}

ObjectExtent GoldenExtent() {
  ObjectExtent ext;
  ext.oid = "rbd_data.golden.0000000000000001";
  ext.object_no = 1;
  ext.first_block = 3;
  ext.block_count = kBlocks;
  ext.image_block = 1024 + 3;
  return ext;
}

class FormatGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(FormatGolden, MakeWriteBytesPinned) {
  const GoldenCase& c = GetParam();
  auto fmt = MakeFormat(SpecOf(c), GoldenKey(), kObjectSize);
  ASSERT_NE(fmt, nullptr);
  Transaction txn;
  ASSERT_TRUE(fmt->MakeWrite(GoldenExtent(), GoldenPlain(c.lz), txn).ok());
  EXPECT_EQ(Shape(txn), c.shape) << c.name;
  EXPECT_EQ(Sha256Hex(Serialize(txn)), c.sha256) << c.name;
}

constexpr auto kXts = CipherMode::kXtsRandom;
constexpr auto kGcm = CipherMode::kGcmRandom;
constexpr auto kUna = IvLayout::kUnaligned;
constexpr auto kEnd = IvLayout::kObjectEnd;
constexpr auto kOmap = IvLayout::kOmap;
constexpr auto kNoMac = Integrity::kNone;
constexpr auto kHmac = Integrity::kHmac;

INSTANTIATE_TEST_SUITE_P(
    AllGeometries, FormatGolden,
    ::testing::Values(
        GoldenCase{"xts_unaligned", kXts, kUna, kNoMac, false,
            "W@12336+8224",
            "c1c363e189de464ed943c91fb8ca89c560ca1f866b033eb5e0898191358d990b"},
        GoldenCase{"xts_unaligned_lz", kXts, kUna, kNoMac, true,
            "W@12345+8230 T@14414+2027 T@18529+2027",
            "5bcebae6bd66f1dbe89410a851daa30611628ac21301ba54489af4e08d5fbd65"},
        GoldenCase{"xts_hmac_unaligned", kXts, kUna, kHmac, false,
            "W@12432+8288",
            "d13cc262926de4234bf28603cb9c4ad9260460d2f8ee3a1fb193b4905fae01fe"},
        GoldenCase{"xts_hmac_unaligned_lz", kXts, kUna, kHmac, true,
            "W@12441+8294 T@14510+2027 T@18657+2027",
            "96d929ccf25ad1fcf993d1cd30cbc37038487378c94e6d5f42ed71cfec73c025"},
        GoldenCase{"gcm_unaligned", kGcm, kUna, kNoMac, false,
            "W@12372+8248",
            "8ba14547c8e709b5375c75980cd938cddeeb65fe15317bde554cc837ef17fa5c"},
        GoldenCase{"gcm_unaligned_lz", kGcm, kUna, kNoMac, true,
            "W@12381+8254 T@14450+2027 T@18577+2027",
            "dece7cd18ae6e1363d9321873f57c6e1a958dd3ef73356ae3756732f77d6247f"},
        GoldenCase{"xts_objectend", kXts, kEnd, kNoMac, false,
            "W@12288+8192 W@4194352+32",
            "14f56639630815fa2cce297c8fb0ecc2fdf3321590dca1328cd3a22a73d5006e"},
        GoldenCase{"xts_objectend_lz", kXts, kEnd, kNoMac, true,
            "W@12288+8192 W@4194361+38 T@14357+2027 T@18453+2027",
            "b51dcd8de83c10dc14868d79d2b1dafe26464606bfbb44086de262685170929a"},
        GoldenCase{"xts_hmac_objectend", kXts, kEnd, kHmac, false,
            "W@12288+8192 W@4194448+96",
            "0b8c15e8fb733034e241308b56868205531908e7f85e50148d7bda658d5673f4"},
        GoldenCase{"xts_hmac_objectend_lz", kXts, kEnd, kHmac, true,
            "W@12288+8192 W@4194457+102 T@14357+2027 T@18453+2027",
            "1a3b1c260bb7ad532bd221a1697788d377f1ebd6515c18548c6dc1e8ea99d424"},
        GoldenCase{"gcm_objectend", kGcm, kEnd, kNoMac, false,
            "W@12288+8192 W@4194388+56",
            "1aa9e08f6c40a875187fd73dedf269bc99a25d96e2cabf788e4f6ba8d9fb8bc0"},
        GoldenCase{"gcm_objectend_lz", kGcm, kEnd, kNoMac, true,
            "W@12288+8192 W@4194397+62 T@14357+2027 T@18453+2027",
            "616fd9e876baacb4a0b8e53e1cdaac640b758f8ccf11fbfcd0c8b1e7342eb142"},
        GoldenCase{"xts_omap", kXts, kOmap, kNoMac, false,
            "W@12288+8192 S[2]",
            "b5d266b7e35546e5b9e66a2f7d4f943afe348e9655e9037ab4cc612c01864aac"},
        GoldenCase{"xts_omap_lz", kXts, kOmap, kNoMac, true,
            "W@12288+8192 S[2] T@14357+2027 T@18453+2027",
            "f834053a8a777e7bf84d8ef91911ec3c3c055a35f2fe7536225c825981ce6c25"},
        GoldenCase{"xts_hmac_omap", kXts, kOmap, kHmac, false,
            "W@12288+8192 S[2]",
            "14a5a8a2edff389b7e78df6ee8eb660fcfd5d948ef214a75916a5dcac16a1bb2"},
        GoldenCase{"xts_hmac_omap_lz", kXts, kOmap, kHmac, true,
            "W@12288+8192 S[2] T@14357+2027 T@18453+2027",
            "51f629fd6e37ae3231e101c87bde76a7c8e5f13bde0ab91ad499e22ab3b7a227"},
        GoldenCase{"gcm_omap", kGcm, kOmap, kNoMac, false,
            "W@12288+8192 S[2]",
            "c0ff205b3419a834e37a65abab606af2fba88520439759fecdcc975ac2225226"},
        GoldenCase{"gcm_omap_lz", kGcm, kOmap, kNoMac, true,
            "W@12288+8192 S[2] T@14357+2027 T@18453+2027",
            "bd1af79ed2db4924d96c75fd9900501656e30bc454da8e3fb4121276056503b4"}),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return std::string(info.param.name);
    });

// Every other op the format builds, per spec at 1 and 3 blocks: the full
// read, the data-only read (where the geometry profits from one), the
// discard and the discard-bitmap record write and read, each as a shape,
// with the kRead payload bytes of each read and the modeled CPU costs.
// One SHA-256 covers every transaction of a row, OMAP keys included.
struct OpsCase {
  const char* name;
  CipherMode mode;
  IvLayout layout;
  Integrity integrity;
  bool lz;
  size_t blocks;
  const char* read;         // MakeRead
  size_t read_bytes;
  const char* data_only;    // data-only MakeRead; "" when not profitable
  size_t data_only_bytes;
  const char* discard;      // MakeDiscard
  const char* bitmap;       // MakeBitmapWrite | MakeBitmapRead; "" = none
  size_t meta_read_bytes;   // MetaReadBytes
  sim::SimTime crypto_cost; // CryptoCost(blocks * kBlockSize)
  sim::SimTime merge_cost;  // SubBlockMergeCost
  const char* sha256;
};

class FormatOpsGolden : public ::testing::TestWithParam<OpsCase> {};

TEST_P(FormatOpsGolden, OpsPinned) {
  const OpsCase& c = GetParam();
  EncryptionSpec spec;
  spec.mode = c.mode;
  spec.layout = c.layout;
  spec.integrity = c.integrity;
  spec.iv_seed = 0x5EED;
  if (c.lz) spec.compression.codec = Compression::kLz;
  auto fmt = MakeFormat(spec, GoldenKey(), kObjectSize);
  ASSERT_NE(fmt, nullptr);
  ObjectExtent ext = GoldenExtent();
  ext.block_count = c.blocks;

  Bytes all;
  const auto record = [&all](const Transaction& txn) {
    const Bytes raw = Serialize(txn);
    AppendU64Le(all, raw.size());
    AppendBytes(all, raw);
    return Shape(txn);
  };
  Transaction read;
  const size_t read_bytes = fmt->MakeRead(ext, read);
  EXPECT_EQ(record(read), c.read);
  EXPECT_EQ(read_bytes, c.read_bytes);
  Transaction data_only;
  size_t data_only_bytes = 0;
  if (fmt->DataOnlyReadProfitable(ext)) {
    data_only_bytes = fmt->MakeRead(ext, data_only, /*data_only=*/true);
  }
  EXPECT_EQ(record(data_only), c.data_only);
  EXPECT_EQ(data_only_bytes, c.data_only_bytes);
  Transaction discard;
  fmt->MakeDiscard(ext, discard);
  EXPECT_EQ(record(discard), c.discard);
  std::string bitmap;
  if (fmt->AuthenticatedTrim()) {
    DiscardBitmap bits = DiscardBitmap::AllSet(kObjectSize / kBlockSize);
    bits.ClearRange(3, 2);
    Transaction write;
    fmt->MakeBitmapWrite(1, fmt->SealBitmap(1, bits, 9), write);
    Transaction read_back;
    fmt->MakeBitmapRead(read_back);
    bitmap = record(write) + " | " + record(read_back);
  }
  EXPECT_EQ(bitmap, c.bitmap);
  EXPECT_EQ(fmt->MetaReadBytes(ext), c.meta_read_bytes);
  EXPECT_EQ(fmt->CryptoCost(c.blocks * kBlockSize), c.crypto_cost);
  EXPECT_EQ(fmt->SubBlockMergeCost(), c.merge_cost);
  EXPECT_EQ(Sha256Hex(all), c.sha256);
}

INSTANTIATE_TEST_SUITE_P(
    AllSpecs, FormatOpsGolden,
    ::testing::Values(
        OpsCase{"xts_unaligned_1", kXts, kUna, kNoMac, false, 1,
            "R@12336+4112", 4112,
            "R@12336+4096", 4096,
            "T@12336+4112",
            "",
            16, 3638, 500,
            "ef5a4aeec3f8d53c1e6c27a775724fe8e72b51b51b045741d6f696ac5af888de"},
        OpsCase{"xts_unaligned_3", kXts, kUna, kNoMac, false, 3,
            "R@12336+12336", 12336,
            "", 0,
            "T@12336+12336",
            "",
            48, 6915, 500,
            "325b80ebf5adc72030eb6d19f9f5ce8b8237f8590e883a5d3e81928a718f1609"},
        OpsCase{"xts_unaligned_lz_1", kXts, kUna, kNoMac, true, 1,
            "R@12345+4115", 4115,
            "R@12345+4096", 4096,
            "T@12345+4115",
            "",
            19, 3638, 500,
            "70fbf037e1e1f049da83ed44ae530b24700239376a7b9239cb641a7bad0cb625"},
        OpsCase{"xts_unaligned_lz_3", kXts, kUna, kNoMac, true, 3,
            "R@12345+12345", 12345,
            "", 0,
            "T@12345+12345",
            "",
            57, 6915, 500,
            "b7782c6a8c24ac70a4c0dc8556d91c6a4ca4bf71c1e513577f062f9f66faf080"},
        OpsCase{"xts_hmac_unaligned_1", kXts, kUna, kHmac, false, 1,
            "R@12432+4144", 4144,
            "R@12432+4096", 4096,
            "T@12432+4144",
            "W@4243456+168 | R@4243456+168",
            48, 3638, 500,
            "a363e80ae852397d90e2d4e4a42c6263047f7fc8db8454cc21371d21ecadd6af"},
        OpsCase{"xts_hmac_unaligned_3", kXts, kUna, kHmac, false, 3,
            "R@12432+12432", 12432,
            "", 0,
            "T@12432+12432",
            "W@4243456+168 | R@4243456+168",
            144, 6915, 500,
            "1e0e160ad5bd1df5612141a711303513852121f427c9eefc81eb90800ee5b183"},
        OpsCase{"xts_hmac_unaligned_lz_1", kXts, kUna, kHmac, true, 1,
            "R@12441+4147", 4147,
            "R@12441+4096", 4096,
            "T@12441+4147",
            "W@4246528+168 | R@4246528+168",
            51, 3638, 500,
            "33468e50c4170f061f908ebbd2cc7b7d649c296bf00136114c75d93b8f36c8a4"},
        OpsCase{"xts_hmac_unaligned_lz_3", kXts, kUna, kHmac, true, 3,
            "R@12441+12441", 12441,
            "", 0,
            "T@12441+12441",
            "W@4246528+168 | R@4246528+168",
            153, 6915, 500,
            "7c1d61070bbe90ad470f6fb24b5b864e91f70abfbe62c79e5d0fc144ff3f8781"},
        OpsCase{"gcm_unaligned_1", kGcm, kUna, kNoMac, false, 1,
            "R@12372+4124", 4124,
            "R@12372+4096", 4096,
            "T@12372+4124",
            "W@4222976+168 | R@4222976+168",
            28, 5150, 700,
            "715689093a057c3a3346529de130001fd29d4a65510425796614e2e6cc21e5c7"},
        OpsCase{"gcm_unaligned_3", kGcm, kUna, kNoMac, false, 3,
            "R@12372+12372", 12372,
            "", 0,
            "T@12372+12372",
            "W@4222976+168 | R@4222976+168",
            84, 11452, 700,
            "d11b204a457248c61f977c65584cfce9ec2408bfe0c688886a11692abdfec2bf"},
        OpsCase{"gcm_unaligned_lz_1", kGcm, kUna, kNoMac, true, 1,
            "R@12381+4127", 4127,
            "R@12381+4096", 4096,
            "T@12381+4127",
            "W@4226048+168 | R@4226048+168",
            31, 5150, 700,
            "fff7461b27c2b4546b2ab1dcae186be0569e84b5eeff3e02cf71a280f38078d2"},
        OpsCase{"gcm_unaligned_lz_3", kGcm, kUna, kNoMac, true, 3,
            "R@12381+12381", 12381,
            "", 0,
            "T@12381+12381",
            "W@4226048+168 | R@4226048+168",
            93, 11452, 700,
            "3298f680f5b140ccdb9aa14226d74a8ee17a012a230bf384fa44193d9aab5974"},
        OpsCase{"xts_objectend_1", kXts, kEnd, kNoMac, false, 1,
            "R@12288+4096 R@4194352+16", 4112,
            "R@12288+4096", 4096,
            "T@12288+4096 T@4194352+16",
            "",
            16, 3638, 500,
            "0880d2756b5d1abd15b04df7d5e7ec22ab3a08cef84d78107d642840cc057663"},
        OpsCase{"xts_objectend_3", kXts, kEnd, kNoMac, false, 3,
            "R@12288+12288 R@4194352+48", 12336,
            "R@12288+12288", 12288,
            "T@12288+12288 T@4194352+48",
            "",
            48, 6915, 500,
            "2d68b78f1a1e791df8f167a9f675bbf4aaa95a8fd940c2b4d8882b6b9ff0f207"},
        OpsCase{"xts_objectend_lz_1", kXts, kEnd, kNoMac, true, 1,
            "R@12288+4096 R@4194361+19", 4115,
            "R@12288+4096", 4096,
            "T@12288+4096 T@4194361+19",
            "",
            19, 3638, 500,
            "2a3926bde99e88f118d8eea2559553143a62576eb2ad4c9bf9196ae8455954ae"},
        OpsCase{"xts_objectend_lz_3", kXts, kEnd, kNoMac, true, 3,
            "R@12288+12288 R@4194361+57", 12345,
            "R@12288+12288", 12288,
            "T@12288+12288 T@4194361+57",
            "",
            57, 6915, 500,
            "812bb9c15dc590174efab5b77ecf1cd37ce4a2d0c83e12a5edeed871c8bd29d2"},
        OpsCase{"xts_hmac_objectend_1", kXts, kEnd, kHmac, false, 1,
            "R@12288+4096 R@4194448+48", 4144,
            "R@12288+4096", 4096,
            "T@12288+4096 T@4194448+48",
            "W@4243456+168 | R@4243456+168",
            48, 3638, 500,
            "7adebe176ca8f30fe1e59247fdd112f04409232fe9751418a5e6ed0509692b7b"},
        OpsCase{"xts_hmac_objectend_3", kXts, kEnd, kHmac, false, 3,
            "R@12288+12288 R@4194448+144", 12432,
            "R@12288+12288", 12288,
            "T@12288+12288 T@4194448+144",
            "W@4243456+168 | R@4243456+168",
            144, 6915, 500,
            "c6668b3080f4a2f298efb61a480cefe39718851f74c55af9034ab83261ed8c70"},
        OpsCase{"xts_hmac_objectend_lz_1", kXts, kEnd, kHmac, true, 1,
            "R@12288+4096 R@4194457+51", 4147,
            "R@12288+4096", 4096,
            "T@12288+4096 T@4194457+51",
            "W@4246528+168 | R@4246528+168",
            51, 3638, 500,
            "e34ee1ddcea9f5f702d935f011e8cb4990b641d09a71a1e52da7b367db1a34a1"},
        OpsCase{"xts_hmac_objectend_lz_3", kXts, kEnd, kHmac, true, 3,
            "R@12288+12288 R@4194457+153", 12441,
            "R@12288+12288", 12288,
            "T@12288+12288 T@4194457+153",
            "W@4246528+168 | R@4246528+168",
            153, 6915, 500,
            "868d0017004c94487b67eead5a17cd89b0976f9f25725bc21cecc4fef3243e15"},
        OpsCase{"gcm_objectend_1", kGcm, kEnd, kNoMac, false, 1,
            "R@12288+4096 R@4194388+28", 4124,
            "R@12288+4096", 4096,
            "T@12288+4096 T@4194388+28",
            "W@4222976+168 | R@4222976+168",
            28, 5150, 700,
            "a106bc7a341006cc3fb89d29e877c188280efb131f90bf8e2513fb7e64f910bf"},
        OpsCase{"gcm_objectend_3", kGcm, kEnd, kNoMac, false, 3,
            "R@12288+12288 R@4194388+84", 12372,
            "R@12288+12288", 12288,
            "T@12288+12288 T@4194388+84",
            "W@4222976+168 | R@4222976+168",
            84, 11452, 700,
            "394ba8256bb7ba0753322b036a6bf264ba8aa13fc620401c8a1c2017ac02706e"},
        OpsCase{"gcm_objectend_lz_1", kGcm, kEnd, kNoMac, true, 1,
            "R@12288+4096 R@4194397+31", 4127,
            "R@12288+4096", 4096,
            "T@12288+4096 T@4194397+31",
            "W@4226048+168 | R@4226048+168",
            31, 5150, 700,
            "a1c7b1b0585fc6e1fe6fe2f70010034cdd1e823b645230e321ce31de607e37c2"},
        OpsCase{"gcm_objectend_lz_3", kGcm, kEnd, kNoMac, true, 3,
            "R@12288+12288 R@4194397+93", 12381,
            "R@12288+12288", 12288,
            "T@12288+12288 T@4194397+93",
            "W@4226048+168 | R@4226048+168",
            93, 11452, 700,
            "47dee79258464b423ad48f794d89d6bff80920142fe5201b059e12e73b126279"},
        OpsCase{"xts_omap_1", kXts, kOmap, kNoMac, false, 1,
            "R@12288+4096 G", 4096,
            "R@12288+4096", 4096,
            "T@12288+4096 S[1]",
            "",
            24, 3638, 500,
            "84b0af9694c382d58b7dfe8e60a0f956ab7fa50b38030d2e39874c31346108c0"},
        OpsCase{"xts_omap_3", kXts, kOmap, kNoMac, false, 3,
            "R@12288+12288 G", 12288,
            "R@12288+12288", 12288,
            "T@12288+12288 S[3]",
            "",
            72, 6915, 500,
            "9fc973372eec1246af77fd016a7e4b24cd102b34b75455cc1eab9d598efb0ac2"},
        OpsCase{"xts_omap_lz_1", kXts, kOmap, kNoMac, true, 1,
            "R@12288+4096 G", 4096,
            "R@12288+4096", 4096,
            "T@12288+4096 S[1]",
            "",
            27, 3638, 500,
            "84b0af9694c382d58b7dfe8e60a0f956ab7fa50b38030d2e39874c31346108c0"},
        OpsCase{"xts_omap_lz_3", kXts, kOmap, kNoMac, true, 3,
            "R@12288+12288 G", 12288,
            "R@12288+12288", 12288,
            "T@12288+12288 S[3]",
            "",
            81, 6915, 500,
            "9fc973372eec1246af77fd016a7e4b24cd102b34b75455cc1eab9d598efb0ac2"},
        OpsCase{"xts_hmac_omap_1", kXts, kOmap, kHmac, false, 1,
            "R@12288+4096 G", 4096,
            "R@12288+4096", 4096,
            "T@12288+4096 S[1]",
            "S[1] | R@0+1 G",
            56, 3638, 500,
            "fc503bfdd3271172fd38b88f71710d1e308c43a84686d43aca129e8c5c003ba6"},
        OpsCase{"xts_hmac_omap_3", kXts, kOmap, kHmac, false, 3,
            "R@12288+12288 G", 12288,
            "R@12288+12288", 12288,
            "T@12288+12288 S[3]",
            "S[1] | R@0+1 G",
            168, 6915, 500,
            "d01bb5848b2aaa9bc2beb6475f495e3a57908ebf125d928386cec801299fa18c"},
        OpsCase{"xts_hmac_omap_lz_1", kXts, kOmap, kHmac, true, 1,
            "R@12288+4096 G", 4096,
            "R@12288+4096", 4096,
            "T@12288+4096 S[1]",
            "S[1] | R@0+1 G",
            59, 3638, 500,
            "fc503bfdd3271172fd38b88f71710d1e308c43a84686d43aca129e8c5c003ba6"},
        OpsCase{"xts_hmac_omap_lz_3", kXts, kOmap, kHmac, true, 3,
            "R@12288+12288 G", 12288,
            "R@12288+12288", 12288,
            "T@12288+12288 S[3]",
            "S[1] | R@0+1 G",
            177, 6915, 500,
            "d01bb5848b2aaa9bc2beb6475f495e3a57908ebf125d928386cec801299fa18c"},
        OpsCase{"gcm_omap_1", kGcm, kOmap, kNoMac, false, 1,
            "R@12288+4096 G", 4096,
            "R@12288+4096", 4096,
            "T@12288+4096 S[1]",
            "S[1] | R@0+1 G",
            36, 5150, 700,
            "fc503bfdd3271172fd38b88f71710d1e308c43a84686d43aca129e8c5c003ba6"},
        OpsCase{"gcm_omap_3", kGcm, kOmap, kNoMac, false, 3,
            "R@12288+12288 G", 12288,
            "R@12288+12288", 12288,
            "T@12288+12288 S[3]",
            "S[1] | R@0+1 G",
            108, 11452, 700,
            "d01bb5848b2aaa9bc2beb6475f495e3a57908ebf125d928386cec801299fa18c"},
        OpsCase{"gcm_omap_lz_1", kGcm, kOmap, kNoMac, true, 1,
            "R@12288+4096 G", 4096,
            "R@12288+4096", 4096,
            "T@12288+4096 S[1]",
            "S[1] | R@0+1 G",
            39, 5150, 700,
            "fc503bfdd3271172fd38b88f71710d1e308c43a84686d43aca129e8c5c003ba6"},
        OpsCase{"gcm_omap_lz_3", kGcm, kOmap, kNoMac, true, 3,
            "R@12288+12288 G", 12288,
            "R@12288+12288", 12288,
            "T@12288+12288 S[3]",
            "S[1] | R@0+1 G",
            117, 11452, 700,
            "d01bb5848b2aaa9bc2beb6475f495e3a57908ebf125d928386cec801299fa18c"},
        OpsCase{"plain_1", CipherMode::kNone, IvLayout::kNone, kNoMac, false, 1,
            "R@12288+4096", 4096,
            "", 0,
            "T@12288+4096",
            "",
            0, 0, 0,
            "a116774a8a5353286720b5a77976aa8482c96959274e1d4f63833d40ccefd7c1"},
        OpsCase{"plain_3", CipherMode::kNone, IvLayout::kNone, kNoMac, false, 3,
            "R@12288+12288", 12288,
            "", 0,
            "T@12288+12288",
            "",
            0, 0, 0,
            "7f8e6385bed2879d3f6c3d1f31fc0ffa3f40f5916b31886a77dacc7be2916011"},
        OpsCase{"luks2_xts_1", CipherMode::kXtsLba, IvLayout::kNone, kNoMac, false, 1,
            "R@12288+4096", 4096,
            "", 0,
            "T@12288+4096",
            "",
            0, 3638, 500,
            "a116774a8a5353286720b5a77976aa8482c96959274e1d4f63833d40ccefd7c1"},
        OpsCase{"luks2_xts_3", CipherMode::kXtsLba, IvLayout::kNone, kNoMac, false, 3,
            "R@12288+12288", 12288,
            "", 0,
            "T@12288+12288",
            "",
            0, 6915, 500,
            "7f8e6385bed2879d3f6c3d1f31fc0ffa3f40f5916b31886a77dacc7be2916011"},
        OpsCase{"xts_essiv_1", CipherMode::kXtsEssiv, IvLayout::kNone, kNoMac, false, 1,
            "R@12288+4096", 4096,
            "", 0,
            "T@12288+4096",
            "",
            0, 3638, 500,
            "a116774a8a5353286720b5a77976aa8482c96959274e1d4f63833d40ccefd7c1"},
        OpsCase{"xts_essiv_3", CipherMode::kXtsEssiv, IvLayout::kNone, kNoMac, false, 3,
            "R@12288+12288", 12288,
            "", 0,
            "T@12288+12288",
            "",
            0, 6915, 500,
            "7f8e6385bed2879d3f6c3d1f31fc0ffa3f40f5916b31886a77dacc7be2916011"},
        OpsCase{"wide_block_1", CipherMode::kWideLba, IvLayout::kNone, kNoMac, false, 1,
            "R@12288+4096", 4096,
            "", 0,
            "T@12288+4096",
            "",
            0, 6551, 500,
            "a116774a8a5353286720b5a77976aa8482c96959274e1d4f63833d40ccefd7c1"},
        OpsCase{"wide_block_3", CipherMode::kWideLba, IvLayout::kNone, kNoMac, false, 3,
            "R@12288+12288", 12288,
            "", 0,
            "T@12288+12288",
            "",
            0, 15653, 500,
            "7f8e6385bed2879d3f6c3d1f31fc0ffa3f40f5916b31886a77dacc7be2916011"}),
    [](const ::testing::TestParamInfo<OpsCase>& info) {
      return std::string(info.param.name);
    });

// Formats without per-sector metadata: LBA-tweaked XTS (the LUKS2
// baseline), ESSIV-tweaked XTS and the wide-block cipher.
TEST(FormatGoldenFixed, DeterministicFormats) {
  const struct {
    CipherMode mode;
    const char* sha256;
  } cases[] = {
      {CipherMode::kXtsLba,
        "1534e1e89da542d9d8e2593772f46117a6a204e1690c318f8b229372852327b7"},
      {CipherMode::kXtsEssiv,
        "6d53b0feb8d1ea66ee5497b13c30acd1fb85943645b6312282bc114822168cb1"},
      {CipherMode::kWideLba,
        "c43bc86c5526084b034d57065e911e86d46988c854c0c170f5edb4176a56dabe"},
  };
  for (const auto& c : cases) {
    EncryptionSpec spec;
    spec.mode = c.mode;
    auto fmt = MakeFormat(spec, GoldenKey(), kObjectSize);
    ASSERT_NE(fmt, nullptr);
    Transaction txn;
    ASSERT_TRUE(fmt->MakeWrite(GoldenExtent(), GoldenPlain(false), txn).ok());
    EXPECT_EQ(Shape(txn), "W@12288+8192") << spec.Name();
    EXPECT_EQ(Sha256Hex(Serialize(txn)), c.sha256) << spec.Name();
  }
}

TEST(FormatGoldenFixed, SealedDiscardBitmap) {
  EncryptionSpec spec;
  spec.mode = CipherMode::kXtsRandom;
  spec.layout = IvLayout::kObjectEnd;
  spec.integrity = Integrity::kHmac;
  spec.iv_seed = 0x5EED;
  auto fmt = MakeFormat(spec, GoldenKey(), kObjectSize);
  ASSERT_TRUE(fmt->AuthenticatedTrim());
  DiscardBitmap bitmap = DiscardBitmap::AllSet(kObjectSize / kBlockSize);
  bitmap.ClearRange(3, 2);
  bitmap.ClearRange(700, 9);
  // Legacy (epoch-less) record, then an epoch-bearing one.
  EXPECT_EQ(ToHex(fmt->SealBitmap(1, bitmap, 0)).substr(256),
            "718d721cf7b8de799adcafc725ebe6dde37ee6dcb696f686ca35157431149a48");
  EXPECT_EQ(ToHex(fmt->SealBitmap(1, bitmap, 9)).substr(256),
            "7bed97ded3839127047c2d7de2981801a9310316ba90437fcf3bc9b3995b9b58"
            "0900000000000000");
}

TEST(FormatGoldenFixed, DrbgStreamHead) {
  crypto::Drbg drbg(7);
  EXPECT_EQ(ToHex(drbg.Generate(64)),
            "b64c36cd416dd5eb89c779f70400dd47d58dbf24fcaf0b23a9d12009da9aab5e"
            "8c462175d1e87faa282b76b8f2c78353a73c2c484b946d654a2c6c80fd383830");
  // The next call moves to the next nonce.
  EXPECT_EQ(ToHex(drbg.Generate(16)), "9010de730c9a0b617a564bf536e416ec");
}

TEST(FormatGoldenFixed, WideBlockCiphertext) {
  Bytes key(64);
  for (size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<uint8_t>(0xF0 ^ i);
  }
  crypto::WideBlockCipher wide(key);
  uint8_t tweak[16] = {};
  StoreU64Le(tweak, 0x1234);
  const Bytes plain = GoldenPlain(false);
  Bytes ct(kBlockSize);
  wide.Encrypt(ByteSpan(tweak, 16), ByteSpan(plain).first(kBlockSize), ct);
  EXPECT_EQ(ToHex(ByteSpan(ct).first(48)),
            "c2fb8d25df358f19f2428e620009ecaef83a8e05d485067b4001e1cfe79d7a94"
            "b4be1228e397cc4aead901e488a4c6f5");
  EXPECT_EQ(Sha256Hex(ct),
            "c50a339e22d2aee0e2185151bb6c2b5291c6ddfd62f5701277a45675cb9f20f0");
}

TEST(FormatGoldenFixed, LuksKeyslotDigest) {
  crypto::Drbg rng(11);
  LuksHeader::Params params;
  params.pbkdf2_iterations = 1000;
  params.af_stripes = 8;
  const LuksHeader header =
      LuksHeader::Format(GoldenKey(), "golden passphrase", params, rng);
  const Bytes raw = header.Serialize();
  // magic, iterations, stripes (12 bytes), digest salt (32), digest (32).
  ASSERT_GE(raw.size(), 76u);
  EXPECT_EQ(ToHex(ByteSpan(raw).subspan(44, 32)),
            "9e519ad48b2bb6bb1ea29c07ede9c04e67760da0ce440fb32eba4ad68d11e8b5");
  // The whole header: key-slot salt and the AF-split, XTS-wrapped key.
  EXPECT_EQ(Sha256Hex(raw),
            "af7ef16c0598d768e4d61018baae0f973244d4ca13d1fe0e6f08016113b0dd71");
  auto unlocked = header.Unlock("golden passphrase");
  ASSERT_TRUE(unlocked.ok());
  EXPECT_EQ(unlocked.value(), GoldenKey());
}

}  // namespace
}  // namespace vde::core
