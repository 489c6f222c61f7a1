// On-disk format golden test: pins the exact bytes every metadata-bearing
// format writes, so a change to the crypto primitives underneath (or to the
// transaction layout) cannot silently make existing images unreadable.
//
// Each case feeds a fixed master key, IV seed and plaintext through
// MakeWrite and compares the resulting transaction — every op's type,
// offset, length and payload, plus OMAP kvs — against a recorded SHA-256 of
// its canonical serialization. The digest is computed with OpenSSL directly
// so the test does not depend on the hash it is guarding. Also pinned: a
// sealed discard bitmap, the head of a seeded DRBG stream, a wide-block
// ciphertext, the deterministic formats and a LUKS key-slot digest.
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
  }
  return out;
}

// Human-readable op shape, e.g. "W@0+8192 S[2] T@...": pins the layout
// independently of the payload digest, and makes a mismatch legible.
std::string Shape(const Transaction& txn) {
  std::string s;
  for (const OsdOp& op : txn.ops) {
    if (!s.empty()) s += ' ';
    switch (op.type) {
      case OsdOp::Type::kWrite: s += "W"; break;
      case OsdOp::Type::kTrim: s += "T"; break;
      case OsdOp::Type::kOmapSet:
        s += "S[" + std::to_string(op.omap_kvs.size()) + "]";
        continue;
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
