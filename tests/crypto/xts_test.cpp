#include "crypto/xts.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace vde::crypto {
namespace {

// IEEE 1619-2007 Annex B vectors 2 and 3 (XTS-AES-128, data unit 0x3333333333,
// 32 bytes of 0x44). Vector 1's all-zero keys are not usable: OpenSSL
// rejects key1 == key2, as SP 800-38E requires.
TEST(Xts, Ieee1619Vector2) {
  const Bytes key = FromHex(
      "1111111111111111111111111111111122222222222222222222222222222222");
  const Bytes tweak = FromHex("33333333330000000000000000000000");
  const Bytes pt(32, 0x44);
  Bytes ct(32);
  XtsCipher xts(key);
  xts.Encrypt(tweak, pt, ct);
  EXPECT_EQ(ToHex(ct),
            "c454185e6a16936e39334038acef838bfb186fff7480adc4289382ecd6d394f0");
  Bytes back(32);
  xts.Decrypt(tweak, ct, back);
  EXPECT_EQ(back, pt);
}

TEST(Xts, Ieee1619Vector3) {
  const Bytes key = FromHex(
      "fffefdfcfbfaf9f8f7f6f5f4f3f2f1f022222222222222222222222222222222");
  const Bytes tweak = FromHex("33333333330000000000000000000000");
  const Bytes pt(32, 0x44);
  Bytes ct(32);
  XtsCipher xts(key);
  xts.Encrypt(tweak, pt, ct);
  EXPECT_EQ(ToHex(ct),
            "af85336b597afc1a900b2eb21ec949d292df4c047e0b21532186a5971a227a89");
}

class XtsCross : public ::testing::TestWithParam<size_t> {};

TEST_P(XtsCross, RandomRoundtrip) {
  const size_t key_size = GetParam();
  Rng rng(0x7157 + key_size);
  for (int trial = 0; trial < 20; ++trial) {
    // OpenSSL rejects key1 == key2; random keys are always distinct.
    const Bytes key = rng.RandomBytes(key_size);
    XtsCipher xts(key);
    const Bytes tweak = rng.RandomBytes(16);
    const size_t len = 16 * rng.NextInRange(1, 32);
    const Bytes pt = rng.RandomBytes(len);
    Bytes ct(len);
    xts.Encrypt(tweak, pt, ct);
    ASSERT_NE(ToHex(ct), ToHex(pt)) << "len=" << len;
    Bytes back(len);
    xts.Decrypt(tweak, ct, back);
    ASSERT_EQ(back, pt) << "len=" << len;
  }
}

TEST_P(XtsCross, CiphertextStealingRoundtrip) {
  const size_t key_size = GetParam();
  Rng rng(0xC75 + key_size);
  for (size_t len = 17; len <= 67; ++len) {
    if (len % 16 == 0) continue;
    const Bytes key = rng.RandomBytes(key_size);
    XtsCipher xts(key);
    const Bytes tweak = rng.RandomBytes(16);
    const Bytes pt = rng.RandomBytes(len);
    Bytes ct(len);
    xts.Encrypt(tweak, pt, ct);
    // Stealing keeps the whole-block prefix identical to a plain XTS pass
    // over the same blocks, except the last full block, which it rewrites.
    const size_t full = len / 16;
    Bytes prefix_ct(16 * full);
    xts.Encrypt(tweak, ByteSpan(pt).first(16 * full), prefix_ct);
    ASSERT_TRUE(std::equal(ct.begin(), ct.begin() + 16 * (full - 1),
                           prefix_ct.begin()))
        << "len=" << len;
    // The stolen tail is the head of the un-stolen last full block.
    ASSERT_TRUE(std::equal(ct.begin() + 16 * full, ct.end(),
                           prefix_ct.begin() + 16 * (full - 1)))
        << "len=" << len;
    Bytes back(len);
    xts.Decrypt(tweak, ct, back);
    ASSERT_EQ(back, pt) << "len=" << len;
  }
}

INSTANTIATE_TEST_SUITE_P(KeySizes, XtsCross,
                         ::testing::Values(size_t{32}, size_t{64}),
                         [](const auto& info) {
                           return "Xts" + std::to_string(info.param * 4);
                         });

TEST(Xts, SectorRoundtripInPlace) {
  Rng rng(77);
  const Bytes key = rng.RandomBytes(64);
  XtsCipher xts(key);
  const Bytes tweak = rng.RandomBytes(16);
  const Bytes orig = rng.RandomBytes(4096);
  Bytes buf = orig;
  xts.Encrypt(tweak, buf, buf);
  EXPECT_NE(buf, orig);
  xts.Decrypt(tweak, buf, buf);
  EXPECT_EQ(buf, orig);
}

TEST(Xts, NarrowBlockLeakage) {
  // The paper's §2.1 observation: with the SAME tweak, changing one 16-byte
  // sub-block leaves all other ciphertext sub-blocks identical — an
  // eavesdropper sees exactly which sub-block changed.
  Rng rng(88);
  const Bytes key = rng.RandomBytes(64);
  XtsCipher xts(key);
  const Bytes tweak = rng.RandomBytes(16);
  Bytes pt = rng.RandomBytes(4096);
  Bytes c0(4096), c1(4096);
  xts.Encrypt(tweak, pt, c0);
  pt[37 * 16 + 3] ^= 0xff;  // mutate sub-block 37 only
  xts.Encrypt(tweak, pt, c1);
  for (size_t blk = 0; blk < 256; ++blk) {
    const bool same = std::equal(c0.begin() + blk * 16, c0.begin() + blk * 16 + 16,
                                 c1.begin() + blk * 16);
    EXPECT_EQ(same, blk != 37) << "sub-block " << blk;
  }
}

TEST(Xts, FreshTweakHidesLocality) {
  // With a FRESH random tweak (the paper's scheme) every sub-block changes.
  Rng rng(89);
  const Bytes key = rng.RandomBytes(64);
  XtsCipher xts(key);
  Bytes pt = rng.RandomBytes(4096);
  Bytes c0(4096), c1(4096);
  xts.Encrypt(rng.RandomBytes(16), pt, c0);
  pt[37 * 16 + 3] ^= 0xff;
  xts.Encrypt(rng.RandomBytes(16), pt, c1);
  int identical_blocks = 0;
  for (size_t blk = 0; blk < 256; ++blk) {
    if (std::equal(c0.begin() + blk * 16, c0.begin() + blk * 16 + 16,
                   c1.begin() + blk * 16)) {
      identical_blocks++;
    }
  }
  EXPECT_EQ(identical_blocks, 0);
}

TEST(Xts, MixAndMatchForgeryIsWellFormed) {
  // §2.1: an attacker can splice sub-blocks of two ciphertext versions of
  // the same sector (same tweak) and the result decrypts to a plaintext that
  // mixes both versions — undetectable without a MAC.
  Rng rng(90);
  const Bytes key = rng.RandomBytes(64);
  XtsCipher xts(key);
  const Bytes tweak = rng.RandomBytes(16);
  const Bytes v1 = rng.RandomBytes(4096);
  const Bytes v2 = rng.RandomBytes(4096);
  Bytes c1(4096), c2(4096);
  xts.Encrypt(tweak, v1, c1);
  xts.Encrypt(tweak, v2, c2);
  // Forge: first half from v1's ciphertext, second half from v2's.
  Bytes forged = c1;
  std::copy(c2.begin() + 2048, c2.end(), forged.begin() + 2048);
  Bytes decrypted(4096);
  xts.Decrypt(tweak, forged, decrypted);
  EXPECT_TRUE(std::equal(decrypted.begin(), decrypted.begin() + 2048,
                         v1.begin()));
  EXPECT_TRUE(std::equal(decrypted.begin() + 2048, decrypted.end(),
                         v2.begin() + 2048));
}

TEST(Xts, TweakSensitivity) {
  Rng rng(91);
  const Bytes key = rng.RandomBytes(64);
  XtsCipher xts(key);
  const Bytes pt = rng.RandomBytes(64);
  Bytes t1 = rng.RandomBytes(16);
  Bytes c1(64), c2(64);
  xts.Encrypt(t1, pt, c1);
  t1[15] ^= 0x01;
  xts.Encrypt(t1, pt, c2);
  EXPECT_NE(ToHex(c1), ToHex(c2));
}

}  // namespace
}  // namespace vde::crypto
