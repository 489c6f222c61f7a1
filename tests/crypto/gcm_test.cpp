#include "crypto/gcm.h"

#include <gtest/gtest.h>
#include <openssl/evp.h>

#include "util/rng.h"

namespace vde::crypto {
namespace {

// NIST GCM spec test case 1: empty plaintext, zero key/IV.
TEST(Gcm, NistCase1EmptyPlaintext) {
  const Bytes key(16, 0x00);
  const Bytes iv(12, 0x00);
  GcmCipher gcm(key);
  Bytes tag(16);
  gcm.Seal(iv, {}, {}, {}, tag);
  EXPECT_EQ(ToHex(tag), "58e2fccefa7e3061367f1d57a4e7455a");
}

// NIST GCM spec test case 2: 16 zero bytes.
TEST(Gcm, NistCase2SingleBlock) {
  const Bytes key(16, 0x00);
  const Bytes iv(12, 0x00);
  const Bytes pt(16, 0x00);
  GcmCipher gcm(key);
  Bytes ct(16), tag(16);
  gcm.Seal(iv, {}, pt, ct, tag);
  EXPECT_EQ(ToHex(ct), "0388dace60b6a392f328c2b971b2fe78");
  EXPECT_EQ(ToHex(tag), "ab6e47d42cec13bdf53a67b21257bddf");
}

TEST(Gcm, RoundtripWithAad) {
  Rng rng(60);
  const Bytes key = rng.RandomBytes(32);
  const Bytes iv = rng.RandomBytes(12);
  const Bytes aad = rng.RandomBytes(20);
  const Bytes pt = rng.RandomBytes(4096);
  GcmCipher gcm(key);
  Bytes ct(pt.size()), tag(16);
  gcm.Seal(iv, aad, pt, ct, tag);
  Bytes back(pt.size());
  ASSERT_TRUE(gcm.Open(iv, aad, ct, back, tag));
  EXPECT_EQ(back, pt);
}

TEST(Gcm, TamperedCiphertextRejected) {
  Rng rng(61);
  const Bytes key = rng.RandomBytes(32);
  const Bytes iv = rng.RandomBytes(12);
  const Bytes pt = rng.RandomBytes(128);
  GcmCipher gcm(key);
  Bytes ct(pt.size()), tag(16);
  gcm.Seal(iv, {}, pt, ct, tag);
  ct[50] ^= 0x01;
  Bytes back(pt.size(), 0xAA);
  EXPECT_FALSE(gcm.Open(iv, {}, ct, back, tag));
  // Output must be zeroed on failure, never partial plaintext.
  EXPECT_TRUE(std::all_of(back.begin(), back.end(),
                          [](uint8_t b) { return b == 0; }));
}

TEST(Gcm, TamperedTagRejected) {
  Rng rng(62);
  const Bytes key = rng.RandomBytes(16);
  const Bytes iv = rng.RandomBytes(12);
  const Bytes pt = rng.RandomBytes(64);
  GcmCipher gcm(key);
  Bytes ct(pt.size()), tag(16);
  gcm.Seal(iv, {}, pt, ct, tag);
  tag[0] ^= 0x80;
  Bytes back(pt.size());
  EXPECT_FALSE(gcm.Open(iv, {}, ct, back, tag));
}

TEST(Gcm, TamperedAadRejected) {
  Rng rng(63);
  const Bytes key = rng.RandomBytes(16);
  const Bytes iv = rng.RandomBytes(12);
  const Bytes pt = rng.RandomBytes(64);
  Bytes aad = rng.RandomBytes(16);
  GcmCipher gcm(key);
  Bytes ct(pt.size()), tag(16);
  gcm.Seal(iv, aad, pt, ct, tag);
  aad[3] ^= 0x01;
  Bytes back(pt.size());
  EXPECT_FALSE(gcm.Open(iv, aad, ct, back, tag));
}

// Cross-validate the wrapper (IV re-init on a keyed context, AAD and tag
// plumbing) against a fresh one-shot OpenSSL GCM context on random inputs.
TEST(Gcm, MatchesOpensslEvp) {
  Rng rng(64);
  for (int trial = 0; trial < 10; ++trial) {
    const Bytes key = rng.RandomBytes(32);
    const Bytes iv = rng.RandomBytes(12);
    const Bytes aad = rng.RandomBytes(rng.NextBelow(48));
    const Bytes pt = rng.RandomBytes(1 + rng.NextBelow(1024));

    GcmCipher ours(key);
    Bytes our_ct(pt.size()), our_tag(16);
    ours.Seal(iv, aad, pt, our_ct, our_tag);

    EVP_CIPHER_CTX* ctx = EVP_CIPHER_CTX_new();
    ASSERT_TRUE(ctx);
    ASSERT_EQ(EVP_EncryptInit_ex(ctx, EVP_aes_256_gcm(), nullptr, key.data(),
                                 iv.data()),
              1);
    int len = 0;
    if (!aad.empty()) {
      ASSERT_EQ(EVP_EncryptUpdate(ctx, nullptr, &len, aad.data(),
                                  static_cast<int>(aad.size())),
                1);
    }
    Bytes evp_ct(pt.size());
    ASSERT_EQ(EVP_EncryptUpdate(ctx, evp_ct.data(), &len, pt.data(),
                                static_cast<int>(pt.size())),
              1);
    int fin = 0;
    ASSERT_EQ(EVP_EncryptFinal_ex(ctx, evp_ct.data() + len, &fin), 1);
    Bytes evp_tag(16);
    ASSERT_EQ(EVP_CIPHER_CTX_ctrl(ctx, EVP_CTRL_GCM_GET_TAG, 16,
                                  evp_tag.data()),
              1);
    EVP_CIPHER_CTX_free(ctx);

    ASSERT_EQ(ToHex(our_ct), ToHex(evp_ct)) << "trial " << trial;
    ASSERT_EQ(ToHex(our_tag), ToHex(evp_tag)) << "trial " << trial;
  }
}

TEST(Gcm, IvReuseLeaksXorOfPlaintexts) {
  // Why GCM REQUIRES the true-nonce IV the paper's metadata provides:
  // reusing an IV leaks pt1 XOR pt2 directly (CTR keystream cancels).
  Rng rng(65);
  const Bytes key = rng.RandomBytes(32);
  const Bytes iv = rng.RandomBytes(12);
  const Bytes p1 = rng.RandomBytes(64);
  const Bytes p2 = rng.RandomBytes(64);
  GcmCipher gcm(key);
  Bytes c1(64), c2(64), t1(16), t2(16);
  gcm.Seal(iv, {}, p1, c1, t1);
  gcm.Seal(iv, {}, p2, c2, t2);
  for (size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(c1[i] ^ c2[i], p1[i] ^ p2[i]);
  }
}

bool AllZero(ByteSpan data) {
  return std::all_of(data.begin(), data.end(),
                     [](uint8_t b) { return b == 0; });
}

TEST(Gcm, InPlaceSealOpen) {
  Rng rng(66);
  const Bytes key = rng.RandomBytes(32);
  const Bytes iv = rng.RandomBytes(12);
  const Bytes aad = rng.RandomBytes(11);
  const Bytes pt = rng.RandomBytes(4096);
  GcmCipher gcm(key);
  Bytes ct(pt.size()), tag(16);
  gcm.Seal(iv, aad, pt, ct, tag);
  Bytes buf = pt;
  Bytes tag2(16);
  gcm.Seal(iv, aad, buf, buf, tag2);  // out aliases in
  EXPECT_EQ(buf, ct);
  EXPECT_EQ(tag2, tag);
  ASSERT_TRUE(gcm.Open(iv, aad, buf, buf, tag));
  EXPECT_EQ(buf, pt);
}

TEST(Gcm, PlaintextWithEmptyAad) {
  // NIST GCM spec test case 3: 64-byte plaintext, no AAD.
  const Bytes key = FromHex("feffe9928665731c6d6a8f9467308308");
  const Bytes iv = FromHex("cafebabefacedbaddecaf888");
  const Bytes pt = FromHex(
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255");
  GcmCipher gcm(key);
  Bytes ct(pt.size()), tag(16);
  gcm.Seal(iv, {}, pt, ct, tag);
  EXPECT_EQ(ToHex(ct),
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
            "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985");
  EXPECT_EQ(ToHex(tag), "4d5c2af327cd64a62cf35abd2ba6fab4");
  Bytes back(pt.size());
  ASSERT_TRUE(gcm.Open(iv, {}, ct, back, tag));
  EXPECT_EQ(back, pt);
}

// Compressed blocks reach the cipher at odd lengths: the 16-byte floor,
// one past a block, one short of two, and one short of a full 4 KiB block.
class GcmLengths : public ::testing::TestWithParam<size_t> {};

TEST_P(GcmLengths, RoundtripAndTamper) {
  const size_t len = GetParam();
  Rng rng(67 + len);
  const Bytes key = rng.RandomBytes(32);
  const Bytes iv = rng.RandomBytes(12);
  const Bytes aad = rng.RandomBytes(11);
  const Bytes pt = rng.RandomBytes(len);
  GcmCipher gcm(key);
  Bytes ct(len), tag(16);
  gcm.Seal(iv, aad, pt, ct, tag);
  Bytes back(len);
  ASSERT_TRUE(gcm.Open(iv, aad, ct, back, tag));
  EXPECT_EQ(back, pt);
  ct[len - 1] ^= 0x01;  // the partial last block is authenticated too
  back.assign(len, 0xAA);
  EXPECT_FALSE(gcm.Open(iv, aad, ct, back, tag));
  EXPECT_TRUE(AllZero(back));
}

INSTANTIATE_TEST_SUITE_P(CompressedSizes, GcmLengths,
                         ::testing::Values(size_t{16}, size_t{17}, size_t{31},
                                           size_t{4095}));

// Every tamper zeroes the whole output, and the context recovers: a valid
// Open on the same cipher object right after a failed one succeeds.
TEST(Gcm, FailedOpenZeroesAndContextRecovers) {
  Rng rng(68);
  const Bytes key = rng.RandomBytes(32);
  const Bytes iv = rng.RandomBytes(12);
  const Bytes aad = rng.RandomBytes(16);
  const Bytes pt = rng.RandomBytes(300);
  GcmCipher gcm(key);
  Bytes ct(pt.size()), tag(16);
  gcm.Seal(iv, aad, pt, ct, tag);

  enum class Tamper { kTag, kCiphertext, kAad };
  for (Tamper t : {Tamper::kTag, Tamper::kCiphertext, Tamper::kAad}) {
    Bytes bad_ct = ct, bad_tag = tag, bad_aad = aad;
    switch (t) {
      case Tamper::kTag: bad_tag[15] ^= 0x01; break;
      case Tamper::kCiphertext: bad_ct[123] ^= 0x40; break;
      case Tamper::kAad: bad_aad[0] ^= 0x80; break;
    }
    Bytes out(pt.size(), 0xAA);
    EXPECT_FALSE(gcm.Open(iv, bad_aad, bad_ct, out, bad_tag));
    EXPECT_TRUE(AllZero(out)) << "tamper " << static_cast<int>(t);

    Bytes good(pt.size(), 0xAA);
    ASSERT_TRUE(gcm.Open(iv, aad, ct, good, tag))
        << "after tamper " << static_cast<int>(t);
    EXPECT_EQ(good, pt);
  }
}

}  // namespace
}  // namespace vde::crypto
