#include "crypto/block_cipher.h"

#include <gtest/gtest.h>

#include <bit>

#include "util/rng.h"

namespace vde::crypto {
namespace {

// FIPS-197 Appendix C known-answer tests.
struct Fips197Case {
  const char* key;
  const char* plain;
  const char* cipher;
};

class AesKat : public ::testing::TestWithParam<Fips197Case> {};

TEST_P(AesKat, EncryptMatchesFips197) {
  const auto& p = GetParam();
  auto aes = MakeAes(FromHex(p.key));
  const Bytes pt = FromHex(p.plain);
  uint8_t out[16];
  aes->EncryptBlock(pt.data(), out);
  EXPECT_EQ(ToHex(ByteSpan(out, 16)), p.cipher);
}

TEST_P(AesKat, DecryptInverts) {
  const auto& p = GetParam();
  auto aes = MakeAes(FromHex(p.key));
  const Bytes ct = FromHex(p.cipher);
  uint8_t out[16];
  aes->DecryptBlock(ct.data(), out);
  EXPECT_EQ(ToHex(ByteSpan(out, 16)), p.plain);
}

INSTANTIATE_TEST_SUITE_P(
    Fips197, AesKat,
    ::testing::Values(
        Fips197Case{"000102030405060708090a0b0c0d0e0f",
                    "00112233445566778899aabbccddeeff",
                    "69c4e0d86a7b0430d8cdb78070b4c55a"},
        Fips197Case{"000102030405060708090a0b0c0d0e0f1011121314151617",
                    "00112233445566778899aabbccddeeff",
                    "dda97ca4864cdfe06eaf70a0ec0d7191"},
        Fips197Case{
            "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
            "00112233445566778899aabbccddeeff",
            "8ea2b7ca516745bfeafc49904b496089"}));

class AesCross : public ::testing::TestWithParam<size_t> {};

TEST_P(AesCross, RoundtripRandomKeys) {
  const size_t key_size = GetParam();
  Rng rng(0xBEEF + key_size);
  for (int trial = 0; trial < 100; ++trial) {
    auto aes = MakeAes(rng.RandomBytes(key_size));
    const Bytes pt = rng.RandomBytes(16);
    uint8_t ct[16], back[16];
    aes->EncryptBlock(pt.data(), ct);
    aes->DecryptBlock(ct, back);
    ASSERT_EQ(ToHex(ByteSpan(back, 16)), ToHex(pt));
    ASSERT_NE(ToHex(ByteSpan(ct, 16)), ToHex(pt));
  }
}

TEST_P(AesCross, InPlaceBlock) {
  const size_t key_size = GetParam();
  Rng rng(0xA55E5 + key_size);
  auto aes = MakeAes(rng.RandomBytes(key_size));
  const Bytes pt = rng.RandomBytes(16);
  uint8_t buf[16], ct[16];
  std::copy(pt.begin(), pt.end(), buf);
  aes->EncryptBlock(pt.data(), ct);
  aes->EncryptBlock(buf, buf);
  EXPECT_EQ(ToHex(ByteSpan(buf, 16)), ToHex(ByteSpan(ct, 16)));
  aes->DecryptBlock(buf, buf);
  EXPECT_EQ(ToHex(ByteSpan(buf, 16)), ToHex(pt));
}

INSTANTIATE_TEST_SUITE_P(KeySizes, AesCross,
                         ::testing::Values(size_t{16}, size_t{24}, size_t{32}),
                         [](const auto& info) {
                           return "Key" + std::to_string(info.param * 8);
                         });

TEST(Aes, KeySizeReported) {
  Rng rng(3);
  EXPECT_EQ(MakeAes(rng.RandomBytes(16))->key_size(), 16u);
  EXPECT_EQ(MakeAes(rng.RandomBytes(32))->key_size(), 32u);
}

TEST(Aes, AvalancheOnPlaintextBit) {
  // Flipping one plaintext bit must flip ~half the ciphertext bits.
  Rng rng(5);
  const Bytes key = rng.RandomBytes(32);
  auto aes = MakeAes(key);
  Bytes pt = rng.RandomBytes(16);
  uint8_t c0[16], c1[16];
  aes->EncryptBlock(pt.data(), c0);
  pt[7] ^= 0x10;
  aes->EncryptBlock(pt.data(), c1);
  int flipped = 0;
  for (int i = 0; i < 16; ++i) {
    flipped += std::popcount(static_cast<unsigned>(c0[i] ^ c1[i]));
  }
  EXPECT_GT(flipped, 40);
  EXPECT_LT(flipped, 88);
}

}  // namespace
}  // namespace vde::crypto
