#include "crypto/essiv.h"

#include <gtest/gtest.h>

#include <set>

#include "util/rng.h"

namespace vde::crypto {
namespace {

TEST(Essiv, DeterministicPerSector) {
  Rng rng(47);
  const Bytes key = rng.RandomBytes(32);
  Essiv essiv(key);
  uint8_t a[16], b[16];
  essiv.DeriveIv(1234, a);
  essiv.DeriveIv(1234, b);
  EXPECT_EQ(ToHex(ByteSpan(a, 16)), ToHex(ByteSpan(b, 16)));
}

TEST(Essiv, DistinctAcrossSectors) {
  Rng rng(48);
  const Bytes key = rng.RandomBytes(32);
  Essiv essiv(key);
  std::set<std::string> seen;
  for (uint64_t s = 0; s < 500; ++s) {
    uint8_t iv[16];
    essiv.DeriveIv(s, iv);
    seen.insert(ToHex(ByteSpan(iv, 16)));
  }
  EXPECT_EQ(seen.size(), 500u);
}

TEST(Essiv, KeyedBySha256OfKey) {
  Rng rng(49);
  Bytes key = rng.RandomBytes(32);
  Essiv a(key);
  key[0] ^= 1;
  Essiv b(key);
  uint8_t ia[16], ib[16];
  a.DeriveIv(7, ia);
  b.DeriveIv(7, ib);
  EXPECT_NE(ToHex(ByteSpan(ia, 16)), ToHex(ByteSpan(ib, 16)));
}

}  // namespace
}  // namespace vde::crypto
