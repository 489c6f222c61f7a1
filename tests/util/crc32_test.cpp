#include "util/crc32.h"

#include <gtest/gtest.h>

#include <vector>

namespace vde {
namespace {

// Bit-at-a-time CRC32-C: the definition, independent of any table or
// instruction the library uses.
uint32_t ReferenceCrc32c(ByteSpan data) {
  uint32_t c = ~0u;
  for (uint8_t b : data) {
    c ^= b;
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0x82F63B78u & (0u - (c & 1)));
  }
  return ~c;
}

using Crc32cFn = uint32_t (*)(ByteSpan, uint32_t);

// Every length 0-67 (all tail sizes around the 8-byte step), one 4 KiB
// journal frame (4096 + 24) and 64 KiB, each at start offsets 0-7.
void ExpectMatchesReference(Crc32cFn crc) {
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 67; ++n) lengths.push_back(n);
  lengths.push_back(4120);
  lengths.push_back(65536);
  Bytes buf(65536 + 8);
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<uint8_t>(i * 131 + (i >> 8) * 7 + 1);
  }
  for (size_t len : lengths) {
    for (size_t off = 0; off < 8; ++off) {
      const ByteSpan s(buf.data() + off, len);
      EXPECT_EQ(crc(s, 0), ReferenceCrc32c(s))
          << "len " << len << " off " << off;
    }
  }
}

// Crc32c(b, Crc32c(a)) == Crc32c(a || b) for every split of a buffer that
// crosses several 8-byte steps.
void ExpectChains(Crc32cFn crc) {
  Bytes ab(83);
  for (size_t i = 0; i < ab.size(); ++i) {
    ab[i] = static_cast<uint8_t>(i * 37 + 5);
  }
  const uint32_t whole = ReferenceCrc32c(ab);
  for (size_t split = 0; split <= ab.size(); ++split) {
    const ByteSpan a(ab.data(), split);
    const ByteSpan b(ab.data() + split, ab.size() - split);
    EXPECT_EQ(crc(b, crc(a, 0)), whole) << "split " << split;
  }
}

TEST(Crc32c, MatchesBitwiseReference) { ExpectMatchesReference(Crc32c); }

TEST(Crc32c, PortableMatchesBitwiseReference) {
  ExpectMatchesReference(detail::Crc32cPortable);
}

TEST(Crc32c, ChainedInitEqualsConcatenation) { ExpectChains(Crc32c); }

TEST(Crc32c, PortableChainedInitEqualsConcatenation) {
  ExpectChains(detail::Crc32cPortable);
}

TEST(Crc32c, PortableKnownCheckValue) {
  EXPECT_EQ(detail::Crc32cPortable(BytesOf("123456789")), 0xE3069283u);
}

TEST(Crc32c, KnownCheckValue) {
  // The canonical CRC32-C check value for "123456789".
  const Bytes data = BytesOf("123456789");
  EXPECT_EQ(Crc32c(data), 0xE3069283u);
}

TEST(Crc32c, EmptyIsZero) {
  EXPECT_EQ(Crc32c({}), 0u);
}

TEST(Crc32c, AllZeros32) {
  // Well-known vector: 32 bytes of 0x00 -> 0x8A9136AA.
  const Bytes data(32, 0x00);
  EXPECT_EQ(Crc32c(data), 0x8A9136AAu);
}

TEST(Crc32c, AllOnes32) {
  // Well-known vector: 32 bytes of 0xFF -> 0x62A8AB43.
  const Bytes data(32, 0xFF);
  EXPECT_EQ(Crc32c(data), 0x62A8AB43u);
}

TEST(Crc32c, SensitiveToSingleBit) {
  Bytes data(64, 0xAB);
  const uint32_t base = Crc32c(data);
  data[17] ^= 0x01;
  EXPECT_NE(Crc32c(data), base);
}

TEST(Crc32c, IncrementalMatchesOneShot) {
  const Bytes data = BytesOf("hello incremental crc world");
  const uint32_t whole = Crc32c(data);
  // Note: our continuation takes the previous CRC as init.
  const uint32_t part1 = Crc32c(ByteSpan(data.data(), 5));
  const uint32_t combined = Crc32c(ByteSpan(data.data() + 5, data.size() - 5), part1);
  EXPECT_EQ(combined, whole);
}

}  // namespace
}  // namespace vde
