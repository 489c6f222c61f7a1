#include <gtest/gtest.h>

#include "crypto/hmac.h"
#include "util/rng.h"

namespace vde::crypto {
namespace {

std::string HmacHex(ByteSpan key, ByteSpan data) {
  const auto d = HmacSha256(key, data);
  return ToHex(ByteSpan(d.data(), d.size()));
}

// RFC 4231 test vectors.
TEST(HmacSha256, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(HmacHex(key, BytesOf("Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2) {
  EXPECT_EQ(HmacHex(BytesOf("Jefe"), BytesOf("what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  EXPECT_EQ(HmacHex(key, data),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacSha256, LongKeyIsHashed) {
  // RFC 4231 case 6: 131-byte key.
  const Bytes key(131, 0xaa);
  EXPECT_EQ(HmacHex(key, BytesOf("Test Using Larger Than Block-Size Key - "
                                 "Hash Key First")),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacSha256, StreamingMatchesOneShot) {
  Rng rng(55);
  const Bytes key = rng.RandomBytes(32);
  const Bytes data = rng.RandomBytes(300);
  HmacSha256Stream h(key);
  h.Update(ByteSpan(data.data(), 100));
  h.Update(ByteSpan(data.data() + 100, 200));
  const auto streamed = h.Finish();
  const auto oneshot = HmacSha256(key, data);
  EXPECT_EQ(ToHex(streamed), ToHex(oneshot));
}

TEST(HmacSha256, KeySensitivity) {
  Rng rng(56);
  const Bytes data = rng.RandomBytes(64);
  Bytes key = rng.RandomBytes(32);
  const auto a = HmacSha256(key, data);
  key[0] ^= 1;
  const auto b = HmacSha256(key, data);
  EXPECT_NE(ToHex(a), ToHex(b));
}

// RFC 7914 §11 PBKDF2-HMAC-SHA256 vectors.
TEST(Pbkdf2, Rfc7914Iter1) {
  Bytes out(64);
  Pbkdf2HmacSha256(BytesOf("passwd"), BytesOf("salt"), 1, out);
  EXPECT_EQ(ToHex(out),
            "55ac046e56e3089fec1691c22544b605f94185216dde0465e68b9d57c20dacbc"
            "49ca9cccf179b645991664b39d77ef317c71b845b1e30bd509112041d3a19783");
}

TEST(Pbkdf2, Rfc7914Iter80000) {
  Bytes out(64);
  Pbkdf2HmacSha256(BytesOf("Password"), BytesOf("NaCl"), 80000, out);
  EXPECT_EQ(ToHex(out),
            "4ddcd8f60b98be21830cee5ef22701f9641a4418d04c0414aeff08876b34ab56"
            "a1d425a1225833549adb841b51c9b3176a272bdebba1d078478f62b397f33c8d");
}

TEST(Pbkdf2, MoreIterationsChangeOutput) {
  Bytes a(32), b(32);
  Pbkdf2HmacSha256(BytesOf("pw"), BytesOf("salt"), 1, a);
  Pbkdf2HmacSha256(BytesOf("pw"), BytesOf("salt"), 2, b);
  EXPECT_NE(ToHex(a), ToHex(b));
}

TEST(Pbkdf2, OutputLengthSpansBlocks) {
  // 40 bytes requires two HMAC blocks; prefix must match the 32-byte run.
  Bytes short_out(32), long_out(40);
  Pbkdf2HmacSha256(BytesOf("pw"), BytesOf("salt"), 10, short_out);
  Pbkdf2HmacSha256(BytesOf("pw"), BytesOf("salt"), 10, long_out);
  EXPECT_EQ(ToHex(short_out), ToHex(ByteSpan(long_out.data(), 32)));
}

// RFC 5869 test case 1.
TEST(Hkdf, Rfc5869Case1) {
  const Bytes ikm(22, 0x0b);
  const Bytes salt = FromHex("000102030405060708090a0b0c");
  const Bytes info = FromHex("f0f1f2f3f4f5f6f7f8f9");
  Bytes out(42);
  HkdfSha256(ikm, salt, info, out);
  EXPECT_EQ(ToHex(out),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

// RFC 5869 test case 3: empty salt (HashLen zero bytes) and empty info.
TEST(Hkdf, EmptySaltWorks) {
  const Bytes ikm(22, 0x0b);
  Bytes out(42);
  HkdfSha256(ikm, {}, {}, out);
  EXPECT_EQ(ToHex(out),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8");
}

TEST(Hkdf, InfoSeparatesOutputs) {
  Bytes a(32), b(32);
  HkdfSha256(BytesOf("ikm"), BytesOf("salt"), BytesOf("context-a"), a);
  HkdfSha256(BytesOf("ikm"), BytesOf("salt"), BytesOf("context-b"), b);
  EXPECT_NE(ToHex(a), ToHex(b));
}

}  // namespace
}  // namespace vde::crypto
