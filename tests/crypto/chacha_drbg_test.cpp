#include <gtest/gtest.h>

#include <set>

#include "crypto/chacha20.h"
#include "crypto/rand.h"
#include "util/rng.h"

namespace vde::crypto {
namespace {

TEST(ChaCha20, Rfc8439KeystreamBlock) {
  // RFC 8439 §2.3.2: key 00..1f, nonce 000000090000004a00000000, counter 1.
  const Bytes key = FromHex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  const Bytes nonce = FromHex("000000090000004a00000000");
  ChaCha20 stream(key, nonce, 1);
  Bytes ks(64);
  stream.Keystream(ks);
  EXPECT_EQ(ToHex(ks),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
}

TEST(ChaCha20, Rfc8439Encryption) {
  // RFC 8439 §2.4.2 "Ladies and Gentlemen..." vector.
  const Bytes key = FromHex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  const Bytes nonce = FromHex("000000000000004a00000000");
  Bytes msg = BytesOf(
      "Ladies and Gentlemen of the class of '99: If I could offer you only "
      "one tip for the future, sunscreen would be it.");
  ChaCha20 stream(key, nonce, 1);
  stream.XorStream(msg);
  EXPECT_EQ(ToHex(ByteSpan(msg.data(), 32)),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b");
}

TEST(ChaCha20, XorIsInvolution) {
  Rng rng(1);
  const Bytes key = rng.RandomBytes(32);
  const Bytes nonce = rng.RandomBytes(12);
  const Bytes orig = rng.RandomBytes(1000);
  Bytes buf = orig;
  ChaCha20 a(key, nonce);
  a.XorStream(buf);
  EXPECT_NE(buf, orig);
  ChaCha20 b(key, nonce);
  b.XorStream(buf);
  EXPECT_EQ(buf, orig);
}

TEST(ChaCha20, ChunkedMatchesWhole) {
  Rng rng(2);
  const Bytes key = rng.RandomBytes(32);
  const Bytes nonce = rng.RandomBytes(12);
  Bytes whole(257, 0);
  ChaCha20 a(key, nonce);
  a.Keystream(whole);

  // The same stream read in odd-sized chunks, straddling block boundaries,
  // must agree byte for byte.
  Bytes parts(257, 0);
  ChaCha20 b(key, nonce);
  b.Keystream(MutByteSpan(parts.data(), 1));
  b.Keystream(MutByteSpan(parts.data() + 1, 70));
  b.Keystream(MutByteSpan(parts.data() + 71, 57));
  b.Keystream(MutByteSpan(parts.data() + 128, 129));
  EXPECT_EQ(ToHex(whole), ToHex(parts));
}

TEST(ChaCha20, RestartMatchesFreshStream) {
  Rng rng(3);
  const Bytes key = rng.RandomBytes(32);
  const Bytes n1 = rng.RandomBytes(12);
  const Bytes n2 = rng.RandomBytes(12);
  ChaCha20 reused(key, n1);
  Bytes skip(100);
  reused.Keystream(skip);  // leave the context mid-block
  reused.Restart(n2, 1);
  Bytes a(200), b(200);
  reused.Keystream(a);
  ChaCha20 fresh(key, n2, 1);
  fresh.Keystream(b);
  EXPECT_EQ(ToHex(a), ToHex(b));
}

TEST(Drbg, DeterministicSeedReproduces) {
  Drbg a(1234), b(1234);
  EXPECT_EQ(ToHex(a.Generate(64)), ToHex(b.Generate(64)));
}

TEST(Drbg, DifferentSeedsDiffer) {
  Drbg a(1), b(2);
  EXPECT_NE(ToHex(a.Generate(32)), ToHex(b.Generate(32)));
}

TEST(Drbg, SequentialOutputsDiffer) {
  Drbg d(7);
  std::set<std::string> seen;
  for (int i = 0; i < 1000; ++i) {
    seen.insert(ToHex(d.Generate(16)));
  }
  EXPECT_EQ(seen.size(), 1000u) << "IV stream must never repeat";
}

TEST(Drbg, ReseedChangesStream) {
  Drbg a(42);
  Drbg b(42);
  (void)a.Generate(16);
  (void)b.Generate(16);
  a.Reseed();
  EXPECT_NE(ToHex(a.Generate(16)), ToHex(b.Generate(16)));
}

TEST(SystemRandom, ProducesEntropy) {
  Bytes a(32), b(32);
  SystemRandom(a);
  SystemRandom(b);
  EXPECT_NE(ToHex(a), ToHex(b));
  EXPECT_NE(ToHex(a), std::string(64, '0'));
}

}  // namespace
}  // namespace vde::crypto
