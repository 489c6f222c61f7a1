// Pins the LZ codec's compressed stream byte for byte: a SHA-256 over the
// output of LzCompress for a seeded corpus, a round trip through
// LzDecompress for every input, and the out-of-room rule (one byte short of
// the stream returns 0). Any change to the parse or the hash-table updates
// moves the digest; kernel changes that keep the parse must not.
#include "util/lz.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "crypto/sha256.h"
#include "util/rng.h"

namespace vde {
namespace {

constexpr size_t kSector = 512;
constexpr size_t kBlock = 4096;

uint64_t SplitMix(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// The benchmark's sector shape: each 512 B sector opens with one repeated
// byte over `pct` percent of it (rounded down to 8 bytes), then seeded
// 64-bit noise.
Bytes SectorShaped(uint64_t seed, uint32_t pct, size_t len) {
  Bytes out(len);
  for (size_t s = 0; s * kSector < len; ++s) {
    uint8_t* sector = out.data() + s * kSector;
    uint64_t state = seed;
    state = SplitMix(state) ^ s;
    state = SplitMix(state) ^ 1;  // version 1
    const size_t run = (kSector * pct / 100) & ~size_t{7};
    std::memset(sector, static_cast<int>(SplitMix(state) | 1) & 0xFF, run);
    for (size_t i = run; i < kSector; i += 8) {
      const uint64_t word = SplitMix(state);
      std::memcpy(sector + i, &word, sizeof(word));
    }
  }
  return out;
}

// A seeded prefix of `prefix` random bytes, then `len - prefix` bytes with
// period `period`: the parse emits long matches at offsets below 8.
Bytes Periodic(Rng& rng, size_t period, size_t prefix, size_t len) {
  Bytes out = rng.RandomBytes(len);
  for (size_t i = prefix + period; i < len; ++i) out[i] = out[i - period];
  return out;
}

std::vector<std::pair<std::string, Bytes>> Corpus() {
  std::vector<std::pair<std::string, Bytes>> corpus;
  Rng rng(0x12A7);
  for (uint32_t pct : {0u, 50u, 90u}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      corpus.emplace_back("sector" + std::to_string(pct) + "/" +
                              std::to_string(seed),
                          SectorShaped(seed, pct, kBlock));
    }
  }
  corpus.emplace_back("zero", Bytes(kBlock, 0));
  corpus.emplace_back("random", rng.RandomBytes(kBlock));
  for (size_t n = 1; n <= 15; ++n) {
    corpus.emplace_back("tiny-random/" + std::to_string(n),
                        rng.RandomBytes(n));
    corpus.emplace_back("tiny-run/" + std::to_string(n), Bytes(n, 0x5A));
  }
  Bytes big = SectorShaped(9, 50, 65536);
  for (size_t i = 40000; i < 48000; ++i) big[i] = big[i - 33000];
  corpus.emplace_back("64k", std::move(big));
  for (size_t period = 2; period <= 7; ++period) {
    for (size_t prefix : {0u, 3u, 17u}) {
      corpus.emplace_back("period" + std::to_string(period) + "/" +
                              std::to_string(prefix),
                          Periodic(rng, period, prefix, kBlock));
    }
  }
  return corpus;
}

// Room for any stream the codec can emit for `n` input bytes: every byte as
// a literal, plus the token and the 255-valued length continuation bytes.
size_t Bound(size_t n) { return n + n / 255 + 16; }

TEST(LzGolden, CorpusStreamDigestAndRoundTrip) {
  crypto::Sha256 digest;
  size_t total = 0;
  for (const auto& [name, in] : Corpus()) {
    Bytes packed(Bound(in.size()));
    const size_t clen = LzCompress(in, packed);
    ASSERT_GT(clen, 0u) << name;
    packed.resize(clen);
    Bytes len_le;
    AppendU32Le(len_le, static_cast<uint32_t>(clen));
    digest.Update(len_le);
    digest.Update(packed);
    total += clen;

    Bytes out(in.size());
    ASSERT_TRUE(LzDecompress(packed, out).ok()) << name;
    EXPECT_EQ(out, in) << name;

    Bytes short_out(clen - 1);
    EXPECT_EQ(LzCompress(in, short_out), 0u) << name;
  }
  const auto md = digest.Finish();
  EXPECT_EQ(ToHex(ByteSpan(md.data(), md.size())),
            "aac4e90f4fedbf2dff572aece0c4cbca2dc2b2c5f403bd39512b9a00eba405fe");
  EXPECT_EQ(total, 61389u);
}

}  // namespace
}  // namespace vde
