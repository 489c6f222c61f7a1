#include "crypto/rand.h"

#include <unistd.h>

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "crypto/sha256.h"

namespace vde::crypto {

void SystemRandom(MutByteSpan out) {
  size_t off = 0;
  while (off < out.size()) {
    const size_t chunk = std::min<size_t>(256, out.size() - off);
    if (getentropy(out.data() + off, chunk) != 0) {
      std::perror("getentropy");
      std::abort();
    }
    off += chunk;
  }
}

namespace {

constexpr uint8_t kZeroNonce[12] = {};

Bytes EntropyKey() {
  Bytes key(32);
  SystemRandom(key);
  return key;
}

Bytes SeedKey(uint64_t seed) {
  uint8_t seed_bytes[8];
  StoreU64Le(seed_bytes, seed);
  const auto digest = Sha256::Digest(ByteSpan(seed_bytes, 8));
  return Bytes(digest.begin(), digest.end());
}

}  // namespace

Drbg::Drbg() : key_(EntropyKey()), stream_(key_, kZeroNonce) {}

Drbg::Drbg(uint64_t seed) : key_(SeedKey(seed)), stream_(key_, kZeroNonce) {}

void Drbg::Rekey(ByteSpan seed32) {
  assert(seed32.size() == 32);
  // Ratchet: new_key = SHA256(old_key || seed).
  Sha256 h;
  h.Update(key_);
  h.Update(seed32);
  const auto digest = h.Finish();
  std::memcpy(key_.data(), digest.data(), 32);
  counter_ = 0;
  stream_ = ChaCha20(key_, kZeroNonce);
}

void Drbg::Reseed() {
  Bytes fresh(32);
  SystemRandom(fresh);
  Rekey(fresh);
}

void Drbg::Generate(MutByteSpan out) {
  // Each Generate call uses a distinct nonce derived from the counter.
  uint8_t nonce[12] = {};
  StoreU64Le(nonce, counter_++);
  stream_.Restart(ByteSpan(nonce, 12));
  stream_.Keystream(out);
  if (counter_ == ~uint64_t{0}) Reseed();
}

Bytes Drbg::Generate(size_t n) {
  Bytes out(n);
  Generate(out);
  return out;
}

}  // namespace vde::crypto
