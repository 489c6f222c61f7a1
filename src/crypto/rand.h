// Cryptographic randomness: system entropy + a fast deterministic DRBG.
//
// The paper's random-IV scheme needs one fresh 16-byte IV per 4 KiB sector
// write. `Drbg` (ChaCha20-based, seeded from system entropy or a fixed test
// seed) serves that at GB/s rates; `SystemRandom` taps the OS.
#pragma once

#include <cstdint>

#include "crypto/chacha20.h"
#include "util/bytes.h"

namespace vde::crypto {

// Fills `out` with OS entropy (getentropy / /dev/urandom). Aborts on failure:
// a storage system must not run without entropy.
void SystemRandom(MutByteSpan out);

// Deterministic random bit generator built on the ChaCha20 keystream.
// Reseedable; a fixed seed yields a reproducible IV stream for tests.
// Generate call n emits the keystream of (key, nonce = LE64(n) || 0^32)
// from block 0; one keyed context serves every call.
class Drbg {
 public:
  // Seeded from system entropy.
  Drbg();
  // Seeded deterministically (tests / reproducible benches).
  explicit Drbg(uint64_t seed);

  void Generate(MutByteSpan out);
  Bytes Generate(size_t n);

  // Mix fresh system entropy into the state.
  void Reseed();

 private:
  void Rekey(ByteSpan seed32);

  Bytes key_;           // 32-byte ChaCha20 key, ratcheted on rekey
  uint64_t counter_ = 0;  // nonce counter; rekey before it wraps 2^32 blocks
  ChaCha20 stream_;     // keyed with key_; each Generate restarts its nonce
};

}  // namespace vde::crypto
