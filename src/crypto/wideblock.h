// Tweakable wide-block cipher (LION construction, Anderson & Biham 1996).
//
// The paper (§2.2) discusses wide-block encryption — where every plaintext
// bit influences the *entire* ciphertext sector — as a mitigation that limits
// narrow-block leakage to full-sector granularity. The standardized modes
// (IEEE 1619.2: EME2-AES, XCB-AES) are patent-encumbered and have no public
// offline test vectors, so this repo provides a LION-style construction with
// the same interface and performance class (two stream passes + one hash
// pass over the sector). It stands in for them wherever the paper's
// wide-block option is measured (bench_ablations, ablation D).
//
// Construction (3-round unbalanced Luby–Rackoff; tweak bound via HMAC):
//   split P into L (32 bytes) and R (rest)
//   R ^= ChaCha20(L ^ HMAC(K1, tweak));  L ^= SHA256(R);
//   R ^= ChaCha20(L ^ HMAC(K2, tweak))
#pragma once

#include <array>

#include "util/bytes.h"

namespace vde::crypto {

class WideBlockCipher {
 public:
  // `key` must be 64 bytes (two independent 32-byte subkeys).
  explicit WideBlockCipher(ByteSpan key);

  // `in.size()` must be > 32 + 16 (one hash half plus a nonempty right half);
  // sectors of 512/4096 bytes qualify. `out` may alias `in`.
  void Encrypt(ByteSpan tweak, ByteSpan in, MutByteSpan out) const;
  void Decrypt(ByteSpan tweak, ByteSpan in, MutByteSpan out) const;

 private:
  static constexpr size_t kLeftSize = 32;

  void StreamXor(const std::array<uint8_t, 32>& key, MutByteSpan data) const;
  std::array<uint8_t, 32> RoundKey(int which, ByteSpan tweak) const;

  std::array<uint8_t, 32> k1_;
  std::array<uint8_t, 32> k2_;
};

}  // namespace vde::crypto
