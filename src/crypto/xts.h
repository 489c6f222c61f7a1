// AES-XTS (IEEE 1619 / NIST SP 800-38E) — the disk-encryption standard the
// paper's baseline (LUKS2) and its random-IV variant both use.
//
// XTS is a *narrow-block* tweakable mode: a change to the plaintext only
// affects the 16-byte sub-block it belongs to (paper §2.1). The tweak is the
// 16-byte IV: LUKS2 derives it from the LBA; the paper's scheme draws it at
// random per sector write and persists it.
#pragma once

#include <memory>

#include "util/bytes.h"

namespace vde::crypto {

class XtsCipher {
 public:
  // `key` is the concatenation key1 || key2, each 16 or 32 bytes
  // (AES-128-XTS uses 32 total, AES-256-XTS uses 64 total).
  explicit XtsCipher(ByteSpan key);
  ~XtsCipher();

  XtsCipher(XtsCipher&&) noexcept;
  XtsCipher& operator=(XtsCipher&&) noexcept;

  // Encrypts one data unit (sector). `in.size()` must be >= 16; sizes not a
  // multiple of 16 use ciphertext stealing. `out` may alias `in`.
  void Encrypt(ByteSpan tweak16, ByteSpan in, MutByteSpan out) const;
  void Decrypt(ByteSpan tweak16, ByteSpan in, MutByteSpan out) const;

  size_t key_size() const { return key_size_; }

 private:
  struct EvpState;

  void Crypt(ByteSpan tweak16, ByteSpan in, MutByteSpan out,
             bool encrypt) const;

  size_t key_size_ = 0;
  std::unique_ptr<EvpState> evp_;
};

}  // namespace vde::crypto
