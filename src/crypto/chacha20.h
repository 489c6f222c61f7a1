// ChaCha20 stream cipher (RFC 8439 layout) over OpenSSL EVP — used by the
// DRBG and the LION-style wide-block construction.
#pragma once

#include <cstdint>
#include <memory>

#include "util/bytes.h"

struct evp_cipher_ctx_st;  // OpenSSL's EVP_CIPHER_CTX

namespace vde::crypto {

class ChaCha20 {
 public:
  // key: 32 bytes, nonce: 12 bytes, counter: initial 32-bit block counter.
  ChaCha20(ByteSpan key, ByteSpan nonce, uint32_t counter = 0);

  // Restarts the keystream at (`nonce`, `counter`) under the same key,
  // without redoing the key setup.
  void Restart(ByteSpan nonce, uint32_t counter = 0);

  // XOR the keystream into `data` in place (encrypt == decrypt).
  // Consecutive calls continue the keystream byte for byte.
  void XorStream(MutByteSpan data);

  // Fill `out` with raw keystream bytes.
  void Keystream(MutByteSpan out);

 private:
  struct CtxFree {
    void operator()(evp_cipher_ctx_st* ctx) const;
  };

  std::unique_ptr<evp_cipher_ctx_st, CtxFree> ctx_;
};

}  // namespace vde::crypto
