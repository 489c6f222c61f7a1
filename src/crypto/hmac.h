// HMAC-SHA256 (RFC 2104) and key-derivation helpers (PBKDF2, HKDF), all
// over OpenSSL.
#pragma once

#include <array>
#include <memory>

#include "crypto/sha256.h"
#include "util/bytes.h"

struct evp_mac_ctx_st;  // OpenSSL's EVP_MAC_CTX

namespace vde::crypto {

// One-shot HMAC-SHA256.
std::array<uint8_t, kSha256DigestSize> HmacSha256(ByteSpan key, ByteSpan data);

// Streaming HMAC for multi-part messages.
class HmacSha256Stream {
 public:
  explicit HmacSha256Stream(ByteSpan key);
  void Update(ByteSpan data);
  std::array<uint8_t, kSha256DigestSize> Finish();

 private:
  struct CtxFree {
    void operator()(evp_mac_ctx_st* ctx) const;
  };

  std::unique_ptr<evp_mac_ctx_st, CtxFree> ctx_;
};

// PBKDF2-HMAC-SHA256 (RFC 8018). Derives `out.size()` bytes.
void Pbkdf2HmacSha256(ByteSpan password, ByteSpan salt, uint32_t iterations,
                      MutByteSpan out);

// HKDF-SHA256 (RFC 5869): extract-then-expand.
void HkdfSha256(ByteSpan ikm, ByteSpan salt, ByteSpan info, MutByteSpan out);

}  // namespace vde::crypto
