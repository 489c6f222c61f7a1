// SHA-256 (FIPS 180-4) over OpenSSL EVP, streaming interface.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "util/bytes.h"

struct evp_md_ctx_st;  // OpenSSL's EVP_MD_CTX

namespace vde::crypto {

inline constexpr size_t kSha256DigestSize = 32;

class Sha256 {
 public:
  Sha256();

  void Update(ByteSpan data);
  // Finalizes and returns the digest; the object must not be reused after.
  std::array<uint8_t, kSha256DigestSize> Finish();

  // One-shot convenience.
  static std::array<uint8_t, kSha256DigestSize> Digest(ByteSpan data);

 private:
  struct CtxFree {
    void operator()(evp_md_ctx_st* ctx) const;
  };

  std::unique_ptr<evp_md_ctx_st, CtxFree> ctx_;
};

}  // namespace vde::crypto
