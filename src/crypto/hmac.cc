#include "crypto/hmac.h"

#include <openssl/core_names.h>

#include <cassert>

#include "crypto/evp.h"

namespace vde::crypto {

namespace {

// An unkeyed HMAC context with SHA-256 already selected. Streams start as
// a copy of it, so keying one never repeats the digest lookup by name.
const EVP_MAC_CTX* HmacTemplate() {
  static EVP_MAC_CTX* const tmpl = [] {
    EVP_MAC_CTX* ctx = evp::Checked(EVP_MAC_CTX_new(evp::Hmac()));
    char digest[] = "SHA2-256";
    const OSSL_PARAM params[] = {
        OSSL_PARAM_construct_utf8_string(OSSL_MAC_PARAM_DIGEST, digest, 0),
        OSSL_PARAM_construct_end()};
    evp::Check(EVP_MAC_CTX_set_params(ctx, params));
    return ctx;
  }();
  return tmpl;
}

}  // namespace

void HmacSha256Stream::CtxFree::operator()(EVP_MAC_CTX* ctx) const {
  EVP_MAC_CTX_free(ctx);
}

HmacSha256Stream::HmacSha256Stream(ByteSpan key)
    : ctx_(evp::Checked(EVP_MAC_CTX_dup(HmacTemplate()))) {
  // An empty key is legal HMAC; EVP only needs a non-null pointer to take
  // it as a key rather than as "reuse the previous key".
  static const uint8_t kNoKey = 0;
  evp::Check(EVP_MAC_init(ctx_.get(), key.empty() ? &kNoKey : key.data(),
                          key.size(), nullptr));
}

void HmacSha256Stream::Update(ByteSpan data) {
  evp::Check(EVP_MAC_update(ctx_.get(), data.data(), data.size()));
}

std::array<uint8_t, kSha256DigestSize> HmacSha256Stream::Finish() {
  std::array<uint8_t, kSha256DigestSize> out;
  size_t len = 0;
  evp::Check(EVP_MAC_final(ctx_.get(), out.data(), &len, out.size()));
  assert(len == out.size());
  return out;
}

std::array<uint8_t, kSha256DigestSize> HmacSha256(ByteSpan key, ByteSpan data) {
  HmacSha256Stream h(key);
  h.Update(data);
  return h.Finish();
}

void Pbkdf2HmacSha256(ByteSpan password, ByteSpan salt, uint32_t iterations,
                      MutByteSpan out) {
  assert(iterations >= 1);
  evp::Check(PKCS5_PBKDF2_HMAC(
      reinterpret_cast<const char*>(password.data()),
      static_cast<int>(password.size()), salt.data(),
      static_cast<int>(salt.size()), static_cast<int>(iterations),
      evp::Sha256(), static_cast<int>(out.size()), out.data()));
}

void HkdfSha256(ByteSpan ikm, ByteSpan salt, ByteSpan info, MutByteSpan out) {
  assert(out.size() <= 255 * kSha256DigestSize);
  EVP_KDF_CTX* ctx = evp::Checked(EVP_KDF_CTX_new(evp::Hkdf()));
  char digest[] = "SHA2-256";
  auto octets = [](const char* name, ByteSpan data) {
    return OSSL_PARAM_construct_octet_string(
        name, const_cast<uint8_t*>(data.data()), data.size());
  };
  // An absent salt is RFC 5869's HashLen zero bytes (the same HMAC key).
  OSSL_PARAM params[5];
  OSSL_PARAM* p = params;
  *p++ = OSSL_PARAM_construct_utf8_string(OSSL_KDF_PARAM_DIGEST, digest, 0);
  *p++ = octets(OSSL_KDF_PARAM_KEY, ikm);
  if (!salt.empty()) *p++ = octets(OSSL_KDF_PARAM_SALT, salt);
  *p++ = octets(OSSL_KDF_PARAM_INFO, info);
  *p = OSSL_PARAM_construct_end();
  evp::Check(EVP_KDF_derive(ctx, out.data(), out.size(), params));
  EVP_KDF_CTX_free(ctx);
}

}  // namespace vde::crypto
