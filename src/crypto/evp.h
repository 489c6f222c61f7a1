// OpenSSL algorithm handles and call checks shared by the crypto
// translation units.
//
// Internal to src/crypto: public headers only forward-declare OpenSSL
// types. Each algorithm is fetched from the default provider once per
// process, so per-block calls never repeat the provider lookup an implicit
// fetch (EVP_sha256() and friends) would do on every init. The handles
// live until exit.
#pragma once

#include <openssl/err.h>
#include <openssl/evp.h>
#include <openssl/kdf.h>

#include <cstdio>
#include <cstdlib>

namespace vde::crypto::evp {

// An EVP call failed. Callers validate sizes before calling, so this means
// an exhausted heap, a missing algorithm or a key OpenSSL refuses (XTS with
// key1 == key2); carrying on would emit wrong ciphertext, which a storage
// stack must never persist.
[[noreturn]] inline void Fail() {
  ERR_print_errors_fp(stderr);
  std::abort();
}

// Checks an EVP call that reports success as 1.
inline void Check(int rc) {
  if (rc != 1) Fail();
}

// Checks an EVP constructor or fetch.
template <typename T>
T* Checked(T* p) {
  if (p == nullptr) Fail();
  return p;
}

inline EVP_MD* Sha256() {
  static EVP_MD* const md =
      Checked(EVP_MD_fetch(nullptr, "SHA2-256", nullptr));
  return md;
}

inline EVP_MAC* Hmac() {
  static EVP_MAC* const mac = Checked(EVP_MAC_fetch(nullptr, "HMAC", nullptr));
  return mac;
}

inline EVP_KDF* Hkdf() {
  static EVP_KDF* const kdf = Checked(EVP_KDF_fetch(nullptr, "HKDF", nullptr));
  return kdf;
}

inline EVP_CIPHER* ChaCha20() {
  static EVP_CIPHER* const cipher =
      Checked(EVP_CIPHER_fetch(nullptr, "ChaCha20", nullptr));
  return cipher;
}

}  // namespace vde::crypto::evp
