#include "crypto/gcm.h"

#include <algorithm>
#include <cassert>

#include "crypto/evp.h"

namespace vde::crypto {

// One keyed context per direction; Seal/Open re-init only the IV, so the
// AES key schedule and GHASH key are computed once per cipher object.
struct GcmCipher::EvpState {
  EVP_CIPHER_CTX* enc = nullptr;
  EVP_CIPHER_CTX* dec = nullptr;

  ~EvpState() {
    EVP_CIPHER_CTX_free(enc);
    EVP_CIPHER_CTX_free(dec);
  }
};

GcmCipher::GcmCipher(ByteSpan key) : evp_(std::make_unique<EvpState>()) {
  assert((key.size() == 16 || key.size() == 32) &&
         "GCM key must be 16 or 32 bytes");
  const EVP_CIPHER* cipher =
      key.size() == 16 ? EVP_aes_128_gcm() : EVP_aes_256_gcm();
  evp_->enc = evp::Checked(EVP_CIPHER_CTX_new());
  evp_->dec = evp::Checked(EVP_CIPHER_CTX_new());
  // The default GCM IV length is the 96-bit kGcmIvSize.
  evp::Check(
      EVP_EncryptInit_ex(evp_->enc, cipher, nullptr, key.data(), nullptr));
  evp::Check(
      EVP_DecryptInit_ex(evp_->dec, cipher, nullptr, key.data(), nullptr));
}

GcmCipher::~GcmCipher() = default;
GcmCipher::GcmCipher(GcmCipher&&) noexcept = default;
GcmCipher& GcmCipher::operator=(GcmCipher&&) noexcept = default;

void GcmCipher::Seal(ByteSpan iv, ByteSpan aad, ByteSpan plain,
                     MutByteSpan out, MutByteSpan tag) const {
  assert(iv.size() == kGcmIvSize && "only 96-bit IVs supported");
  assert(plain.size() == out.size());
  assert(tag.size() == kGcmTagSize);
  EVP_CIPHER_CTX* ctx = evp_->enc;
  int len = 0;
  evp::Check(EVP_EncryptInit_ex(ctx, nullptr, nullptr, nullptr, iv.data()));
  if (!aad.empty()) {
    evp::Check(EVP_EncryptUpdate(ctx, nullptr, &len, aad.data(),
                                 static_cast<int>(aad.size())));
  }
  if (!plain.empty()) {
    evp::Check(EVP_EncryptUpdate(ctx, out.data(), &len, plain.data(),
                                 static_cast<int>(plain.size())));
    assert(len == static_cast<int>(plain.size()));
  }
  uint8_t none[kGcmTagSize];  // GCM emits no bytes at finalization
  evp::Check(EVP_EncryptFinal_ex(ctx, none, &len));
  evp::Check(EVP_CIPHER_CTX_ctrl(ctx, EVP_CTRL_AEAD_GET_TAG,
                                 static_cast<int>(kGcmTagSize), tag.data()));
}

bool GcmCipher::Open(ByteSpan iv, ByteSpan aad, ByteSpan cipher,
                     MutByteSpan out, ByteSpan tag) const {
  assert(iv.size() == kGcmIvSize);
  assert(cipher.size() == out.size());
  assert(tag.size() == kGcmTagSize);
  EVP_CIPHER_CTX* ctx = evp_->dec;
  int len = 0;
  evp::Check(EVP_DecryptInit_ex(ctx, nullptr, nullptr, nullptr, iv.data()));
  if (!aad.empty()) {
    evp::Check(EVP_DecryptUpdate(ctx, nullptr, &len, aad.data(),
                                 static_cast<int>(aad.size())));
  }
  if (!cipher.empty()) {
    evp::Check(EVP_DecryptUpdate(ctx, out.data(), &len, cipher.data(),
                                 static_cast<int>(cipher.size())));
    assert(len == static_cast<int>(cipher.size()));
  }
  evp::Check(EVP_CIPHER_CTX_ctrl(ctx, EVP_CTRL_AEAD_SET_TAG,
                                 static_cast<int>(kGcmTagSize),
                                 const_cast<uint8_t*>(tag.data())));
  uint8_t none[kGcmTagSize];
  if (EVP_DecryptFinal_ex(ctx, none, &len) != 1) {
    // EVP has already written the unauthenticated plaintext: wipe it, so a
    // failed Open never hands out partial plaintext.
    std::fill(out.begin(), out.end(), 0);
    return false;
  }
  return true;
}

}  // namespace vde::crypto
