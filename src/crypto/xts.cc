#include "crypto/xts.h"

#include <cassert>

#include "crypto/block_cipher.h"
#include "crypto/evp.h"

namespace vde::crypto {

struct XtsCipher::EvpState {
  EVP_CIPHER_CTX* enc = nullptr;
  EVP_CIPHER_CTX* dec = nullptr;

  ~EvpState() {
    EVP_CIPHER_CTX_free(enc);
    EVP_CIPHER_CTX_free(dec);
  }
};

XtsCipher::XtsCipher(ByteSpan key)
    : key_size_(key.size()), evp_(std::make_unique<EvpState>()) {
  assert((key.size() == 32 || key.size() == 64) &&
         "XTS key is key1||key2, 32 or 64 bytes total");
  const EVP_CIPHER* cipher =
      key.size() == 32 ? EVP_aes_128_xts() : EVP_aes_256_xts();
  evp_->enc = evp::Checked(EVP_CIPHER_CTX_new());
  evp_->dec = evp::Checked(EVP_CIPHER_CTX_new());
  evp::Check(
      EVP_EncryptInit_ex(evp_->enc, cipher, nullptr, key.data(), nullptr));
  evp::Check(
      EVP_DecryptInit_ex(evp_->dec, cipher, nullptr, key.data(), nullptr));
}

XtsCipher::~XtsCipher() = default;
XtsCipher::XtsCipher(XtsCipher&&) noexcept = default;
XtsCipher& XtsCipher::operator=(XtsCipher&&) noexcept = default;

// Each data unit re-inits only the tweak on the keyed context.
void XtsCipher::Crypt(ByteSpan tweak16, ByteSpan in, MutByteSpan out,
                      bool encrypt) const {
  assert(tweak16.size() == 16);
  assert(in.size() >= kAesBlockSize && in.size() == out.size());
  EVP_CIPHER_CTX* ctx = encrypt ? evp_->enc : evp_->dec;
  int out_len = 0;
  if (encrypt) {
    evp::Check(EVP_EncryptInit_ex(ctx, nullptr, nullptr, nullptr,
                                  tweak16.data()));
    evp::Check(EVP_EncryptUpdate(ctx, out.data(), &out_len, in.data(),
                                 static_cast<int>(in.size())));
  } else {
    evp::Check(EVP_DecryptInit_ex(ctx, nullptr, nullptr, nullptr,
                                  tweak16.data()));
    evp::Check(EVP_DecryptUpdate(ctx, out.data(), &out_len, in.data(),
                                 static_cast<int>(in.size())));
  }
  assert(out_len == static_cast<int>(in.size()));
}

void XtsCipher::Encrypt(ByteSpan tweak16, ByteSpan in, MutByteSpan out) const {
  Crypt(tweak16, in, out, /*encrypt=*/true);
}

void XtsCipher::Decrypt(ByteSpan tweak16, ByteSpan in, MutByteSpan out) const {
  Crypt(tweak16, in, out, /*encrypt=*/false);
}

}  // namespace vde::crypto
