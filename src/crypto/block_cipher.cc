// OpenSSL EVP implementation of the BlockCipher interface plus the MakeAes
// factory. Kept in one translation unit so no OpenSSL header leaks into the
// public interface.
#include "crypto/block_cipher.h"

#include <cassert>

#include "crypto/evp.h"

namespace vde::crypto {

namespace {

class OpensslAes final : public BlockCipher {
 public:
  explicit OpensslAes(ByteSpan key) : key_size_(key.size()) {
    const EVP_CIPHER* cipher = nullptr;
    switch (key.size()) {
      case 16: cipher = EVP_aes_128_ecb(); break;
      case 24: cipher = EVP_aes_192_ecb(); break;
      case 32: cipher = EVP_aes_256_ecb(); break;
      default: assert(false && "AES key must be 16/24/32 bytes");
    }
    enc_ = evp::Checked(EVP_CIPHER_CTX_new());
    dec_ = evp::Checked(EVP_CIPHER_CTX_new());
    evp::Check(EVP_EncryptInit_ex(enc_, cipher, nullptr, key.data(), nullptr));
    evp::Check(EVP_DecryptInit_ex(dec_, cipher, nullptr, key.data(), nullptr));
    EVP_CIPHER_CTX_set_padding(enc_, 0);
    EVP_CIPHER_CTX_set_padding(dec_, 0);
  }

  ~OpensslAes() override {
    EVP_CIPHER_CTX_free(enc_);
    EVP_CIPHER_CTX_free(dec_);
  }

  OpensslAes(const OpensslAes&) = delete;
  OpensslAes& operator=(const OpensslAes&) = delete;

  void EncryptBlock(const uint8_t in[16], uint8_t out[16]) const override {
    int len = 0;
    evp::Check(EVP_EncryptUpdate(enc_, out, &len, in, 16));
    assert(len == 16);
  }

  void DecryptBlock(const uint8_t in[16], uint8_t out[16]) const override {
    int len = 0;
    evp::Check(EVP_DecryptUpdate(dec_, out, &len, in, 16));
    assert(len == 16);
  }

  size_t key_size() const override { return key_size_; }

 private:
  size_t key_size_;
  EVP_CIPHER_CTX* enc_;
  EVP_CIPHER_CTX* dec_;
};

}  // namespace

std::unique_ptr<BlockCipher> MakeAes(ByteSpan key) {
  return std::make_unique<OpensslAes>(key);
}

}  // namespace vde::crypto
