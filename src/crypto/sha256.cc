#include "crypto/sha256.h"

#include "crypto/evp.h"

namespace vde::crypto {

void Sha256::CtxFree::operator()(EVP_MD_CTX* ctx) const {
  EVP_MD_CTX_free(ctx);
}

Sha256::Sha256() : ctx_(evp::Checked(EVP_MD_CTX_new())) {
  evp::Check(EVP_DigestInit_ex2(ctx_.get(), evp::Sha256(), nullptr));
}

void Sha256::Update(ByteSpan data) {
  evp::Check(EVP_DigestUpdate(ctx_.get(), data.data(), data.size()));
}

std::array<uint8_t, kSha256DigestSize> Sha256::Finish() {
  std::array<uint8_t, kSha256DigestSize> out;
  evp::Check(EVP_DigestFinal_ex(ctx_.get(), out.data(), nullptr));
  return out;
}

std::array<uint8_t, kSha256DigestSize> Sha256::Digest(ByteSpan data) {
  std::array<uint8_t, kSha256DigestSize> out;
  evp::Check(EVP_Digest(data.data(), data.size(), out.data(), nullptr,
                        evp::Sha256(), nullptr));
  return out;
}

}  // namespace vde::crypto
