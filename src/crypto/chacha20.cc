#include "crypto/chacha20.h"

#include <algorithm>
#include <cassert>

#include "crypto/evp.h"

namespace vde::crypto {

namespace {

// EVP's ChaCha20 IV is RFC 8439's initial state words 12..15: the 32-bit
// block counter (little-endian) followed by the 96-bit nonce.
void MakeIv(ByteSpan nonce, uint32_t counter, uint8_t iv[16]) {
  assert(nonce.size() == 12);
  StoreU32Le(iv, counter);
  std::copy(nonce.begin(), nonce.end(), iv + 4);
}

}  // namespace

void ChaCha20::CtxFree::operator()(EVP_CIPHER_CTX* ctx) const {
  EVP_CIPHER_CTX_free(ctx);
}

ChaCha20::ChaCha20(ByteSpan key, ByteSpan nonce, uint32_t counter)
    : ctx_(evp::Checked(EVP_CIPHER_CTX_new())) {
  assert(key.size() == 32);
  uint8_t iv[16];
  MakeIv(nonce, counter, iv);
  evp::Check(EVP_EncryptInit_ex2(ctx_.get(), evp::ChaCha20(), key.data(), iv,
                                 nullptr));
}

void ChaCha20::Restart(ByteSpan nonce, uint32_t counter) {
  uint8_t iv[16];
  MakeIv(nonce, counter, iv);
  evp::Check(EVP_EncryptInit_ex2(ctx_.get(), nullptr, nullptr, iv, nullptr));
}

void ChaCha20::XorStream(MutByteSpan data) {
  if (data.empty()) return;
  int len = 0;
  evp::Check(EVP_EncryptUpdate(ctx_.get(), data.data(), &len, data.data(),
                               static_cast<int>(data.size())));
  assert(len == static_cast<int>(data.size()));
}

void ChaCha20::Keystream(MutByteSpan out) {
  std::fill(out.begin(), out.end(), 0);
  XorStream(out);
}

}  // namespace vde::crypto
