// 16-byte AES block-cipher interface, backed by OpenSSL EVP (AES-NI when
// the CPU has it).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "util/bytes.h"

namespace vde::crypto {

inline constexpr size_t kAesBlockSize = 16;

class BlockCipher {
 public:
  virtual ~BlockCipher() = default;

  virtual void EncryptBlock(const uint8_t in[16], uint8_t out[16]) const = 0;
  virtual void DecryptBlock(const uint8_t in[16], uint8_t out[16]) const = 0;
  virtual size_t key_size() const = 0;
};

// Factory: AES block cipher for `key` (16/24/32 bytes).
std::unique_ptr<BlockCipher> MakeAes(ByteSpan key);

}  // namespace vde::crypto
