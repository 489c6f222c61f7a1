#include "util/crc32.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define VDE_CRC32C_SSE42 1
#endif

namespace vde {

namespace {
// Table-driven CRC32-C, polynomial 0x1EDC6F41 (reflected: 0x82F63B78).
constexpr std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0x82F63B78u ^ (c >> 1)) : (c >> 1);
    }
    t[i] = c;
  }
  return t;
}
constexpr auto kTable = MakeTable();

#ifdef VDE_CRC32C_SSE42
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(ByteSpan data,
                                                       uint32_t init) {
  const uint8_t* p = data.data();
  size_t n = data.size();
  uint64_t c = init ^ 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    c = _mm_crc32_u64(c, v);
  }
  auto c32 = static_cast<uint32_t>(c);
  for (; n > 0; ++p, --n) c32 = _mm_crc32_u8(c32, *p);
  return c32 ^ 0xFFFFFFFFu;
}
#endif

using Crc32cFn = uint32_t (*)(ByteSpan, uint32_t);

Crc32cFn SelectCrc32c() {
#ifdef VDE_CRC32C_SSE42
  if (__builtin_cpu_supports("sse4.2")) return Crc32cSse42;
#endif
  return detail::Crc32cPortable;
}
}  // namespace

namespace detail {
uint32_t Crc32cPortable(ByteSpan data, uint32_t init) {
  uint32_t c = init ^ 0xFFFFFFFFu;
  for (uint8_t b : data) {
    c = kTable[(c ^ b) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}
}  // namespace detail

uint32_t Crc32c(ByteSpan data, uint32_t init) {
  static const Crc32cFn impl = SelectCrc32c();
  return impl(data, init);
}

}  // namespace vde
