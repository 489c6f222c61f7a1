// CRC32-C (Castagnoli) — integrity check for WAL frames and SSTable blocks.
#pragma once

#include <cstdint>

#include "util/bytes.h"

namespace vde {

// CRC32-C of `data`, optionally continuing from a previous value. Uses the
// SSE4.2 crc32 instruction when the host has it, else a byte-at-a-time
// table loop; both give the same value.
uint32_t Crc32c(ByteSpan data, uint32_t init = 0);

namespace detail {
// The table loop on its own, so tests cover it on SSE4.2 hosts too.
uint32_t Crc32cPortable(ByteSpan data, uint32_t init = 0);
}  // namespace detail

}  // namespace vde
