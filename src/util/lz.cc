#include "util/lz.h"

#include <bit>
#include <cstring>

namespace vde {
namespace {

constexpr size_t kMinMatch = 4;
constexpr size_t kMaxOffset = 65535;
constexpr size_t kHashBits = 12;
constexpr size_t kHashSize = size_t{1} << kHashBits;

inline uint32_t Load32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

inline uint64_t Load64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

inline uint32_t Hash4(uint32_t v) {
  return (v * 2654435761u) >> (32 - kHashBits);
}

// Length of the common prefix of a[0, limit) and b[0, limit), compared 8
// bytes at a time: the first differing byte is the lowest set byte of the
// XOR on a little-endian load, the highest on a big-endian one.
inline size_t CommonPrefix(const uint8_t* a, const uint8_t* b, size_t limit) {
  size_t len = 0;
  while (len + 8 <= limit) {
    const uint64_t diff = Load64(a + len) ^ Load64(b + len);
    if (diff != 0) {
      if constexpr (std::endian::native == std::endian::little) {
        return len + static_cast<size_t>(std::countr_zero(diff)) / 8;
      } else {
        return len + static_cast<size_t>(std::countl_zero(diff)) / 8;
      }
    }
    len += 8;
  }
  while (len < limit && a[len] == b[len]) len++;
  return len;
}

// Copies a match of `len` bytes from `off` bytes back, writing exactly
// to[0, len). Offset 1 is a run of one byte; from offset 8 up every 8-byte
// chunk reads bytes already written; offsets 2-7 overlap within a chunk,
// so they replicate byte by byte.
inline void CopyMatch(uint8_t* to, size_t off, size_t len) {
  const uint8_t* from = to - off;
  if (off == 1) {
    std::memset(to, *from, len);
  } else if (off >= 8) {
    size_t k = 0;
    for (; k + 8 <= len; k += 8) std::memcpy(to + k, from + k, 8);
    std::memcpy(to + k, from + k, len - k);
  } else {
    for (size_t k = 0; k < len; ++k) to[k] = from[k];
  }
}

// Emits one token + extension bytes for `value` with the LZ4 convention:
// nibble 15 means "continuation bytes follow", each worth up to 255.
// Returns false if `out` ran out of room.
bool PutLength(size_t value, MutByteSpan out, size_t& pos) {
  while (value >= 255) {
    if (pos >= out.size()) return false;
    out[pos++] = 255;
    value -= 255;
  }
  if (pos >= out.size()) return false;
  out[pos++] = static_cast<uint8_t>(value);
  return true;
}

}  // namespace

size_t LzCompress(ByteSpan in, MutByteSpan out) {
  if (in.empty()) return 0;
  uint16_t table[kHashSize];  // positions + 1; 0 = empty
  static_assert(kHashSize * sizeof(uint16_t) <= 8192, "stack-friendly");
  std::memset(table, 0, sizeof(table));
  if (in.size() > kMaxOffset + 1) return 0;  // 64 KiB blocks max by design

  const uint8_t* src = in.data();
  const size_t n = in.size();
  size_t pos = 0;        // write cursor in out
  size_t anchor = 0;     // first literal not yet emitted
  size_t i = 0;          // scan cursor

  auto emit = [&](size_t literal_end, size_t match_len,
                  size_t match_off) -> bool {
    const size_t lit = literal_end - anchor;
    const size_t ml = match_len > 0 ? match_len - kMinMatch : 0;
    if (pos >= out.size()) return false;
    const uint8_t tok =
        static_cast<uint8_t>((lit < 15 ? lit : 15) << 4 |
                             (match_len > 0 ? (ml < 15 ? ml : 15) : 0));
    out[pos++] = tok;
    if (lit >= 15 && !PutLength(lit - 15, out, pos)) return false;
    if (pos + lit > out.size()) return false;
    std::memcpy(out.data() + pos, src + anchor, lit);
    pos += lit;
    if (match_len > 0) {
      if (pos + 2 > out.size()) return false;
      out[pos++] = static_cast<uint8_t>(match_off & 0xff);
      out[pos++] = static_cast<uint8_t>(match_off >> 8);
      if (ml >= 15 && !PutLength(ml - 15, out, pos)) return false;
    }
    return true;
  };

  while (i + kMinMatch <= n) {
    const uint32_t word = Load32(src + i);
    const uint32_t h = Hash4(word);
    const size_t cand = table[h];  // position + 1
    table[h] = static_cast<uint16_t>(i + 1);
    if (cand != 0 && Load32(src + cand - 1) == word) {
      const size_t match_pos = cand - 1;
      const size_t len =
          kMinMatch + CommonPrefix(src + match_pos + kMinMatch,
                                   src + i + kMinMatch, n - i - kMinMatch);
      if (!emit(i, len, i - match_pos)) return 0;
      i += len;
      anchor = i;
      // Re-seed the table at the match tail so adjacent runs keep matching.
      if (i + kMinMatch <= n) table[Hash4(Load32(src + i - 1))] =
          static_cast<uint16_t>(i);
    } else {
      i++;
    }
  }
  if (!emit(n, 0, 0)) return 0;
  return pos;
}

Status LzDecompress(ByteSpan in, MutByteSpan out) {
  const uint8_t* src = in.data();
  const size_t n = in.size();
  size_t i = 0;    // read cursor
  size_t o = 0;    // write cursor

  auto get_length = [&](size_t base) -> size_t {
    // Returns SIZE_MAX on truncation.
    size_t v = base;
    if (base != 15) return v;
    while (true) {
      if (i >= n) return SIZE_MAX;
      const uint8_t b = src[i++];
      v += b;
      if (b != 255) return v;
    }
  };

  while (true) {
    if (i >= n) {
      return Status::Corruption("lz: truncated stream (missing token)");
    }
    const uint8_t tok = src[i++];
    size_t lit = get_length(tok >> 4);
    if (lit == SIZE_MAX) {
      return Status::Corruption("lz: truncated literal length");
    }
    if (i + lit > n) return Status::Corruption("lz: truncated literals");
    if (o + lit > out.size()) {
      return Status::Corruption("lz: output overflow (literals)");
    }
    std::memcpy(out.data() + o, src + i, lit);
    i += lit;
    o += lit;
    if (i == n) break;  // final record: literals only
    if (i + 2 > n) return Status::Corruption("lz: truncated match offset");
    const size_t off = static_cast<size_t>(src[i]) |
                       static_cast<size_t>(src[i + 1]) << 8;
    i += 2;
    size_t ml = get_length(tok & 0x0f);
    if (ml == SIZE_MAX) {
      return Status::Corruption("lz: truncated match length");
    }
    ml += kMinMatch;
    if (off == 0 || off > o) return Status::Corruption("lz: bad match offset");
    if (o + ml > out.size()) {
      return Status::Corruption("lz: output overflow (match)");
    }
    CopyMatch(out.data() + o, off, ml);
    o += ml;
  }
  if (o != out.size()) {
    return Status::Corruption("lz: short stream (incomplete block)");
  }
  return Status::Ok();
}

}  // namespace vde
