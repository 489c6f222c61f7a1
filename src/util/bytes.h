// Byte-buffer helpers shared across the library.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace vde {

using Bytes = std::vector<uint8_t>;
using ByteSpan = std::span<const uint8_t>;
using MutByteSpan = std::span<uint8_t>;

// Hex-encode `data` as lowercase text, e.g. {0xde, 0xad} -> "dead".
std::string ToHex(ByteSpan data);

// Decode lowercase/uppercase hex into bytes. Asserts on malformed input;
// intended for test vectors and tooling, not untrusted parsing.
Bytes FromHex(std::string_view hex);

// Bytes of an ASCII string (no terminator).
Bytes BytesOf(std::string_view s);

// XOR `src` into `dst` (dst ^= src). Sizes must match.
void XorInto(MutByteSpan dst, ByteSpan src);

// Constant-time equality for secrets (MACs, digests).
bool ConstantTimeEqual(ByteSpan a, ByteSpan b);

// Append helpers used by serializers.
void AppendBytes(Bytes& out, ByteSpan data);
void AppendU8(Bytes& out, uint8_t v);
void AppendU16Le(Bytes& out, uint16_t v);
void AppendU32Le(Bytes& out, uint32_t v);
void AppendU64Le(Bytes& out, uint64_t v);

// Little-endian loads (caller guarantees bounds).
uint16_t LoadU16Le(const uint8_t* p);
uint32_t LoadU32Le(const uint8_t* p);
uint64_t LoadU64Le(const uint8_t* p);
void StoreU16Le(uint8_t* p, uint16_t v);
void StoreU32Le(uint8_t* p, uint32_t v);
void StoreU64Le(uint8_t* p, uint64_t v);

// Big-endian loads/stores (crypto formats are big-endian).
uint32_t LoadU32Be(const uint8_t* p);
uint64_t LoadU64Be(const uint8_t* p);
void StoreU32Be(uint8_t* p, uint32_t v);
void StoreU64Be(uint8_t* p, uint64_t v);

// Bounds-checked little-endian cursor over untrusted bytes: the one way
// this library parses length-prefixed data read back from storage. Every
// read either succeeds and advances, or fails (returns false) without
// advancing and without touching memory past the span, so a truncated or
// corrupt length field ends the parse cleanly instead of reading past the
// buffer.
class ByteReader {
 public:
  explicit ByteReader(ByteSpan data) : data_(data) {}

  bool U8(uint8_t* v) {
    return Fixed(v, [](const uint8_t* p) { return *p; });
  }
  bool U16(uint16_t* v) { return Fixed(v, LoadU16Le); }
  bool U32(uint32_t* v) { return Fixed(v, LoadU32Le); }
  bool U64(uint64_t* v) { return Fixed(v, LoadU64Le); }
  bool Str(size_t len, std::string* v) {
    ByteSpan bytes;
    if (!Span(len, &bytes)) return false;
    v->assign(reinterpret_cast<const char*>(bytes.data()), len);
    return true;
  }
  bool Span(size_t len, ByteSpan* v) {
    if (len > data_.size() - off_) return false;
    *v = data_.subspan(off_, len);
    off_ += len;
    return true;
  }

  // Bytes consumed so far, and whether any are left.
  size_t offset() const { return off_; }
  bool empty() const { return off_ == data_.size(); }

 private:
  template <typename T, typename Load>
  bool Fixed(T* v, Load load) {
    ByteSpan bytes;
    if (!Span(sizeof(T), &bytes)) return false;
    *v = load(bytes.data());
    return true;
  }

  ByteSpan data_;
  size_t off_ = 0;
};

}  // namespace vde
