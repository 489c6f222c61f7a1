// Tags of the partial sectors a store wrote or read recently: its model of
// BlueStore's buffer cache. The store still holds such a sector's bytes, so
// the read-modify-write of a later partial write into it needs no device
// read. A write tags its partial head and tail sectors, and so does a
// device read (the client's read before its read-modify-write warms the
// write that follows). A discard (kTrim, kZero, kRemove) drops only the
// sectors it covers whole: a partly discarded sector keeps its other bytes
// and reads zeros in the discarded ones, so its contents stay known, as
// BlueStore's BufferSpace::discard keeps the rest of a partly discarded
// buffer. Only tags are kept (the data plane is RAM); the table is fixed-size
// and allocation-free after construction: 4-way set-associative, LRU within
// a set. A tag is a 32-bit sector number (4 KiB sectors: devices up to
// 16 TiB); a sector past that is never cached. A table of 0 tags caches
// nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace vde::objstore {

class SectorCache {
 public:
  explicit SectorCache(size_t tags);

  // True when `sector` is cached; a hit becomes its set's most recent.
  bool Lookup(uint64_t sector);
  // Caches `sector` as its set's most recent, evicting the least recent.
  void Insert(uint64_t sector);
  // Forgets every cached sector in [first, last).
  void Drop(uint64_t first, uint64_t last);

 private:
  static constexpr size_t kWays = 4;
  static constexpr uint32_t kEmpty = ~uint32_t{0};

  // The set `sector` maps to: kWays tags, most recent first.
  uint32_t* SetOf(uint64_t sector);
  // Moves way `i` of `set` to the front, keeping the others in order.
  static void Promote(uint32_t* set, size_t i);
  // Removes way `i` of `set`, leaving an empty way at the back.
  static void Remove(uint32_t* set, size_t i);

  size_t sets_;
  std::vector<uint32_t> tags_;
};

}  // namespace vde::objstore
