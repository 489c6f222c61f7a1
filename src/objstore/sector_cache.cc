#include "objstore/sector_cache.h"

#include <algorithm>

namespace vde::objstore {

SectorCache::SectorCache(size_t tags)
    : sets_((tags + kWays - 1) / kWays), tags_(sets_ * kWays, kEmpty) {}

uint32_t* SectorCache::SetOf(uint64_t sector) {
  // Fibonacci hashing: object extents sit at multiples of the allocation
  // size, so the low bits of their sector numbers repeat.
  const uint64_t mixed = (sector * 0x9E3779B97F4A7C15ull) >> 32;
  return tags_.data() + mixed % sets_ * kWays;
}

void SectorCache::Promote(uint32_t* set, size_t i) {
  std::rotate(set, set + i, set + i + 1);
}

void SectorCache::Remove(uint32_t* set, size_t i) {
  std::copy(set + i + 1, set + kWays, set + i);
  set[kWays - 1] = kEmpty;
}

bool SectorCache::Lookup(uint64_t sector) {
  if (sets_ == 0 || sector >= kEmpty) return false;
  uint32_t* set = SetOf(sector);
  for (size_t i = 0; i < kWays; ++i) {
    if (set[i] == sector) {
      Promote(set, i);
      return true;
    }
  }
  return false;
}

void SectorCache::Insert(uint64_t sector) {
  if (sets_ == 0 || sector >= kEmpty || Lookup(sector)) return;
  uint32_t* set = SetOf(sector);
  std::copy_backward(set, set + kWays - 1, set + kWays);
  set[0] = static_cast<uint32_t>(sector);
}

void SectorCache::Drop(uint64_t first, uint64_t last) {
  if (sets_ == 0) return;
  // At most one object extent: a few thousand sectors.
  for (uint64_t sector = first; sector < std::min<uint64_t>(last, kEmpty);
       ++sector) {
    uint32_t* set = SetOf(sector);
    for (size_t i = 0; i < kWays; ++i) {
      if (set[i] == sector) {
        Remove(set, i);
        break;
      }
    }
  }
}

}  // namespace vde::objstore
