// Sparse page store: the data plane behind the simulated NVMe device.
//
// Pages are allocated on first write, so a "1.8 TB" device costs memory only
// for what benches actually touch. Reads of holes return zeros, as a trimmed
// flash device would. Page memory comes from slabs, and pages a Punch
// releases are recycled for later writes.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "util/bytes.h"

namespace vde::dev {

class SparseRam {
 public:
  static constexpr size_t kPageSize = 4096;

  explicit SparseRam(uint64_t capacity_bytes) : capacity_(capacity_bytes) {}

  uint64_t capacity() const { return capacity_; }
  size_t allocated_pages() const { return pages_.size(); }

  // Arbitrary byte-granularity access (alignment is the device's concern).
  void ReadAt(uint64_t offset, MutByteSpan out) const;
  void WriteAt(uint64_t offset, ByteSpan data);

  // TRIM: whole pages in the range are released (subsequent reads return
  // zeros), partial edge pages are zero-filled in place.
  void Punch(uint64_t offset, uint64_t length);

 private:
  static constexpr size_t kSlabPages = 256;

  struct Page {
    uint8_t data[kPageSize];
  };

  // A page's memory, from the free list first. Not zeroed.
  Page* AllocPage();

  uint64_t capacity_;
  std::unordered_map<uint64_t, Page*> pages_;
  std::vector<std::unique_ptr<Page[]>> slabs_;
  size_t slab_used_ = kSlabPages;  // pages handed out of slabs_.back()
  std::vector<Page*> free_;        // pages released by Punch
};

}  // namespace vde::dev
