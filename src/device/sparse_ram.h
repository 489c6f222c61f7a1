// Sparse page store: the data plane behind the simulated NVMe device.
//
// Pages are allocated on first write, so a "1.8 TB" device costs memory only
// for what benches actually touch. Reads of holes return zeros, as a trimmed
// flash device would.
//
// Shared copy-on-write pages: page memory comes from one process-wide arena
// of refcounted 4 KiB pages, so several devices may hold the same page. A
// replicated whole-page write is stored once: the first device writes it
// through a PageRun, and the other replicas adopt the run's pages instead of
// copying the payload. A page is copied before it is changed while anyone
// else holds it — a partial write or a Punch of a shared page copies it
// first, a full-page overwrite takes a fresh page — so each device reads
// exactly its own bytes. Sharing is host memory only: it never changes what
// a read returns, and it costs no simulated time. The arena frees its slabs
// once its last page is released.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "util/bytes.h"

namespace vde::dev {

class SparseRam {
 public:
  static constexpr size_t kPageSize = 4096;

  struct Page;

  // References to the pages of one whole-page write, for other devices to
  // adopt (see WriteAt). Holding a run keeps its pages alive and unchanged:
  // a holder that changes one of them copies it first.
  class PageRun {
   public:
    PageRun() = default;
    PageRun(PageRun&& other) noexcept : pages_(std::move(other.pages_)) {}
    ~PageRun();

    bool empty() const { return pages_.empty(); }

   private:
    friend class SparseRam;
    std::vector<Page*> pages_;
  };

  explicit SparseRam(uint64_t capacity_bytes) : capacity_(capacity_bytes) {}
  ~SparseRam();
  SparseRam(const SparseRam&) = delete;
  SparseRam& operator=(const SparseRam&) = delete;

  uint64_t capacity() const { return capacity_; }
  size_t allocated_pages() const { return pages_.size(); }

  // Arbitrary byte-granularity access (alignment is the device's concern).
  void ReadAt(uint64_t offset, MutByteSpan out) const;
  void WriteAt(uint64_t offset, ByteSpan data);

  // WriteAt that shares whole pages through `share`. A page-aligned write
  // of whole pages through an empty run writes `data` and fills the run
  // with its pages; through a filled run it adopts the run's pages, which
  // must hold the same bytes as `data`. Any other write copies as WriteAt.
  void WriteAt(uint64_t offset, ByteSpan data, PageRun& share);

  // TRIM: whole pages in the range are released (subsequent reads return
  // zeros), partial edge pages are zero-filled in place.
  void Punch(uint64_t offset, uint64_t length);

  // Holders (devices and runs) of the page under `offset`; 0 for a hole.
  uint32_t PageRefs(uint64_t offset) const;

  // Process-wide arena gauges: pages held by anyone, and slabs allocated.
  static size_t ArenaLivePages();
  static size_t ArenaSlabs();

 private:
  // The page under `page_no`, made private to this device (copied if
  // shared) for a write of `take` bytes at `in_page`.
  Page* PrivatePage(uint64_t page_no, size_t in_page, size_t take);

  uint64_t capacity_;
  std::unordered_map<uint64_t, Page*> pages_;  // each entry holds a ref
};

}  // namespace vde::dev
