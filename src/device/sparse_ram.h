// Sparse page store: the data plane behind the simulated NVMe device.
//
// Pages are allocated on first write, so a "1.8 TB" device costs memory only
// for what benches actually touch. Reads of holes return zeros, as a trimmed
// flash device would.
//
// Shared copy-on-write pages: page memory comes from one process-wide arena
// of refcounted 4 KiB pages, so several devices may hold the same page. A
// page is copied before it is changed while anyone else holds it — a
// partial write or a Punch of a shared page copies it first, a full-page
// overwrite takes a fresh page — so each device reads exactly its own bytes
// and a shared page never changes.
//
// A replicated write or Punch is stored once through a PageRun. The first
// device to apply the op through the run records, for each page the op
// touches, the page it held before and the page it holds after. A later
// device adopts the after page when the op covers the whole page, or when
// its own page before the op is that recorded before page (a hole matches
// a hole): both cases leave it exactly the bytes applying the op would. In
// every other case — a diverged page, a different in-page offset, a before
// page only the first device held — it applies the op to its own page. The
// run keeps a reference on every recorded page, so a before page is never
// freed and reused while the run could still match it.
//
// A run can also be recorded from a device without changing it (Record):
// it stands for a write of exactly the bytes the device holds there, so
// another device can take those bytes by adopting pages instead of copying
// them (a recovery push, a snapshot clone). A page the range covers whole
// is recorded as its after page, a partial edge page as both its before and
// its after page, and a hole as a hole. The run's reference makes the
// recorded device copy a page before it next changes it, so the run keeps
// the bytes it recorded.
//
// Sharing is host memory only: it never changes what a read returns, and it
// costs no simulated time. The arena frees its slabs once its last page is
// released.
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

  // The before and after pages of one op, recorded by the first device to
  // apply it, for later devices to adopt (see the header comment). Holding
  // a run keeps its pages alive and unchanged: a holder that changes one of
  // them copies it first.
  class PageRun {
   public:
    PageRun() = default;
    PageRun(const PageRun& other);  // shares `other`'s pages
    PageRun(PageRun&& other) noexcept = default;  // leaves `other` empty
    PageRun& operator=(PageRun other) noexcept;
    ~PageRun();

    bool empty() const { return pages_.empty(); }
    // Bytes of the op the run records.
    uint64_t length() const { return length_; }
    // Copies bytes [pos, pos + out.size()) of the recorded op's result
    // (holes read as zeros) into `out`.
    void Read(uint64_t pos, MutByteSpan out) const;

   private:
    friend class SparseRam;
    struct Change {
      Page* before;  // nullptr: a hole, or a page the op covers whole
      Page* after;   // nullptr: a hole
    };
    size_t in_page_ = 0;  // the op's offset within its first page
    uint64_t length_ = 0;
    std::vector<Change> pages_;  // one per page the op touches
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

  // TRIM: whole pages in the range are released (subsequent reads return
  // zeros), partial edge pages are zero-filled.
  void Punch(uint64_t offset, uint64_t length);

  // WriteAt and Punch that share pages through `share`, which is empty or
  // filled by the same op (same bytes and length) on another device. An
  // empty run records this device's pages; a filled one is adopted where
  // the header comment's rule allows, and elsewhere the op changes this
  // device's own page.
  void WriteAt(uint64_t offset, ByteSpan data, PageRun& share);
  void Punch(uint64_t offset, uint64_t length, PageRun& share);

  // Records this device's pages over [offset, +length) into `run`, which
  // must be empty, as a write of exactly their bytes (see the header
  // comment). Reads the same bytes ReadAt would.
  void Record(uint64_t offset, uint64_t length, PageRun& run);
  // A run recording a write of `length` zeros at `offset`: all holes.
  static PageRun ZeroRun(uint64_t offset, uint64_t length);
  // Writes the bytes `payload` records at `offset`. Where the payload sits
  // at the same in-page offset, its pages are adopted by the rule above;
  // elsewhere its bytes are copied.
  void WriteAt(uint64_t offset, const PageRun& payload);

  // Holders (devices and runs) of the page under `offset`; 0 for a hole.
  uint32_t PageRefs(uint64_t offset) const;

  // Process-wide arena gauges: pages held by anyone, and slabs allocated.
  static size_t ArenaLivePages();
  static size_t ArenaSlabs();

 private:
  // The page under `page_no`, made private to this device (copied if
  // shared) for a write of `take` bytes at `in_page`.
  Page* PrivatePage(uint64_t page_no, size_t in_page, size_t take);
  // The page under `page_no`; nullptr for a hole.
  Page* Find(uint64_t page_no) const;

  // Writes `take` bytes of `src` at `in_page` of page `page_no`, or punches
  // them when `src` is nullptr.
  void ApplyPage(uint64_t page_no, size_t in_page, size_t take,
                 const uint8_t* src);
  // Adopts `change.after` as page `page_no` where the header comment's rule
  // allows; elsewhere ApplyPage with `src`.
  void AdoptPage(uint64_t page_no, size_t in_page, size_t take,
                 const PageRun::Change& change, const uint8_t* src);
  // ApplyPage over [offset, offset + length), through `share` if given.
  void ApplyOp(uint64_t offset, uint64_t length, const uint8_t* src,
               PageRun* share);

  uint64_t capacity_;
  std::unordered_map<uint64_t, Page*> pages_;  // each entry holds a ref
};

}  // namespace vde::dev
