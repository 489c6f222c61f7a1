#include "device/sparse_ram.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <memory>
#include <utility>

#include "util/asan.h"

namespace vde::dev {

// The refcount sits after the data, so page data keeps the slab's 64 B
// alignment (a count in front of it would misalign every page copy).
struct alignas(64) SparseRam::Page {
  uint8_t data[kPageSize];
  uint32_t refs;
};

namespace {

using Page = SparseRam::Page;

// Process-wide page pool (the simulation is single-threaded). Pages come
// from 256-page slabs, released pages are reused first, and the slabs are
// freed once no page is live, so a new simulation starts from fresh memory.
class PageArena {
 public:
  // A page with one reference; its data is not zeroed.
  Page* Alloc() {
    Page* page;
    if (!free_.empty()) {
      page = free_.back();
      free_.pop_back();
      UnpoisonMemory(page->data, kPageSize);
    } else {
      if (slab_used_ == kSlabPages) {
        // Default-initialised: the slab is not zeroed here.
        slabs_.emplace_back(new Page[kSlabPages]);
        slab_used_ = 0;
      }
      page = &slabs_.back()[slab_used_++];
    }
    page->refs = 1;
    ++live_;
    return page;
  }

  static Page* Ref(Page* page) {
    ++page->refs;
    return page;
  }

  void Unref(Page* page) {
    assert(page->refs > 0);
    if (--page->refs > 0) return;
    if (--live_ == 0) {
      for (auto& slab : slabs_) {
        UnpoisonMemory(slab.get(), kSlabPages * sizeof(Page));
      }
      slabs_.clear();
      free_.clear();
      slab_used_ = kSlabPages;
      return;
    }
    PoisonMemory(page->data, kPageSize);
    free_.push_back(page);
  }

  size_t live() const { return live_; }
  size_t slabs() const { return slabs_.size(); }

 private:
  static constexpr size_t kPageSize = SparseRam::kPageSize;
  static constexpr size_t kSlabPages = 256;

  std::vector<std::unique_ptr<Page[]>> slabs_;
  size_t slab_used_ = kSlabPages;  // pages handed out of slabs_.back()
  std::vector<Page*> free_;        // released pages, poisoned
  size_t live_ = 0;                // pages with at least one reference
};

// Never destroyed: a device torn down during static destruction still
// finds it.
PageArena& Arena() {
  static PageArena* const arena = new PageArena;
  return *arena;
}

}  // namespace

SparseRam::PageRun::~PageRun() {
  for (const Change& change : pages_) {
    if (change.before != nullptr) Arena().Unref(change.before);
    if (change.after != nullptr) Arena().Unref(change.after);
  }
}

SparseRam::PageRun::PageRun(const PageRun& other)
    : in_page_(other.in_page_), length_(other.length_), pages_(other.pages_) {
  for (const Change& change : pages_) {
    if (change.before != nullptr) PageArena::Ref(change.before);
    if (change.after != nullptr) PageArena::Ref(change.after);
  }
}

SparseRam::PageRun& SparseRam::PageRun::operator=(PageRun other) noexcept {
  std::swap(in_page_, other.in_page_);
  std::swap(length_, other.length_);
  pages_.swap(other.pages_);
  return *this;
}

void SparseRam::PageRun::Read(uint64_t pos, MutByteSpan out) const {
  assert(pos + out.size() <= length_);
  size_t done = 0;
  while (done < out.size()) {
    const uint64_t at = in_page_ + pos + done;
    const Page* const page = pages_[at / kPageSize].after;
    const size_t in_page = at % kPageSize;
    const size_t take = std::min(out.size() - done, kPageSize - in_page);
    if (page == nullptr) {
      std::memset(out.data() + done, 0, take);
    } else {
      std::memcpy(out.data() + done, page->data + in_page, take);
    }
    done += take;
  }
}

SparseRam::~SparseRam() {
  for (const auto& [page_no, page] : pages_) Arena().Unref(page);
}

size_t SparseRam::ArenaLivePages() { return Arena().live(); }
size_t SparseRam::ArenaSlabs() { return Arena().slabs(); }

uint32_t SparseRam::PageRefs(uint64_t offset) const {
  const auto it = pages_.find(offset / kPageSize);
  return it == pages_.end() ? 0 : it->second->refs;
}

void SparseRam::ReadAt(uint64_t offset, MutByteSpan out) const {
  assert(offset + out.size() <= capacity_);
  size_t done = 0;
  while (done < out.size()) {
    const uint64_t pos = offset + done;
    const uint64_t page_no = pos / kPageSize;
    const size_t in_page = pos % kPageSize;
    const size_t take = std::min(out.size() - done, kPageSize - in_page);
    const auto it = pages_.find(page_no);
    if (it == pages_.end()) {
      std::memset(out.data() + done, 0, take);
    } else {
      std::memcpy(out.data() + done, it->second->data + in_page, take);
    }
    done += take;
  }
}

SparseRam::Page* SparseRam::Find(uint64_t page_no) const {
  const auto it = pages_.find(page_no);
  return it == pages_.end() ? nullptr : it->second;
}

SparseRam::Page* SparseRam::PrivatePage(uint64_t page_no, size_t in_page,
                                        size_t take) {
  Page*& page = pages_[page_no];
  if (page != nullptr && page->refs == 1) return page;
  Page* const shared = page;
  page = Arena().Alloc();
  if (shared == nullptr) {
    // Zero what the write does not cover: the memory may be recycled.
    std::memset(page->data, 0, in_page);
    std::memset(page->data + in_page + take, 0, kPageSize - in_page - take);
  } else {
    // Copy on write; a full-page write needs none of the old bytes.
    if (take != kPageSize) std::memcpy(page->data, shared->data, kPageSize);
    Arena().Unref(shared);
  }
  return page;
}

void SparseRam::ApplyPage(uint64_t page_no, size_t in_page, size_t take,
                          const uint8_t* src) {
  if (src != nullptr) {
    std::memcpy(PrivatePage(page_no, in_page, take)->data + in_page, src,
                take);
    return;
  }
  const auto it = pages_.find(page_no);
  if (it == pages_.end()) return;
  if (take == kPageSize) {
    Arena().Unref(it->second);
    pages_.erase(it);
  } else {
    std::memset(PrivatePage(page_no, in_page, take)->data + in_page, 0, take);
  }
}

void SparseRam::AdoptPage(uint64_t page_no, size_t in_page, size_t take,
                          const PageRun::Change& change, const uint8_t* src) {
  const auto it = pages_.find(page_no);
  Page* const own = it == pages_.end() ? nullptr : it->second;
  if (take != kPageSize && own != change.before) {
    ApplyPage(page_no, in_page, take, src);
  } else if (change.after != nullptr) {
    PageArena::Ref(change.after);
    if (own != nullptr) Arena().Unref(own);
    pages_[page_no] = change.after;
  } else if (own != nullptr) {
    Arena().Unref(own);
    pages_.erase(it);
  }
}

void SparseRam::ApplyOp(uint64_t offset, uint64_t length, const uint8_t* src,
                        PageRun* share) {
  assert(offset + length <= capacity_);
  const bool record = share != nullptr && share->empty();
  const bool adopt = share != nullptr && !record &&
                     share->in_page_ == offset % kPageSize &&
                     share->length_ == length;
  if (record) {
    share->in_page_ = offset % kPageSize;
    share->length_ = length;
    share->pages_.reserve((share->in_page_ + length + kPageSize - 1) /
                          kPageSize);
  }
  uint64_t done = 0;
  for (size_t i = 0; done < length; ++i) {
    const uint64_t pos = offset + done;
    const uint64_t page_no = pos / kPageSize;
    const size_t in_page = pos % kPageSize;
    const size_t take = std::min<uint64_t>(length - done, kPageSize - in_page);
    const uint8_t* page_src = src == nullptr ? nullptr : src + done;
    done += take;
    const bool whole = take == kPageSize;
    if (adopt) {
      AdoptPage(page_no, in_page, take, share->pages_[i], page_src);
    } else if (record) {
      // The run's reference on the before page makes ApplyPage copy it.
      Page* const before = whole ? nullptr : Find(page_no);
      if (before != nullptr) PageArena::Ref(before);
      ApplyPage(page_no, in_page, take, page_src);
      Page* const after = Find(page_no);
      if (after != nullptr) PageArena::Ref(after);
      share->pages_.push_back({before, after});
    } else {
      ApplyPage(page_no, in_page, take, page_src);
    }
  }
}

void SparseRam::WriteAt(uint64_t offset, ByteSpan data) {
  ApplyOp(offset, data.size(), data.data(), nullptr);
}

void SparseRam::WriteAt(uint64_t offset, ByteSpan data, PageRun& share) {
  ApplyOp(offset, data.size(), data.data(), &share);
}

void SparseRam::Record(uint64_t offset, uint64_t length, PageRun& run) {
  assert(run.empty() && offset + length <= capacity_);
  run.in_page_ = offset % kPageSize;
  run.length_ = length;
  run.pages_.reserve((run.in_page_ + length + kPageSize - 1) / kPageSize);
  for (uint64_t done = 0; done < length;) {
    const uint64_t pos = offset + done;
    const size_t take =
        std::min<uint64_t>(length - done, kPageSize - pos % kPageSize);
    done += take;
    Page* const page = Find(pos / kPageSize);
    Page* const before = take == kPageSize ? nullptr : page;
    if (page != nullptr) PageArena::Ref(page);
    if (before != nullptr) PageArena::Ref(before);
    run.pages_.push_back({before, page});
  }
}

SparseRam::PageRun SparseRam::ZeroRun(uint64_t offset, uint64_t length) {
  PageRun run;
  run.in_page_ = offset % kPageSize;
  run.length_ = length;
  run.pages_.resize((run.in_page_ + length + kPageSize - 1) / kPageSize,
                    {nullptr, nullptr});
  return run;
}

void SparseRam::WriteAt(uint64_t offset, const PageRun& payload) {
  const uint64_t length = payload.length_;
  assert(offset + length <= capacity_);
  const bool aligned = payload.in_page_ == offset % kPageSize;
  uint8_t copy[kPageSize];
  uint64_t done = 0;
  for (size_t i = 0; done < length; ++i) {
    const uint64_t pos = offset + done;
    const uint64_t page_no = pos / kPageSize;
    const size_t in_page = pos % kPageSize;
    const size_t take = std::min<uint64_t>(length - done, kPageSize - in_page);
    if (aligned) {
      const PageRun::Change& change = payload.pages_[i];
      const uint8_t* const src =
          change.after == nullptr ? nullptr : change.after->data + in_page;
      AdoptPage(page_no, in_page, take, change, src);
    } else {
      payload.Read(done, MutByteSpan(copy, take));
      ApplyPage(page_no, in_page, take, copy);
    }
    done += take;
  }
}

void SparseRam::Punch(uint64_t offset, uint64_t length) {
  ApplyOp(offset, length, nullptr, nullptr);
}

void SparseRam::Punch(uint64_t offset, uint64_t length, PageRun& share) {
  ApplyOp(offset, length, nullptr, &share);
}

}  // namespace vde::dev
