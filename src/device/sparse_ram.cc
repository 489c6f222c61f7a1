#include "device/sparse_ram.h"

#include <cassert>
#include <cstring>

namespace vde::dev {

SparseRam::Page* SparseRam::AllocPage() {
  if (!free_.empty()) {
    Page* page = free_.back();
    free_.pop_back();
    return page;
  }
  if (slab_used_ == kSlabPages) {
    // Default-initialised: the slab is not zeroed here.
    slabs_.emplace_back(new Page[kSlabPages]);
    slab_used_ = 0;
  }
  return &slabs_.back()[slab_used_++];
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

void SparseRam::WriteAt(uint64_t offset, ByteSpan data) {
  assert(offset + data.size() <= capacity_);
  size_t done = 0;
  while (done < data.size()) {
    const uint64_t pos = offset + done;
    const uint64_t page_no = pos / kPageSize;
    const size_t in_page = pos % kPageSize;
    const size_t take = std::min(data.size() - done, kPageSize - in_page);
    Page*& page = pages_[page_no];
    if (page == nullptr) {
      page = AllocPage();
      // Zero what the write does not cover: the memory may be recycled.
      std::memset(page->data, 0, in_page);
      std::memset(page->data + in_page + take, 0, kPageSize - in_page - take);
    }
    std::memcpy(page->data + in_page, data.data() + done, take);
    done += take;
  }
}

void SparseRam::Punch(uint64_t offset, uint64_t length) {
  assert(offset + length <= capacity_);
  uint64_t done = 0;
  while (done < length) {
    const uint64_t pos = offset + done;
    const uint64_t page_no = pos / kPageSize;
    const size_t in_page = pos % kPageSize;
    const size_t take = std::min<size_t>(length - done, kPageSize - in_page);
    const auto it = pages_.find(page_no);
    if (it != pages_.end()) {
      if (take == kPageSize) {
        free_.push_back(it->second);
        pages_.erase(it);
      } else {
        std::memset(it->second->data + in_page, 0, take);
      }
    }
    done += take;
  }
}

}  // namespace vde::dev
