// Disjoint, coalesced half-open byte ranges, iterated in offset order as
// (offset, length) pairs. Shared by the object store's trimmed-extent maps
// and the extent allocator's punched pool, so the subtle prev-straddle /
// split-on-erase logic lives exactly once.
//
// The ranges sit in sorted runs of at most 64 pairs each, one vector per
// run: a lookup is a binary search over the runs' last pairs, then one
// inside a run, and an update that touches one or two ranges moves at most
// one run's pairs (plus a split or merge now and then). Nothing is
// allocated per range; a compressed-block store keeps about one punched
// range per 4 KiB block, thousands per map.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

namespace vde {

class IntervalMap {
 public:
  using Interval = std::pair<uint64_t, uint64_t>;  // (offset, length)

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Interval;
    using difference_type = std::ptrdiff_t;
    using pointer = const Interval*;
    using reference = const Interval&;

    const_iterator() = default;
    reference operator*() const { return (*runs_)[run_][item_]; }
    pointer operator->() const { return &**this; }
    const_iterator& operator++() {
      if (++item_ == (*runs_)[run_].size()) {
        ++run_;
        item_ = 0;
      }
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++*this;
      return old;
    }
    bool operator==(const const_iterator&) const = default;

   private:
    friend class IntervalMap;
    const_iterator(const std::vector<std::vector<Interval>>* runs, size_t run,
                   size_t item)
        : runs_(runs), run_(run), item_(item) {}

    const std::vector<std::vector<Interval>>* runs_ = nullptr;
    size_t run_ = 0;
    size_t item_ = 0;
  };

  const_iterator begin() const { return {&runs_, 0, 0}; }
  const_iterator end() const { return {&runs_, runs_.size(), 0}; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  void clear() {
    runs_.clear();
    size_ = 0;
  }

  // Inserts [off, off+len), merging with overlapping and adjacent ranges.
  // Returns how many bytes were NOT already present (the newly covered
  // capacity) — callers keeping a byte total add the return value.
  friend uint64_t IntervalMapAdd(IntervalMap& map, uint64_t off, uint64_t len);

  // Removes [off, off+len), splitting ranges that straddle a boundary.
  // Returns how many bytes were actually removed.
  friend uint64_t IntervalMapRemove(IntervalMap& map, uint64_t off,
                                    uint64_t len);

  // Whether [off, off+len) lies fully inside one range.
  friend bool IntervalMapCovers(const IntervalMap& map, uint64_t off,
                                uint64_t len);

 private:
  struct Pos {
    size_t run;
    size_t item;
  };

  // The first range whose end is >= key (`touching`) or > key. Range ends
  // increase strictly across the map, so binary searches find it.
  Pos FirstEndingAfter(uint64_t key, bool touching) const;
  const Interval& At(Pos p) const { return runs_[p.run][p.item]; }
  void Advance(Pos& p) const;
  // Replaces the `count` ranges from `p` on with `with[0, n)` (n <= 2),
  // which must sort where the replaced ranges were.
  void Splice(Pos p, size_t count, const Interval* with, size_t n);
  // Splits run `r` when it outgrew the cap, drops it when empty, and
  // merges it into a neighbour when it shrank below a quarter of the cap.
  void Rebalance(size_t r);

  std::vector<std::vector<Interval>> runs_;  // sorted, none empty
  size_t size_ = 0;
};

// Namespace-scope declarations of the friends above, so qualified calls
// (vde::IntervalMapAdd) find them too.
uint64_t IntervalMapAdd(IntervalMap& map, uint64_t off, uint64_t len);
uint64_t IntervalMapRemove(IntervalMap& map, uint64_t off, uint64_t len);
bool IntervalMapCovers(const IntervalMap& map, uint64_t off, uint64_t len);

}  // namespace vde
