#include "util/interval_map.h"

#include <algorithm>

namespace vde {
namespace {

constexpr size_t kMaxRun = 64;
constexpr size_t kMinRun = kMaxRun / 4;

uint64_t End(const IntervalMap::Interval& r) { return r.first + r.second; }

}  // namespace

IntervalMap::Pos IntervalMap::FirstEndingAfter(uint64_t key,
                                               bool touching) const {
  auto before = [key, touching](const Interval& r) {
    return touching ? End(r) < key : End(r) <= key;
  };
  const auto run = std::partition_point(
      runs_.begin(), runs_.end(),
      [&](const std::vector<Interval>& v) { return before(v.back()); });
  if (run == runs_.end()) return {runs_.size(), 0};
  const auto item = std::partition_point(run->begin(), run->end(), before);
  return {static_cast<size_t>(run - runs_.begin()),
          static_cast<size_t>(item - run->begin())};
}

void IntervalMap::Advance(Pos& p) const {
  if (++p.item == runs_[p.run].size()) {
    ++p.run;
    p.item = 0;
  }
}

void IntervalMap::Splice(Pos p, size_t count, const Interval* with,
                         size_t n) {
  if (runs_.empty()) runs_.emplace_back();  // grows with a small map
  if (p.run == runs_.size()) p = {runs_.size() - 1, runs_.back().size()};
  std::vector<Interval>& run = runs_[p.run];
  // The replaced ranges: the tail of p's run, then whole runs, then the
  // head of one more run.
  const size_t here = std::min(count, run.size() - p.item);
  run.erase(run.begin() + static_cast<long>(p.item),
            run.begin() + static_cast<long>(p.item + here));
  size_t left = count - here;
  const size_t next = p.run + 1;
  size_t whole = 0;
  while (left > 0 && left >= runs_[next + whole].size()) {
    left -= runs_[next + whole].size();
    ++whole;
  }
  runs_.erase(runs_.begin() + static_cast<long>(next),
              runs_.begin() + static_cast<long>(next + whole));
  if (left > 0) {
    runs_[next].erase(runs_[next].begin(),
                      runs_[next].begin() + static_cast<long>(left));
    Rebalance(next);
  }
  run.insert(run.begin() + static_cast<long>(p.item), with, with + n);
  size_ = size_ - count + n;
  Rebalance(p.run);
}

void IntervalMap::Rebalance(size_t r) {
  std::vector<Interval>& run = runs_[r];
  const auto at = runs_.begin() + static_cast<long>(r);
  if (run.size() > kMaxRun) {
    // The new run gets room for a full run up front (the most a Splice
    // leaves before the next split), so it never reallocates.
    std::vector<Interval> upper;
    upper.reserve(kMaxRun + 1);
    upper.assign(run.begin() + kMaxRun / 2, run.end());
    run.resize(kMaxRun / 2);
    runs_.insert(at + 1, std::move(upper));
  } else if (run.empty()) {
    runs_.erase(at);
  } else if (run.size() < kMinRun) {
    // Merge into whichever neighbour leaves room for a few more inserts.
    if (r + 1 < runs_.size() &&
        run.size() + runs_[r + 1].size() <= kMaxRun * 3 / 4) {
      run.insert(run.end(), runs_[r + 1].begin(), runs_[r + 1].end());
      runs_.erase(at + 1);
    } else if (r > 0 && runs_[r - 1].size() + run.size() <= kMaxRun * 3 / 4) {
      runs_[r - 1].insert(runs_[r - 1].end(), run.begin(), run.end());
      runs_.erase(at);
    }
  }
}

uint64_t IntervalMapAdd(IntervalMap& map, uint64_t off, uint64_t len) {
  if (len == 0) return 0;
  const uint64_t orig_hi = off + len;
  uint64_t lo = off, hi = orig_hi;
  uint64_t already = 0;
  // Every range from the first one touching `off` up to the last one
  // starting at or before the (growing) merged end folds into one.
  const IntervalMap::Pos first = map.FirstEndingAfter(lo, /*touching=*/true);
  IntervalMap::Pos p = first;
  size_t count = 0;
  while (p.run < map.runs_.size() && map.At(p).first <= hi) {
    const IntervalMap::Interval& r = map.At(p);
    const uint64_t olo = std::max(r.first, off);
    const uint64_t ohi = std::min(End(r), orig_hi);
    if (ohi > olo) already += ohi - olo;
    lo = std::min(lo, r.first);
    hi = std::max(hi, End(r));
    ++count;
    map.Advance(p);
  }
  const IntervalMap::Interval merged{lo, hi - lo};
  map.Splice(first, count, &merged, 1);
  return len - already;
}

uint64_t IntervalMapRemove(IntervalMap& map, uint64_t off, uint64_t len) {
  if (len == 0) return 0;
  const uint64_t lo = off, hi = off + len;
  uint64_t removed = 0;
  IntervalMap::Interval keep[2];
  size_t kept = 0;
  const IntervalMap::Pos first = map.FirstEndingAfter(lo, /*touching=*/false);
  IntervalMap::Pos p = first;
  size_t count = 0;
  while (p.run < map.runs_.size() && map.At(p).first < hi) {
    const IntervalMap::Interval& r = map.At(p);
    // Only the first range can stick out below `lo`, only the last above.
    if (r.first < lo) keep[kept++] = {r.first, lo - r.first};
    if (hi < End(r)) keep[kept++] = {hi, End(r) - hi};
    removed += std::min(End(r), hi) - std::max(r.first, lo);
    ++count;
    map.Advance(p);
  }
  if (count > 0) map.Splice(first, count, keep, kept);
  return removed;
}

bool IntervalMapCovers(const IntervalMap& map, uint64_t off, uint64_t len) {
  // The first range ending at or after `off` is the only one that can
  // start at or before it.
  const IntervalMap::Pos p = map.FirstEndingAfter(off, /*touching=*/true);
  if (p.run == map.runs_.size()) return false;
  const IntervalMap::Interval& r = map.At(p);
  return r.first <= off && off + len <= End(r);
}

}  // namespace vde
