// The shared interval-map underpins both the object store's trimmed-extent
// maps and the allocator's punched pool: add/remove/covers semantics plus a
// randomized cross-check against a bit-vector model.
#include "util/interval_map.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace vde {
namespace {

TEST(IntervalMap, AddCoalescesAndReportsNewBytes) {
  IntervalMap m;
  EXPECT_EQ(IntervalMapAdd(m, 10, 10), 10u);
  EXPECT_EQ(IntervalMapAdd(m, 10, 10), 0u);   // idempotent
  EXPECT_EQ(IntervalMapAdd(m, 15, 10), 5u);   // overlap counts once
  EXPECT_EQ(IntervalMapAdd(m, 25, 5), 5u);    // adjacent merges
  ASSERT_EQ(m.size(), 1u);
  EXPECT_EQ(m.begin()->first, 10u);
  EXPECT_EQ(m.begin()->second, 20u);
  EXPECT_EQ(IntervalMapAdd(m, 0, 50), 30u);   // absorbs the whole range
  ASSERT_EQ(m.size(), 1u);
  EXPECT_EQ(m.begin()->second, 50u);
}

TEST(IntervalMap, RemoveSplitsAndReportsRemovedBytes) {
  IntervalMap m;
  IntervalMapAdd(m, 0, 100);
  EXPECT_EQ(IntervalMapRemove(m, 40, 20), 20u);
  ASSERT_EQ(m.size(), 2u);  // [0,40) and [60,100)
  EXPECT_TRUE(IntervalMapCovers(m, 0, 40));
  EXPECT_TRUE(IntervalMapCovers(m, 60, 40));
  EXPECT_FALSE(IntervalMapCovers(m, 30, 20));
  EXPECT_EQ(IntervalMapRemove(m, 40, 20), 0u);   // already gone
  EXPECT_EQ(IntervalMapRemove(m, 30, 40), 20u);  // clips both neighbors
  EXPECT_TRUE(IntervalMapCovers(m, 0, 30));
  EXPECT_TRUE(IntervalMapCovers(m, 70, 30));
}

TEST(IntervalMap, CoversIsSingleRangeOnly) {
  IntervalMap m;
  IntervalMapAdd(m, 0, 10);
  IntervalMapAdd(m, 20, 10);
  EXPECT_TRUE(IntervalMapCovers(m, 0, 10));
  EXPECT_TRUE(IntervalMapCovers(m, 22, 5));
  EXPECT_FALSE(IntervalMapCovers(m, 5, 20));  // straddles the gap
  EXPECT_FALSE(IntervalMapCovers(m, 10, 5));
}

TEST(IntervalMap, RandomizedAgainstBitVectorModel) {
  constexpr size_t kSpan = 512;
  IntervalMap m;
  std::vector<bool> model(kSpan, false);
  Rng rng(7);
  uint64_t total = 0;
  for (int step = 0; step < 4000; ++step) {
    const uint64_t off = rng.NextBelow(kSpan);
    const uint64_t len = 1 + rng.NextBelow(kSpan - off);
    uint64_t expect = 0;
    if (rng.NextBool(0.5)) {
      for (uint64_t i = off; i < off + len; ++i) {
        if (!model[i]) expect++;
        model[i] = true;
      }
      ASSERT_EQ(IntervalMapAdd(m, off, len), expect);
      total += expect;
    } else {
      for (uint64_t i = off; i < off + len; ++i) {
        if (model[i]) expect++;
        model[i] = false;
      }
      ASSERT_EQ(IntervalMapRemove(m, off, len), expect);
      total -= expect;
    }
    // Spot-check coverage and the invariant that ranges stay disjoint,
    // coalesced, and sum to the model's popcount.
    uint64_t map_total = 0;
    uint64_t prev_end = 0;
    bool first = true;
    for (const auto& [o, l] : m) {
      ASSERT_GT(l, 0u);
      if (!first) {
        ASSERT_GT(o, prev_end) << "ranges must stay coalesced";
      }
      prev_end = o + l;
      first = false;
      map_total += l;
    }
    ASSERT_EQ(map_total, total);
    const uint64_t probe = rng.NextBelow(kSpan);
    ASSERT_EQ(IntervalMapCovers(m, probe, 1),
              static_cast<bool>(model[probe]));
  }
}

// Thousands of short ranges over a wide span, as a compressed-block store
// keeps (one punched tail per block): the map spreads over many runs, so
// every update path that splits, drops or merges runs is exercised, and
// multi-range adds and removes cross run boundaries.
TEST(IntervalMap, ManyRangesAcrossRunsAgainstBitVectorModel) {
  constexpr size_t kSpan = 1 << 15;
  IntervalMap m;
  std::vector<bool> model(kSpan, false);
  Rng rng(11);
  uint64_t total = 0;
  for (int step = 0; step < 20000; ++step) {
    // Mostly short ranges; now and then a wide one that swallows or cuts
    // through hundreds of ranges at once.
    const uint64_t off = rng.NextBelow(kSpan);
    const uint64_t max_len = rng.NextBool(0.02) ? kSpan - off
                                                : std::min<uint64_t>(
                                                      8, kSpan - off);
    const uint64_t len = 1 + rng.NextBelow(max_len);
    const bool add = rng.NextBool(step < 10000 ? 0.7 : 0.4);
    uint64_t expect = 0;
    for (uint64_t i = off; i < off + len; ++i) {
      if (model[i] != add) expect++;
      model[i] = add;
    }
    if (add) {
      ASSERT_EQ(IntervalMapAdd(m, off, len), expect) << step;
      total += expect;
    } else {
      ASSERT_EQ(IntervalMapRemove(m, off, len), expect) << step;
      total -= expect;
    }
    if (step % 97 != 0) continue;
    // Full check: iteration yields exactly the model's maximal runs of set
    // bits, in order, and size() counts them.
    std::vector<std::pair<uint64_t, uint64_t>> want;
    for (uint64_t i = 0; i < kSpan; ++i) {
      if (!model[i]) continue;
      if (!want.empty() && want.back().first + want.back().second == i) {
        want.back().second++;
      } else {
        want.emplace_back(i, 1);
      }
    }
    std::vector<std::pair<uint64_t, uint64_t>> got(m.begin(), m.end());
    ASSERT_EQ(got, want) << step;
    ASSERT_EQ(m.size(), want.size());
    uint64_t map_total = 0;
    for (const auto& [o, l] : m) map_total += l;
    ASSERT_EQ(map_total, total);
    for (int probe = 0; probe < 16; ++probe) {
      const uint64_t at = rng.NextBelow(kSpan);
      const uint64_t n = rng.NextBelow(std::min<uint64_t>(16, kSpan - at));
      bool covered = n > 0 || (at > 0 && model[at - 1]) || model[at];
      for (uint64_t i = at; i < at + n; ++i) covered = covered && model[i];
      ASSERT_EQ(IntervalMapCovers(m, at, n), covered) << at << "+" << n;
    }
  }
}

}  // namespace
}  // namespace vde
