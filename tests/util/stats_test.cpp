#include "util/stats.h"

#include <gtest/gtest.h>

namespace vde {
namespace {

TEST(Histogram, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Mean(), 0);
  EXPECT_EQ(h.Percentile(50), 0);
}

TEST(Histogram, SingleValue) {
  Histogram h;
  h.Add(1000);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 1000u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_EQ(h.Mean(), 1000);
  EXPECT_NEAR(h.Percentile(50), 1000, 70);  // within bucket resolution
}

TEST(Histogram, MeanExact) {
  Histogram h;
  for (uint64_t v : {10, 20, 30}) h.Add(v);
  EXPECT_DOUBLE_EQ(h.Mean(), 20.0);
}

TEST(Histogram, PercentileMonotone) {
  Histogram h;
  for (uint64_t i = 1; i <= 10000; ++i) h.Add(i);
  double prev = 0;
  for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9}) {
    const double v = h.Percentile(p);
    EXPECT_GE(v, prev);
    prev = v;
  }
  // Uniform 1..10000: p50 within bucket error of 5000.
  EXPECT_NEAR(h.Percentile(50), 5000, 5000 * 0.07);
  EXPECT_NEAR(h.Percentile(99), 9900, 9900 * 0.07);
}

TEST(Histogram, MergeCombines) {
  Histogram a, b;
  a.Add(100);
  b.Add(300);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 100u);
  EXPECT_EQ(a.max(), 300u);
  EXPECT_DOUBLE_EQ(a.Mean(), 200.0);
}

TEST(Histogram, ResetClears) {
  Histogram h;
  h.Add(5);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(Histogram, LargeValues) {
  Histogram h;
  const uint64_t big = uint64_t{1} << 55;
  h.Add(big);
  h.Add(big + 1000);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_GE(h.Percentile(99), static_cast<double>(big) * 0.9);
}

TEST(Histogram, SummaryNonEmpty) {
  Histogram h;
  h.Add(42);
  EXPECT_NE(h.Summary().find("n=1"), std::string::npos);
}

TEST(Histogram, BucketBoundaries) {
  // Power-of-two values sit exactly on bucket edges; the histogram must
  // keep them ordered and never report a percentile outside [min, max].
  Histogram h;
  for (int i = 0; i < 20; ++i) h.Add(uint64_t{1} << i);
  EXPECT_EQ(h.count(), 20u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), uint64_t{1} << 19);
  for (double p : {0.0, 10.0, 50.0, 90.0, 100.0}) {
    const double v = h.Percentile(p);
    EXPECT_GE(v, 1.0);
    EXPECT_LE(v, static_cast<double>(uint64_t{1} << 19));
  }
  // Zero occupies its own bucket below everything else.
  Histogram z;
  z.Add(0);
  z.Add(1);
  EXPECT_EQ(z.min(), 0u);
  EXPECT_LE(z.Percentile(25), z.Percentile(75));
}

TEST(Histogram, QuantilesMatchPercentile) {
  Histogram h;
  for (uint64_t i = 1; i <= 5000; ++i) h.Add(i * 7);
  const double ps[] = {0, 1, 10, 25, 50, 75, 90, 99, 99.9, 100};
  const std::vector<double> qs = h.Quantiles(ps);
  ASSERT_EQ(qs.size(), std::size(ps));
  for (size_t i = 0; i < std::size(ps); ++i) {
    EXPECT_DOUBLE_EQ(qs[i], h.Percentile(ps[i])) << "p=" << ps[i];
  }
}

TEST(Histogram, QuantilesEmpty) {
  Histogram h;
  const double ps[] = {50, 99};
  const std::vector<double> qs = h.Quantiles(ps);
  ASSERT_EQ(qs.size(), 2u);
  EXPECT_EQ(qs[0], 0);
  EXPECT_EQ(qs[1], 0);
}

TEST(Histogram, MergeWithEmpty) {
  Histogram a, empty;
  a.Add(100);
  a.Add(200);
  a.Merge(empty);  // no-op
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 100u);
  EXPECT_EQ(a.max(), 200u);
  Histogram b;
  b.Merge(a);  // empty absorbs a fully
  EXPECT_EQ(b.count(), 2u);
  EXPECT_EQ(b.min(), 100u);
  EXPECT_EQ(b.max(), 200u);
  EXPECT_DOUBLE_EQ(b.Mean(), 150.0);
}

TEST(Histogram, MergeDisjointRanges) {
  // No overlapping buckets: counts add, min/max span both sources.
  Histogram low, high;
  for (uint64_t v = 10; v < 20; ++v) low.Add(v);
  for (uint64_t v = 1000000; v < 1000010; ++v) high.Add(v);
  low.Merge(high);
  EXPECT_EQ(low.count(), 20u);
  EXPECT_EQ(low.min(), 10u);
  EXPECT_EQ(low.max(), 1000009u);
  EXPECT_LT(low.Percentile(25), 1000.0);
  EXPECT_GT(low.Percentile(75), 100000.0);
}

TEST(Histogram, DeltaSinceSubtracts) {
  Histogram h;
  h.Add(100);
  h.Add(200);
  const Histogram before = h;
  h.Add(5000);
  h.Add(6000);
  const Histogram d = h.DeltaSince(before);
  EXPECT_EQ(d.count(), 2u);
  EXPECT_EQ(d.sum(), 11000u);
  // min/max are approximated from the populated bucket range, but must
  // bracket the delta's real samples.
  EXPECT_LE(d.min(), 5000u);
  EXPECT_GE(d.max(), 6000u);
  EXPECT_GT(d.min(), 200u);  // the pre-window buckets cancelled out
  // Delta against itself is empty.
  EXPECT_EQ(h.DeltaSince(h).count(), 0u);
}

TEST(Histogram, ToJsonWellFormed) {
  Histogram h;
  for (uint64_t i = 1; i <= 100; ++i) h.Add(i * 1000);
  const std::string j = h.ToJson();
  EXPECT_EQ(j.front(), '{');
  EXPECT_EQ(j.back(), '}');
  EXPECT_NE(j.find("\"count\":100"), std::string::npos);
  EXPECT_NE(j.find("\"min\":1000"), std::string::npos);
  EXPECT_NE(j.find("\"max\":100000"), std::string::npos);
  EXPECT_NE(j.find("\"p50\":"), std::string::npos);
  EXPECT_NE(j.find("\"p999\":"), std::string::npos);
  // Empty histogram still renders a valid object.
  Histogram e;
  EXPECT_NE(e.ToJson().find("\"count\":0"), std::string::npos);
}

}  // namespace
}  // namespace vde
