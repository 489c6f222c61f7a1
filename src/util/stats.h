// Latency / throughput statistics used by the workload driver and benches.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace vde {

// Fixed-resolution log-bucketed histogram of non-negative samples
// (typically nanoseconds). Percentile queries interpolate within buckets.
class Histogram {
 public:
  Histogram();

  void Add(uint64_t value);
  void Merge(const Histogram& other);
  void Reset();

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t min() const { return count_ ? min_ : 0; }
  uint64_t max() const { return max_; }
  double Mean() const;
  // p in [0, 100].
  double Percentile(double p) const;

  // Batch percentile query: one bucket walk for all of `ps`, which must be
  // sorted ascending (each in [0, 100]). Matches Percentile() exactly.
  std::vector<double> Quantiles(std::span<const double> ps) const;

  // Samples recorded here but not in `before` (bucket-wise subtraction);
  // `before` must be an earlier snapshot of this histogram. min/max of the
  // delta are approximated from the populated bucket range.
  Histogram DeltaSince(const Histogram& before) const;

  std::string Summary() const;

  // {"count":..,"sum":..,"min":..,"max":..,"mean":..,"p50":..,...}
  std::string ToJson() const;

 private:
  // Buckets: 64 orders of magnitude (bit width), 16 sub-buckets each.
  static constexpr int kSub = 16;
  static size_t BucketFor(uint64_t v);
  static uint64_t BucketLow(size_t b);

  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = ~uint64_t{0};
  uint64_t max_ = 0;
};

}  // namespace vde
