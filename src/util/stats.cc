#include "util/stats.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdio>

namespace vde {

Histogram::Histogram() : buckets_(64 * kSub, 0) {}

size_t Histogram::BucketFor(uint64_t v) {
  if (v < kSub) return static_cast<size_t>(v);
  const int msb = 63 - std::countl_zero(v);
  // Sub-bucket index from the bits just below the MSB.
  const int shift = msb - 4;  // log2(kSub)
  const uint64_t sub = (v >> shift) & (kSub - 1);
  return static_cast<size_t>(msb - 3) * kSub + sub;
}

uint64_t Histogram::BucketLow(size_t b) {
  if (b < kSub) return b;
  const uint64_t order = b / kSub + 3;
  const uint64_t sub = b % kSub;
  return (uint64_t{1} << order) | (sub << (order - 4));
}

void Histogram::Add(uint64_t value) {
  buckets_[BucketFor(value)]++;
  count_++;
  sum_ += value;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

void Histogram::Merge(const Histogram& other) {
  assert(buckets_.size() == other.buckets_.size());
  for (size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void Histogram::Reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0;
  min_ = ~uint64_t{0};
  max_ = 0;
}

double Histogram::Mean() const {
  return count_ ? static_cast<double>(sum_) / static_cast<double>(count_) : 0;
}

double Histogram::Percentile(double p) const {
  if (count_ == 0) return 0;
  p = std::clamp(p, 0.0, 100.0);
  const double target = p / 100.0 * static_cast<double>(count_);
  uint64_t seen = 0;
  for (size_t b = 0; b < buckets_.size(); ++b) {
    if (buckets_[b] == 0) continue;
    if (static_cast<double>(seen + buckets_[b]) >= target) {
      // Interpolate inside the bucket.
      const uint64_t low = BucketLow(b);
      const uint64_t high =
          b + 1 < buckets_.size() ? BucketLow(b + 1) : max_ + 1;
      const double frac =
          buckets_[b] ? (target - static_cast<double>(seen)) /
                            static_cast<double>(buckets_[b])
                      : 0;
      double v = static_cast<double>(low) +
                 frac * static_cast<double>(high - low);
      return std::min(v, static_cast<double>(max_));
    }
    seen += buckets_[b];
  }
  return static_cast<double>(max_);
}

std::vector<double> Histogram::Quantiles(std::span<const double> ps) const {
  std::vector<double> out(ps.size(), 0);
  if (count_ == 0 || ps.empty()) return out;
  size_t next = 0;
  uint64_t seen = 0;
  for (size_t b = 0; b < buckets_.size() && next < ps.size(); ++b) {
    if (buckets_[b] == 0) continue;
    // Resolve every requested quantile that lands in this bucket.
    while (next < ps.size()) {
      const double p = std::clamp(ps[next], 0.0, 100.0);
      const double target = p / 100.0 * static_cast<double>(count_);
      if (static_cast<double>(seen + buckets_[b]) < target) break;
      const uint64_t low = BucketLow(b);
      const uint64_t high =
          b + 1 < buckets_.size() ? BucketLow(b + 1) : max_ + 1;
      const double frac = (target - static_cast<double>(seen)) /
                          static_cast<double>(buckets_[b]);
      double v = static_cast<double>(low) +
                 frac * static_cast<double>(high - low);
      out[next++] = std::min(v, static_cast<double>(max_));
    }
    seen += buckets_[b];
  }
  // Anything left maps to the max (target beyond the last populated bucket).
  for (; next < ps.size(); ++next) out[next] = static_cast<double>(max_);
  return out;
}

Histogram Histogram::DeltaSince(const Histogram& before) const {
  Histogram d;
  size_t lowb = buckets_.size();
  size_t highb = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    assert(buckets_[i] >= before.buckets_[i]);
    d.buckets_[i] = buckets_[i] - before.buckets_[i];
    if (d.buckets_[i] > 0) {
      lowb = std::min(lowb, i);
      highb = std::max(highb, i);
    }
  }
  d.count_ = count_ - before.count_;
  d.sum_ = sum_ - before.sum_;
  if (d.count_ > 0) {
    // Exact extrema of the window are gone; bound them by the populated
    // bucket range intersected with the lifetime extrema.
    d.min_ = std::max(min_, BucketLow(lowb));
    d.max_ = highb + 1 < buckets_.size()
                 ? std::min(max_, BucketLow(highb + 1) - 1)
                 : max_;
  }
  return d;
}

std::string Histogram::Summary() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "n=%llu mean=%.1f p50=%.0f p99=%.0f max=%llu",
                static_cast<unsigned long long>(count_), Mean(),
                Percentile(50), Percentile(99),
                static_cast<unsigned long long>(max()));
  return buf;
}

std::string Histogram::ToJson() const {
  static constexpr double kPs[] = {50, 90, 99, 99.9};
  std::vector<double> qs = Quantiles(kPs);
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "{\"count\":%llu,\"sum\":%llu,\"min\":%llu,\"max\":%llu,"
                "\"mean\":%.3f,\"p50\":%.3f,\"p90\":%.3f,\"p99\":%.3f,"
                "\"p999\":%.3f}",
                static_cast<unsigned long long>(count_),
                static_cast<unsigned long long>(sum_),
                static_cast<unsigned long long>(min()),
                static_cast<unsigned long long>(max_), Mean(), qs[0], qs[1],
                qs[2], qs[3]);
  return buf;
}

}  // namespace vde
