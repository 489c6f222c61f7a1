// Latency / throughput statistics used by the workload driver and benches,
// and the counter lists every layer's stats struct is declared from.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

// Counters declared once. A stats struct lists its entries in one X-macro
// in its own header, C(name) for a counter and G(name) for a gauge (a
// level that can fall), one entry per line, each with a /* */ comment
// saying what it holds where the name does not:
//
//   #define VDE_FOO_STATS(C, G) C(reads) G(peak_queue) /* high-water */
//
// VDE_STATS(Foo, VDE_FOO_STATS) inside `struct Foo` expands that list into
// one zeroed uint64_t field per entry, into ExportTo(sink, prefix), which
// registers each entry as sink.Counter or sink.Gauge under prefix + its
// field name, and into a field-by-field +=. So a registry name is the
// field name: adding a counter is one list entry. Any type with those two
// members is a sink (obs::Metrics is the one in use), so a stats header
// needs no obs include.
#define VDE_STATS_FIELD(name) uint64_t name = 0;
#define VDE_STATS_COUNTER(name) sink.Counter(prefix + #name, name);
#define VDE_STATS_GAUGE(name) \
  sink.Gauge(prefix + #name, static_cast<double>(name));
#define VDE_STATS_ADD(name) name += other.name;
#define VDE_STATS(Type, LIST)                                       \
  LIST(VDE_STATS_FIELD, VDE_STATS_FIELD)                            \
  template <typename Sink>                                          \
  void ExportTo(Sink& sink, const std::string& prefix = "") const { \
    LIST(VDE_STATS_COUNTER, VDE_STATS_GAUGE)                        \
  }                                                                 \
  Type& operator+=(const Type& other) {                             \
    LIST(VDE_STATS_ADD, VDE_STATS_ADD)                              \
    return *this;                                                   \
  }

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
