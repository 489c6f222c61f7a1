// fio-like workload driver (§3.3): random or sequential read/write at a
// fixed IO size with a bounded number of in-flight IOs (the paper runs fio
// with 32 maximum parallel accesses), measuring bandwidth on the simulation
// clock — fully deterministic for a given seed.
//
// IO size and offsets need not be 4 KiB-aligned: sub-block and straddling
// IOs exercise the image's read-modify-write path (databases doing 512 B or
// 8 KiB+512 accesses). A discard percentage mixes TRIM into any pattern.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "rbd/image.h"
#include "util/rng.h"
#include "util/stats.h"

namespace vde::workload {

struct FioConfig {
  enum class Pattern { kRandom, kSequential };

  bool is_write = false;
  // Percent of non-discard ops issued as writes: one run can model a mixed
  // tenant (fio's rwmixwrite) instead of pure read / pure write. -1 derives
  // 0 or 100 from `is_write`, which stays as sugar for the pure cases.
  int32_t rw_mix_pct = -1;
  Pattern pattern = Pattern::kRandom;
  uint64_t io_size = 4096;       // any byte count >= 1 (sub-block IO RMWs)
  uint64_t offset_align = 0;     // offset grid; 0 = io_size (classic fio
                                 // slots), 512 models a sector-granular guest
  uint32_t discard_pct = 0;      // % of ops issued as Discard, any pattern
  size_t queue_depth = 32;       // concurrent IOs
  uint64_t total_ops = 256;      // measured IOs
  uint64_t warmup_ops = 0;       // untimed IOs before measuring
                                 // (0 = one full queue depth)
  uint64_t working_set = 0;      // byte span of the image touched
                                 // (0 = total_ops * io_size, capped to image)
  uint64_t seed = 1;
  // Percent of each written 4 KiB block filled with a repeating run (the
  // rest stays seed-random): models guest data compressibility for the
  // compress-before-encrypt stage. A codec-enabled image stores roughly
  // (100 - compressibility_pct)% of each block. 0 keeps the classic pure-
  // random fill byte-identical. Verify mode composes: the content model is
  // deterministic per (seed, block) either way.
  uint32_t compressibility_pct = 0;
  bool verify = false;           // reads check content written by Prefill.
                                 // Valid at any queue depth: the image
                                 // applies overlapping IO in submission
                                 // order, matching the issue-time state
                                 // model.

  // Effective write percentage for non-discard ops (0..100).
  uint32_t WritePct() const {
    return rw_mix_pct < 0 ? (is_write ? 100u : 0u)
                          : static_cast<uint32_t>(rw_mix_pct);
  }

  // Rejects configurations that would divide by zero or loop forever
  // (io_size/queue_depth of 0, a working set smaller than one IO,
  // percentages beyond 100). FioRunner refuses to run an invalid config.
  Status Validate() const;

  // Database-style 512 B stream (§3.1's worst case for length-preserving
  // encryption plus metadata): sector-granular sequential writes at
  // moderate depth — the workload the write-back layer coalesces into one
  // RMW read + one transaction per block instead of one per write.
  static FioConfig Db() {
    FioConfig c;
    c.is_write = true;
    c.pattern = Pattern::kSequential;
    c.io_size = 512;
    c.offset_align = 512;
    c.queue_depth = 8;
    c.total_ops = 2048;
    return c;
  }
};

struct FioResult {
  uint64_t ops = 0;
  uint64_t read_ops = 0;   // measured ops issued as reads
  uint64_t write_ops = 0;  // measured ops issued as writes
  uint64_t discards = 0;   // subset of ops issued as Discard
  uint64_t bytes = 0;
  sim::SimTime duration = 0;
  Histogram latency_ns;
  // Metrics-registry delta over the measured window (Metrics::DeltaSince
  // of the snapshots taken when the first measured op is issued and after
  // the run): image, qos, obs stage histograms, cluster store/device and
  // sim core counters count only that window; gauges (cluster space,
  // qos_peak_queue) hold their end-of-run value.
  obs::Metrics metrics;

  double BandwidthMBps() const {
    return duration == 0
               ? 0
               : static_cast<double>(bytes) * 1e3 / static_cast<double>(duration);
  }
  double Iops() const {
    return duration == 0
               ? 0
               : static_cast<double>(ops) * 1e9 / static_cast<double>(duration);
  }
  // One-line human-readable digest: throughput plus p50/p99/max latency
  // from the (warmup-excluded) histogram, the read/write split, and one
  // bracketed segment per active layer (wb, iv, trim, compress, qos, meta,
  // store, cores, stages_us), each rendered from `metrics`.
  std::string Summary() const;

  // Machine-readable result: throughput, latency percentiles, and the
  // metrics delta (which carries the codec, core and stage breakdowns).
  std::string ToJson() const;
};

class FioRunner {
 public:
  FioRunner(rbd::Image& image, FioConfig config);

  // Writes the whole working set once (sequential, large chunks) so random
  // reads hit valid ciphertext + IVs. Content is seed-derived per block so
  // verify-mode reads can check it.
  sim::Task<Status> Prefill();

  sim::Task<Result<FioResult>> Run();

  // Asks a running workload to wind down: workers finish their in-flight
  // op and exit, and Run() reports the ops measured so far. Lets a
  // background noisy neighbor run exactly as long as the tenants under
  // measurement (MultiFioRunner uses this).
  void RequestStop() { stop_ = true; }

  uint64_t working_set() const { return working_set_; }
  // Effective config after constructor adjustments.
  const FioConfig& config() const { return config_; }

 private:
  // Per-4 KiB-block content model for verify mode. kZeroPartial is a
  // trimmed block later overwritten in one contiguous sub-range [lo, hi):
  // bytes inside it are seed content, bytes outside it MUST still read
  // zero — asserting, at any queue depth, that trimmed data stays dead
  // (no resurrection through the RMW merge or a stale write-back stage).
  // Disjoint partial writes over a trimmed block degrade to kUnknown
  // (verification skipped for that block only).
  enum class BlockState : uint8_t { kContent, kZero, kZeroPartial, kUnknown };
  struct BlockExpect {
    BlockState state = BlockState::kContent;
    uint32_t lo = 0, hi = 0;  // kZeroPartial: the written sub-range
  };

  sim::Task<void> Worker(size_t worker_id, FioResult* result, Status* status);
  uint64_t NextOffset();
  // Deterministic content for the block at `offset` (verify mode).
  void FillBlock(uint64_t offset, MutByteSpan out) const;
  // Seed-derived expected bytes for an arbitrary range (slices FillBlock).
  void ExpectedRange(uint64_t offset, MutByteSpan out) const;
  // Per-block expected state for [offset, offset+length), captured at
  // issue time: the image applies overlapping IO in submission order, so
  // a read returns the state as of ITS issue — mutations issued later
  // (but completing earlier) must not shift the expectation.
  std::vector<BlockExpect> StateSnapshot(uint64_t offset,
                                         uint64_t length) const;
  Status VerifyRead(uint64_t offset, ByteSpan got,
                    const std::vector<BlockExpect>& expected) const;
  void MarkWrite(uint64_t offset, uint64_t length);
  void MarkDiscard(uint64_t offset, uint64_t length);

  rbd::Image& image_;
  FioConfig config_;
  Status valid_;  // Validate() verdict on the original config
  uint64_t working_set_;
  uint64_t align_;
  uint64_t slots_;
  Rng rng_;
  std::vector<BlockExpect> block_state_;  // verify mode only
  uint64_t issued_ = 0;
  uint64_t seq_cursor_ = 0;
  bool measuring_ = false;
  bool stop_ = false;
  uint64_t measured_done_ = 0;
  sim::SimTime measure_start_ = 0;
  sim::SimTime measure_end_ = 0;
  obs::Metrics window_open_;  // registry snapshot at window open
};

// One tenant of a multi-image run: a name for reporting, the image to
// drive (typically opened against a shared qos::Scheduler), and its own
// workload shape. Background tenants — noisy neighbors — are stopped once
// every foreground tenant reaches its op quota, so the measured tenants
// see contention for their entire run; their partial results are still
// reported.
struct FioTenant {
  std::string name;
  rbd::Image* image = nullptr;
  FioConfig fio;
  bool background = false;
};

struct FioTenantResult {
  std::string name;
  FioResult result;
};

// Drives N tenants concurrently against one simulated cluster — the
// multi-tenant host scenario the QoS scheduler exists for — and reports
// per-tenant results.
class MultiFioRunner {
 public:
  explicit MultiFioRunner(std::vector<FioTenant> tenants);

  // Prefills every tenant's working set, one tenant at a time (run this
  // before the measured phase so prefill IO is not throttled into it).
  sim::Task<Status> Prefill();

  // Runs every tenant concurrently; resolves once all finished. Results
  // are in tenant order. Fails if any tenant fails or if every tenant is
  // background (nothing would bound the run).
  sim::Task<Result<std::vector<FioTenantResult>>> Run();

  FioRunner& runner(size_t i) { return *runners_[i]; }

 private:
  std::vector<FioTenant> tenants_;
  std::vector<std::unique_ptr<FioRunner>> runners_;
};

}  // namespace vde::workload
