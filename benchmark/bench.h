// vdebench: the repository benchmark. Four closed-loop guest workloads run
// through the public rbd::Image API on the paper's testbed; each run
// reports end-to-end metrics with tracing off, and a separate traced run
// reports per-layer metrics (obs-plane stage partition, registry counter
// deltas, and host time per call at each layer's public entry point).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/types.h"
#include "device/nvme.h"
#include "obs/metrics.h"
#include "rados/cluster.h"
#include "rbd/image.h"
#include "sim/sync.h"
#include "util/rng.h"

namespace vde::bench {

// One guest workload. Every workload is a closed loop: one simulated guest
// with `qd` workers, each issuing its next op when the previous completes.
struct Workload {
  std::string name;
  core::EncryptionSpec enc;  // iv_seed is set per run from --seed
  uint64_t io_size = 4096;   // offsets are io_size-aligned
  uint32_t write_pct = 100;  // share of non-discard ops that write
  uint32_t discard_pct = 0;  // share of ops that discard one 4 KiB block
  size_t qd = 32;
  uint64_t working_set = 128ull << 20;
  uint64_t ops = 0;            // measured ops
  uint64_t warmup = 1000;      // ops issued before the window opens
  unsigned cores = 0;          // sim CPU model; 0 = legacy timeline
  size_t iv_cache_objects = 0; // 0 = IV cache off
  bool meta_store = false;     // MetaStore on its own NvmeDevice
  uint32_t compressible_pct = 0;  // LZ-compressible share of the content
  size_t qos_depth = 0;           // client qos::Scheduler depth cap; 0 = off
  bool mclock = false;            // cluster mClock, image a reserved tenant
  bool kill_osd = false;          // OSD 0 down after ops/4 completions
  uint64_t readback_blocks = 0;   // untimed verified read-back after the run
  bool close = false;             // Image::Close after the run
};

const std::vector<Workload>& Workloads();
const Workload* FindWorkload(const std::string& name);
// The reduced shape of `w` used by --quick: an eighth of the working set
// and cache, a twentieth of the ops.
Workload Quick(const Workload& w);

// One reported number. Ratios carry their numerator and denominator.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  bool ratio = false;
  double num = 0;
  double den = 0;
};

Metric Value(std::string name, double value, std::string unit);
// num / den, or 0 when den is 0 (a layer idle on this workload).
Metric Ratio(std::string name, double num, double den,
             std::string unit = "ratio");

// In-memory spans around the benchmark's own calls into each layer (host
// and sim clocks), written out as Chrome-trace JSON when the run ends.
class SpanLog {
 public:
  SpanLog();
  int Begin(const std::string& name, int parent = -1);
  void End(int id);
  std::string ChromeJson() const;

 private:
  struct Span {
    std::string name;
    int parent;
    uint64_t host_start_ns, host_end_ns;
    uint64_t sim_start_ns, sim_end_ns;
  };
  uint64_t HostNs() const;
  std::vector<Span> spans_;
  uint64_t origin_ns_;
};

// Scoped span; a null log records nothing.
class SpanScope {
 public:
  SpanScope(SpanLog* log, const std::string& name, int parent = -1)
      : log_(log), id_(log != nullptr ? log->Begin(name, parent) : -1) {}
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() {
    if (log_ != nullptr) log_->End(id_);
  }
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

double Median(std::vector<double> v);

// Process CPU time in nanoseconds (CLOCK_PROCESS_CPUTIME_ID).
uint64_t CpuNs();

// Process CPU time, in µs, of a short fixed loop of integer mixing that
// runs no program code.
double RefLoopUs();
// About what the loop takes on the host the benchmark was defined on (an
// Intel Xeon, 4 vCPUs, when quiet). Host times are reported at that speed.
inline constexpr double kRefLoopUs = 300;

// The process CPU of a span of work, with the reference loop run at
// intervals inside it. A host that is slower, or busier with other
// tenants, slows the loop and the work alike, so scaling the work's own
// CPU by kRefLoopUs over the loop's mean time cancels much of it.
struct HostSpan {
  uint64_t start_ns = CpuNs();
  double ref_us = 0;
  int samples = 0;

  void Sample() {
    ref_us += RefLoopUs();
    ++samples;
  }
  // CPU of the span so far, without the loop.
  double OwnUs() const {
    return static_cast<double>(CpuNs() - start_ns) / 1e3 - ref_us;
  }
  double RefMeanUs() {
    if (samples == 0) Sample();
    return ref_us / samples;
  }
};

inline uint64_t SplitMix(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}
// Host wall time in nanoseconds (steady clock).
uint64_t WallNs();

// The objects one run sets up. They live outside every workload coroutine
// and are destroyed only after Scheduler::Run() returns, so a guest op that
// fails early never tears the cluster down under in-flight transfers.
struct Rig {
  std::unique_ptr<dev::NvmeDevice> meta_device;
  std::unique_ptr<rados::Cluster> cluster;
  std::shared_ptr<rbd::Image> image;
  Status status;  // first set-up failure, if any
};

// What the closed loop measured (loadgen.cc).
struct Window {
  obs::Metrics open, close, end;  // registry snapshots
  uint64_t open_ns = 0, close_ns = 0;        // sim clock
  uint64_t open_events = 0, close_events = 0;
  uint64_t kill_ns = 0, clean_ns = 0;        // randrw-4k-osd-loss only
  std::vector<uint64_t> lat_ns;              // per measured op, sim clock
  uint64_t live_bytes_at_close = 0;          // non-discarded guest bytes
  uint64_t window_cpu_ns = 0;
  std::vector<double> chunk_cpu_us_per_op;   // window chunks, then extras
  std::vector<double> chunk_ref_us;          // mean RefLoopUs() per chunk
  uint64_t attempted = 0, failed = 0, mismatched = 0;
  uint64_t stream_hash = 0;  // FNV over (kind, offset) of every issued op
};

struct RunConfig {
  uint64_t seed = 1;
  bool traced = false;      // obs plane on, per-layer metrics, probes
  bool quick = false;
  int setups = 3;           // set-up rounds; setup_s is their median
  double min_seconds = 0;   // extend the closed loop until this much CPU
  std::string trace_prefix; // traced runs write <prefix>.*.json; "" = none
};

// What one child run reports back to the parent.
struct RunOutput {
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  uint64_t window_close_ns = 0;   // sim clock when the window closed
  uint64_t window_events = 0;     // events processed by then
  uint64_t events_in_window = 0;
  uint64_t window_cpu_ns = 0;
  uint64_t stream_hash = 0;
  uint64_t attempted = 0, failed = 0, mismatched = 0;
  std::vector<std::string> errors;  // failed correctness checks
};

// Runs one workload in this process (run.cc).
RunOutput RunWorkload(const Workload& w, const RunConfig& config);

inline constexpr uint64_t kSector = 512;

// Guest content of 512-B `sector` at `version`: a seeded pseudo-random
// stream whose leading `compressible_pct` percent is one repeated byte.
void FillSector(uint64_t seed, uint32_t compressible_pct, uint64_t sector,
                uint32_t version, uint8_t* out);

// Closed-loop load generator (loadgen.cc). A per-sector version model,
// snapshotted at issue time, verifies every read: the image applies
// overlapping IO in submission order, so the snapshot is the expectation.
// Failed and mismatched ops are counted and the loop carries on.
class LoadGen {
 public:
  LoadGen(rbd::Image& image, const Workload& w, uint64_t seed);

  // Writes the whole working set (version 1) before anything is timed,
  // sampling the reference loop into `span` after every MiB.
  sim::Task<Status> Prefill(HostSpan* span);

  // Warm-up, then the measured window of w.ops ops. When the window used
  // less than `min_cpu_seconds` of process CPU, the loop goes on in extra
  // chunks (host samples only) until it has. With w.kill_osd, once a
  // quarter of the window has completed the loop drains, OSD 0 is marked
  // down, recovery runs to clean, and the loop resumes.
  sim::Task<void> Run(double min_cpu_seconds, Window* win, SpanLog* spans);

  // Untimed verified reads of `blocks` blocks written during the run.
  sim::Task<void> ReadBack(uint64_t blocks, Window* win);

 private:
  enum class Kind : uint8_t { kRead, kWrite, kDiscard };
  static constexpr uint32_t kZero = 0;            // discarded: reads zeros
  static constexpr uint32_t kUnknown = ~0u;       // after a failed mutation

  sim::Task<void> Worker();
  sim::Task<void> ReadBackWorker(std::vector<uint64_t>* blocks, size_t* next);
  // Issues one op, checks it, and counts it in the window.
  sim::Task<void> Issue(Kind kind, uint64_t offset, uint64_t length,
                        Bytes& buf);
  void Fill(uint64_t offset, MutByteSpan out) const;
  void Mark(uint64_t offset, uint64_t length, uint32_t version);
  bool Verify(uint64_t offset, ByteSpan got,
              const std::vector<uint32_t>& expect) const;
  void OpenWindow();
  void OnComplete(bool measured, uint64_t lat_ns);
  void CountInChunk();
  void EndChunk();
  void MaybeExtend();
  bool Continue() const {
    return !closed_ || extra_done_ < extra_target_;
  }

  rbd::Image& image_;
  const Workload w_;
  const uint64_t seed_;
  Rng rng_;
  std::vector<uint32_t> version_;  // per sector of the working set
  uint32_t next_version_ = 2;
  uint64_t live_sectors_ = 0;
  std::vector<uint64_t> written_blocks_;

  Window* win_ = nullptr;
  double min_cpu_seconds_ = 0;
  uint64_t chunk_ops_ = 1;
  uint64_t issued_ = 0;
  uint64_t measured_done_ = 0;
  uint64_t extra_done_ = 0, extra_target_ = 0;
  bool open_ = false, closed_ = false;
  SpanLog* spans_ = nullptr;
  // randrw-4k-osd-loss: the loop pauses, drains, and loses OSD 0.
  bool pause_ = false;
  size_t inflight_ = 0;
  sim::Gate resume_;
  uint64_t open_cpu_ = 0, chunk_done_ = 0;
  HostSpan chunk_;
};

// Host-time probes at qd 1 on fresh probe objects (probes.cc). Each probe
// checks its output once before it is timed.
sim::Task<void> RunProbes(Rig& rig, const Workload& w, uint64_t seed,
                          SpanLog* spans, std::vector<Metric>* out,
                          std::vector<std::string>* errors);

}  // namespace vde::bench
