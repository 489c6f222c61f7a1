// The one harness every simulated-time bench runs on.
//
// It owns five things:
//   - argument parsing: `--quick`, plus `--figure=3a|3b|both` for the
//     Fig. 3 bench; any other argument prints usage and exits 2;
//   - a runner: every measured point gets a FRESH scheduler (and, through
//     RunOnCluster, a fresh cluster), so points never contaminate each
//     other, memory stays bounded and output is deterministic;
//   - the shared configs: the paper's testbed (§3.2), the small
//     single-copy cluster, the four compared specs and a test-grade image;
//   - the gate registry: one `gate <name>: PASS|FAIL (<acceptance>)` line
//     per gate, a final `gates: PASS|FAIL` line, bench-<name>.json in one
//     shape, and the verdict as the exit code;
//   - the one file writer.
//
// bench-<name>.json:
//   {"bench": <name>, "quick": bool, "pass": bool,
//    "gates": {<gate>: {"pass": bool, <measured values>...}, ...},
//    <attached extras, e.g. "fio">}
//
// A run that does not complete fails the bench in every bench, gated or
// report-only. Report-only benches register no gate: they print no
// verdict, write no JSON, and exit 0 unless a run failed.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/types.h"
#include "rados/cluster.h"
#include "rbd/image.h"
#include "sim/scheduler.h"
#include "workload/fio.h"

namespace vde::bench {

// ---- The file writer ----

inline bool WriteFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const size_t n = std::fwrite(content.data(), 1, content.size(), f);
  return std::fclose(f) == 0 && n == content.size();
}

inline const char* PassFail(bool pass) { return pass ? "PASS" : "FAIL"; }

// ---- JSON values ----

struct Field;
std::string JsonObject(const std::vector<Field>& fields);

// One key of a JSON object: a bool, an integer, a double (non-finite
// doubles become null) or a nested object.
struct Field {
  template <typename T>
    requires std::is_arithmetic_v<T>
  Field(std::string k, T value) : key(std::move(k)) {
    if constexpr (std::is_same_v<T, bool>) {
      json = value ? "true" : "false";
    } else if constexpr (std::is_integral_v<T>) {
      json = std::to_string(value);
    } else if (!std::isfinite(value)) {
      json = "null";
    } else {
      char buf[32];
      const auto end =
          std::to_chars(buf, buf + sizeof(buf), static_cast<double>(value));
      json.assign(buf, end.ptr);
    }
  }
  Field(std::string k, const std::vector<Field>& object);

  std::string key;
  std::string json;  // the rendered value
};

inline std::string JsonObject(const std::vector<Field>& fields) {
  std::string out = "{";
  for (const Field& f : fields) {
    if (out.size() > 1) out += ", ";
    out += "\"" + f.key + "\": " + f.json;
  }
  return out + "}";
}

inline Field::Field(std::string k, const std::vector<Field>& object)
    : key(std::move(k)), json(JsonObject(object)) {}

// ---- Arguments and the gate registry ----

class Bench {
 public:
  // `name` names bench-<name>.json. `figure_flag` additionally accepts
  // `--figure=3a|3b|both` (the Fig. 3 bench).
  Bench(std::string name, int argc, char** argv, bool figure_flag = false)
      : name_(std::move(name)) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--quick") {
        quick_ = true;
      } else if (figure_flag && (arg == "--figure=3a" ||
                                 arg == "--figure=3b" ||
                                 arg == "--figure=both")) {
        figure_ = arg.substr(std::string("--figure=").size());
      } else {
        std::fprintf(stderr, "unknown argument: %s\nusage: %s [--quick]%s\n",
                     argv[i], argv[0],
                     figure_flag ? " [--figure=3a|3b|both]" : "");
        std::exit(2);
      }
    }
  }

  // `--quick`: CI-sized op counts; never a relaxed gate.
  bool quick() const { return quick_; }
  // "3a", "3b" or "both".
  const std::string& figure() const { return figure_; }

  // Records one gate and prints its verdict line. `values` are the
  // measurements behind the verdict, kept in the gate's JSON object.
  void Gate(const std::string& gate, bool pass, const std::string& acceptance,
            std::vector<Field> values = {}) {
    std::printf("gate %s: %s (%s)\n", gate.c_str(), PassFail(pass),
                acceptance.c_str());
    std::fflush(stdout);
    values.insert(values.begin(), Field("pass", pass));
    gates_.emplace_back(gate, values);
    pass_ = pass_ && pass;
  }

  // A run that did not complete: names it on stderr and fails the bench.
  void Require(bool ran, const std::string& run) {
    if (ran) return;
    std::fprintf(stderr, "run failed: %s\n", run.c_str());
    pass_ = false;
  }

  // Adds a top-level key holding raw JSON to bench-<name>.json.
  void Attach(const std::string& key, const std::string& json) {
    extras_ += ", \"" + key + "\": " + json;
  }

  // Writes an extra artifact; a failed write fails the bench.
  void Artifact(const std::string& path, const std::string& content) {
    if (WriteFile(path, content)) return;
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    pass_ = false;
  }

  // Writes bench-<name>.json, prints the final verdict and returns the
  // exit code. Without gates (a report-only bench) it only returns 1 if a
  // run failed.
  int Finish() {
    if (gates_.empty()) return pass_ ? 0 : 1;
    Artifact("bench-" + name_ + ".json",
             "{\"bench\": \"" + name_ + "\", \"quick\": " +
                 (quick_ ? "true" : "false") +
                 ", \"pass\": " + (pass_ ? "true" : "false") +
                 ", \"gates\": " + JsonObject(gates_) + extras_ + "}\n");
    std::printf("gates: %s\n", PassFail(pass_));
    return pass_ ? 0 : 1;
  }

 private:
  std::string name_;
  bool quick_ = false;
  std::string figure_ = "both";
  bool pass_ = true;
  std::vector<Field> gates_;
  std::string extras_;  // ", <key>: <json>" per attached extra
};

// ---- The runner ----

struct RunResult {
  bool ok = false;          // the body ran to completion
  sim::SimTime clock = 0;   // final sim time, every event drained
  uint64_t events = 0;      // events the scheduler processed
};

// Runs `body` — a callable returning sim::Task<bool>, true when it ran to
// completion — on a fresh scheduler. `cores` > 0 turns on the N-core CPU
// model; 0 keeps the single-timeline scheduler.
template <typename Body>
RunResult Run(unsigned cores, Body&& body) {
  sim::Scheduler sched;
  if (cores > 0) sched.ConfigureCores(cores);
  RunResult out;
  sched.Spawn([](Body& b, bool* ok) -> sim::Task<void> {
    *ok = co_await b();
  }(body, &out.ok));
  out.clock = sched.Run();
  out.events = sched.events_processed();
  return out;
}

// Run() on a fresh cluster built from `config`; `body` takes the cluster,
// which lives until the body returns.
template <typename Body>
RunResult RunOnCluster(const rados::ClusterConfig& config, unsigned cores,
                       Body&& body) {
  return Run(cores, [&]() -> sim::Task<bool> {
    auto cluster = co_await rados::Cluster::Create(config);
    if (!cluster.ok()) co_return false;
    co_return co_await body(**cluster);
  });
}

// ---- Shared configs ----

// 3 nodes x 9 NVMe OSDs, 3x replication, 4 MiB objects, 4 KiB encryption
// sectors — the paper's defaults. Network and OSD costs are the
// ClusterConfig defaults (rados/cluster.h), hand-set model constants.
inline rados::ClusterConfig PaperCluster() {
  rados::ClusterConfig config;
  config.nodes = 3;
  config.osds_per_node = 9;
  config.replication = 3;
  config.pg_count = 128;
  return config;
}

// One node with 4 OSDs and a single copy: store transactions, device
// sectors and punched bytes map 1:1 to client operations.
inline rados::ClusterConfig SmallCluster() {
  rados::ClusterConfig config = PaperCluster();
  config.nodes = 1;
  config.osds_per_node = 4;
  config.replication = 1;
  config.pg_count = 32;
  return config;
}

// The four configurations of Fig. 3 / Fig. 4.
struct NamedSpec {
  const char* name;
  core::EncryptionSpec spec;
};

inline std::vector<NamedSpec> PaperSpecs() {
  core::EncryptionSpec luks;  // defaults: kXtsLba / no metadata
  core::EncryptionSpec unaligned{core::CipherMode::kXtsRandom,
                                 core::IvLayout::kUnaligned};
  core::EncryptionSpec object_end{core::CipherMode::kXtsRandom,
                                  core::IvLayout::kObjectEnd};
  core::EncryptionSpec omap{core::CipherMode::kXtsRandom,
                            core::IvLayout::kOmap};
  return {{"LUKS2", luks},
          {"Unaligned", unaligned},
          {"Object end", object_end},
          {"OMAP", omap}};
}

// Test-grade image options: cheap LUKS key slots (10 PBKDF2 iterations,
// 8 AF stripes) and a fixed IV seed, so every run is deterministic.
inline rbd::ImageOptions TestImage(const core::EncryptionSpec& spec,
                                   uint64_t size,
                                   uint64_t object_size = 4ull << 20) {
  rbd::ImageOptions options;
  options.size = size;
  options.object_size = object_size;
  options.enc = spec;
  options.enc.iv_seed = 1;
  options.luks.pbkdf2_iterations = 10;
  options.luks.af_stripes = 8;
  return options;
}

// ---- Paper-figure points (Fig. 3, Fig. 4, ablations) ----

// The paper sweeps 4 KiB .. 4 MiB.
inline std::vector<uint64_t> PaperIoSizes() {
  std::vector<uint64_t> sizes;
  for (uint64_t s = 4096; s <= (4ull << 20); s *= 2) sizes.push_back(s);
  return sizes;  // 4K..4M, 11 points
}

// Measured IOs per point: enough for a stable deterministic estimate while
// keeping wall-clock (real AES of every byte!) sane.
inline uint64_t OpsForSize(uint64_t io_size) {
  const uint64_t budget = 96ull << 20;  // bytes measured per point
  return std::max<uint64_t>(96, std::min<uint64_t>(2048, budget / io_size));
}

inline std::string HumanSize(uint64_t bytes) {
  char buf[32];
  if (bytes >= (1ull << 20)) {
    std::snprintf(buf, sizeof(buf), "%lluM",
                  static_cast<unsigned long long>(bytes >> 20));
  } else {
    std::snprintf(buf, sizeof(buf), "%lluK",
                  static_cast<unsigned long long>(bytes >> 10));
  }
  return buf;
}

// Relative bandwidth loss vs a baseline, in percent (0 without a baseline).
inline double OverheadPct(double base_mbps, double mbps) {
  return base_mbps > 0 ? (1.0 - mbps / base_mbps) * 100.0 : 0.0;
}

// One fio point at QD 32 on a 64 GiB image (as in the paper).
struct Point {
  core::EncryptionSpec spec = {};
  uint64_t io_size = 4096;
  bool is_write = true;
  rados::ClusterConfig cluster = PaperCluster();
  uint64_t ops = 0;  // 0: OpsForSize(io_size)
  uint64_t object_size = 4ull << 20;
  // Object names, and so placement, derive from the image name.
  const char* image = "bench";
};

struct PointResult {
  double mbps = 0;
  double iops = 0;
  double p50_us = 0;
  double p99_us = 0;
};

// Runs one point on a fresh cluster. Reads prefill the working set first so
// every block has valid ciphertext + IV. A failed run fails the bench.
inline PointResult RunPoint(Bench& bench, const Point& p) {
  PointResult point;
  const RunResult run = RunOnCluster(
      p.cluster, 0, [&](rados::Cluster& cluster) -> sim::Task<bool> {
        auto image = co_await rbd::Image::Create(
            cluster, p.image, "pw",
            TestImage(p.spec, 64ull << 30, p.object_size));
        if (!image.ok()) co_return false;
        workload::FioConfig fio;
        fio.is_write = p.is_write;
        fio.io_size = p.io_size;
        fio.queue_depth = 32;
        fio.total_ops = p.ops ? p.ops : OpsForSize(p.io_size);
        // Spread the working set across many objects (the paper uses a
        // full 64 GiB image): small-IO points must not serialize on a few
        // PGs.
        fio.working_set =
            std::max<uint64_t>(fio.total_ops * p.io_size, 768ull << 20);
        workload::FioRunner runner(**image, fio);
        if (!p.is_write) {
          if (!(co_await runner.Prefill()).ok()) co_return false;
          co_await cluster.Drain();
        }
        auto result = co_await runner.Run();
        if (!result.ok()) co_return false;
        point.mbps = result->BandwidthMBps();
        point.iops = result->Iops();
        point.p50_us = result->latency_ns.Percentile(50) / 1000.0;
        point.p99_us = result->latency_ns.Percentile(99) / 1000.0;
        co_await cluster.Drain();
        co_return true;
      });
  bench.Require(run.ok, "RunPoint " + p.spec.Name() + " io=" +
                            HumanSize(p.io_size) +
                            (p.is_write ? " write" : " read"));
  return point;
}

}  // namespace vde::bench
