// fio-like CLI over the simulated cluster — run your own sweeps:
//
//   $ ./examples/fio_sim --rw=randwrite --bs=64k --layout=object-end
//                        --ops=512 --qd=32
//
// Layouts: none (LUKS2 baseline), unaligned, object-end, omap.
// Extras:  --integrity=hmac, --cipher=gcm|wide, --verify (reads).
// Unaligned guests: any --bs (512, 6144, ...) runs through the image's
// RMW path; --align=512 puts offsets on a sector grid instead of the
// io_size grid; --discard=PCT mixes TRIM into the stream; --rwmix=PCT
// models a mixed tenant (PCT percent of ops are writes).
// QoS: --qos-iops=N / --qos-bw=BYTES_PER_SEC / --qos-depth=N attach the
// image to a client-side qos::Scheduler (the tenant admission engine)
// with those ceilings.
// IV cache: --iv-cache keeps random-IV metadata rows resident client-side
// (reads of cached extents go data-only); --iv-cache-objects=N bounds the
// LRU-by-object capacity.
// Discard pipeline: TRIMs are tracked (store capacity is really
// reclaimed) and authenticated under --integrity=hmac / --cipher=gcm.
// Metadata plane: --meta-store backs the image with a persistent local
// plane (durable IV rows + discard bitmaps on a dedicated device; implies
// --iv-cache); --reopen then closes the image after the run, reopens it
// against the SAME plane device, and reruns the reads — the second
// summary shows the warm start (meta[...] counters, ~zero metadata
// fetched from the object store). Requires an authenticating format
// (--integrity=hmac or --cipher=gcm).
// Pipelined data plane: --cores=N turns on the sim's N-core CPU model;
// --stripe-unit=SIZE / --stripe-count=N stripe the guest's linear space
// across objects RBD-style, fanning sequential streams over cores.
// Compression: --compress runs every written block through the in-tree LZ
// codec before encryption (a metadata-free layout auto-upgrades to
// xts-random/object-end — the compressed length needs a per-block record)
// and sets the object store's allocator to 512 B units so the tail trims
// of short ciphertexts reclaim real capacity; --compressibility=PCT makes
// the workload's written blocks PCT-percent compressible (default 0:
// incompressible random fill); --min-gain=PCT overrides the minimum space
// gain a block must achieve to be stored compressed (implies --compress).
// Scale-out cluster: --osds=N (total, spread over --nodes=N nodes),
// --replication=N, --pg-count=N size the data plane; --kill-osd-at=MS
// marks OSD 0 down that many milliseconds into the measured run (writes
// keep committing degraded; pair with --replication>=2 and --verify to
// check no data is lost), then waits for background recovery to finish
// and prints its counters. --tenant-qos[=R:W:L] turns on mClock ordering
// in every OSD's admission engine and tags the image's ops with tenant 1
// (reservation R IOPS, weight W, limit L IOPS; bare flag = weight-only
// defaults).
// Observability: --obs enables request tracing + the per-stage latency
// breakdown; --json=PATH writes the machine-readable result (throughput,
// percentiles and the metrics delta over the measured window, stage
// histograms included); --trace=PATH writes a Chrome
// trace_event JSON (load via chrome://tracing or Perfetto); --slow-ops=N
// prints the N slowest ops with their stage breakdowns. The last three
// imply --obs. All of it reads the sim clock only — enabling it does not
// change any reported timing.
// Output: the summary line renders one segment per active layer (wb, iv,
// trim, compress, qos, meta, store, cores, stages_us) from the run's
// metrics delta; cluster flags add cluster, recovery and mclock lines.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>

#include "device/nvme.h"
#include "obs/metrics.h"
#include "qos/scheduler.h"
#include "rados/cluster.h"
#include "rbd/image.h"
#include "sim/scheduler.h"
#include "workload/fio.h"

using namespace vde;

namespace {

struct Args {
  bool is_write = false;
  bool sequential = false;
  uint64_t bs = 4096;
  uint64_t align = 0;
  uint32_t discard_pct = 0;
  int32_t rw_mix_pct = -1;
  uint64_t ops = 256;
  size_t qd = 32;
  bool verify = false;
  uint64_t qos_iops = 0;
  uint64_t qos_bw = 0;
  size_t qos_depth = 0;
  bool iv_cache = false;
  size_t iv_cache_objects = 64;
  bool meta_store = false;
  bool reopen = false;
  unsigned cores = 0;          // 0 = core model off (legacy timeline)
  uint64_t stripe_unit = 0;    // 0 = object_size (no striping)
  uint64_t stripe_count = 0;   // 0 = 1
  bool obs = false;
  bool compress = false;
  uint32_t compressibility = 0;  // % of each written block that compresses
  uint32_t min_gain = 0;         // 0 = the spec default
  std::string json_path;
  std::string trace_path;
  size_t slow_ops = 0;
  size_t osds = 0;          // 0 = cluster default (nodes * 9)
  size_t nodes = 0;         // 0 = cluster default (3)
  size_t replication = 0;   // 0 = cluster default (3)
  uint32_t pg_count = 0;    // 0 = cluster default
  uint64_t kill_osd_at_ms = 0;  // 0 = no failure injection
  bool tenant_qos = false;
  rados::TenantSpec tenant{/*id=*/1, /*reservation_iops=*/0, /*weight=*/1.0,
                           /*limit_iops=*/0};
  core::EncryptionSpec spec;

  bool UseQos() const { return qos_iops > 0 || qos_bw > 0 || qos_depth > 0; }
};

uint64_t ParseSize(const std::string& v) {
  char unit = v.empty() ? '\0' : v.back();
  uint64_t mult = 1;
  std::string digits = v;
  if (unit == 'k' || unit == 'K') {
    mult = 1024;
    digits.pop_back();
  } else if (unit == 'm' || unit == 'M') {
    mult = 1 << 20;
    digits.pop_back();
  }
  return std::stoull(digits) * mult;
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const size_t n = std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  return n == content.size();
}

bool Parse(int argc, char** argv, Args& args) {
  args.spec.mode = core::CipherMode::kXtsLba;  // baseline by default
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      return std::strncmp(arg.c_str(), prefix, std::strlen(prefix)) == 0
                 ? arg.c_str() + std::strlen(prefix)
                 : nullptr;
    };
    if (const char* v = value("--rw=")) {
      args.is_write = std::strstr(v, "write") != nullptr;
      args.sequential = std::strncmp(v, "rand", 4) != 0;
    } else if (const char* v = value("--bs=")) {
      args.bs = ParseSize(v);
      if (args.bs == 0) {
        std::fprintf(stderr, "--bs must be at least 1 byte\n");
        return false;
      }
    } else if (const char* v = value("--align=")) {
      args.align = ParseSize(v);
    } else if (const char* v = value("--discard=")) {
      char* end = nullptr;
      const unsigned long pct = std::strtoul(v, &end, 10);
      if (end == v || *end != '\0' || pct > 100) {
        std::fprintf(stderr, "--discard must be a percentage in 0..100\n");
        return false;
      }
      args.discard_pct = static_cast<uint32_t>(pct);
    } else if (const char* v = value("--rwmix=")) {
      char* end = nullptr;
      const unsigned long pct = std::strtoul(v, &end, 10);
      if (end == v || *end != '\0' || pct > 100) {
        std::fprintf(stderr, "--rwmix must be a percentage in 0..100\n");
        return false;
      }
      args.rw_mix_pct = static_cast<int32_t>(pct);
    } else if (const char* v = value("--qos-iops=")) {
      args.qos_iops = std::stoull(v);
    } else if (const char* v = value("--qos-bw=")) {
      args.qos_bw = ParseSize(v);
    } else if (const char* v = value("--qos-depth=")) {
      args.qos_depth = std::stoul(v);
    } else if (arg == "--iv-cache") {
      args.iv_cache = true;
    } else if (const char* v = value("--iv-cache-objects=")) {
      args.iv_cache = true;
      args.iv_cache_objects = std::stoul(v);
    } else if (arg == "--meta-store") {
      args.meta_store = true;
    } else if (arg == "--reopen") {
      args.meta_store = true;
      args.reopen = true;
    } else if (const char* v = value("--cores=")) {
      args.cores = static_cast<unsigned>(std::stoul(v));
    } else if (const char* v = value("--stripe-unit=")) {
      args.stripe_unit = ParseSize(v);
    } else if (const char* v = value("--stripe-count=")) {
      args.stripe_count = std::stoull(v);
    } else if (arg == "--obs") {
      args.obs = true;
    } else if (arg == "--compress") {
      args.compress = true;
    } else if (const char* v = value("--compressibility=")) {
      char* end = nullptr;
      const unsigned long pct = std::strtoul(v, &end, 10);
      if (end == v || *end != '\0' || pct > 100) {
        std::fprintf(stderr,
                     "--compressibility must be a percentage in 0..100\n");
        return false;
      }
      args.compressibility = static_cast<uint32_t>(pct);
    } else if (const char* v = value("--min-gain=")) {
      char* end = nullptr;
      const unsigned long pct = std::strtoul(v, &end, 10);
      if (end == v || *end != '\0' || pct == 0 || pct >= 100) {
        std::fprintf(stderr, "--min-gain must be a percentage in 1..99\n");
        return false;
      }
      args.compress = true;
      args.min_gain = static_cast<uint32_t>(pct);
    } else if (const char* v = value("--json=")) {
      args.json_path = v;
      args.obs = true;
    } else if (arg == "--json" && i + 1 < argc) {
      args.json_path = argv[++i];
      args.obs = true;
    } else if (const char* v = value("--trace=")) {
      args.trace_path = v;
      args.obs = true;
    } else if (arg == "--trace" && i + 1 < argc) {
      args.trace_path = argv[++i];
      args.obs = true;
    } else if (const char* v = value("--slow-ops=")) {
      args.slow_ops = std::stoul(v);
      args.obs = true;
    } else if (arg == "--slow-ops" && i + 1 < argc) {
      args.slow_ops = std::stoul(argv[++i]);
      args.obs = true;
    } else if (const char* v = value("--osds=")) {
      args.osds = std::stoul(v);
    } else if (const char* v = value("--nodes=")) {
      args.nodes = std::stoul(v);
    } else if (const char* v = value("--replication=")) {
      args.replication = std::stoul(v);
    } else if (const char* v = value("--pg-count=")) {
      args.pg_count = static_cast<uint32_t>(std::stoul(v));
    } else if (const char* v = value("--kill-osd-at=")) {
      args.kill_osd_at_ms = std::stoull(v);
      if (args.kill_osd_at_ms == 0) {
        std::fprintf(stderr, "--kill-osd-at must be a positive ms offset\n");
        return false;
      }
    } else if (arg == "--tenant-qos") {
      args.tenant_qos = true;
    } else if (const char* v = value("--tenant-qos=")) {
      args.tenant_qos = true;
      double r = 0, w = 1, l = 0;
      if (std::sscanf(v, "%lf:%lf:%lf", &r, &w, &l) != 3 || w <= 0) {
        std::fprintf(stderr, "--tenant-qos wants R:W:L (weight > 0)\n");
        return false;
      }
      args.tenant.reservation_iops = r;
      args.tenant.weight = w;
      args.tenant.limit_iops = l;
    } else if (const char* v = value("--ops=")) {
      args.ops = std::stoull(v);
    } else if (const char* v = value("--qd=")) {
      args.qd = std::stoul(v);
    } else if (const char* v = value("--layout=")) {
      if (std::strcmp(v, "none") == 0) {
        args.spec.mode = core::CipherMode::kXtsLba;
        args.spec.layout = core::IvLayout::kNone;
      } else if (std::strcmp(v, "unaligned") == 0) {
        args.spec.mode = core::CipherMode::kXtsRandom;
        args.spec.layout = core::IvLayout::kUnaligned;
      } else if (std::strcmp(v, "object-end") == 0) {
        args.spec.mode = core::CipherMode::kXtsRandom;
        args.spec.layout = core::IvLayout::kObjectEnd;
      } else if (std::strcmp(v, "omap") == 0) {
        args.spec.mode = core::CipherMode::kXtsRandom;
        args.spec.layout = core::IvLayout::kOmap;
      } else {
        std::fprintf(stderr, "unknown layout '%s'\n", v);
        return false;
      }
    } else if (const char* v = value("--cipher=")) {
      if (std::strcmp(v, "gcm") == 0) {
        args.spec.mode = core::CipherMode::kGcmRandom;
        if (args.spec.layout == core::IvLayout::kNone) {
          args.spec.layout = core::IvLayout::kObjectEnd;
        }
      } else if (std::strcmp(v, "wide") == 0) {
        args.spec.mode = core::CipherMode::kWideLba;
        args.spec.layout = core::IvLayout::kNone;
      }
    } else if (const char* v = value("--integrity=")) {
      if (std::strcmp(v, "hmac") == 0) {
        args.spec.integrity = core::Integrity::kHmac;
      }
    } else if (arg == "--verify") {
      args.verify = true;
    } else if (arg == "--help") {
      return false;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      return false;
    }
  }
  return true;
}

// The objects a run sets up. They live in main, outside the Run coroutine,
// and are destroyed only after Scheduler::Run() returns: a run that ends
// early (a failed guest op, or a --kill-osd-at timer still pending after
// the last op) must not free the cluster under in-flight NIC transfers,
// recovery workers or timers. Members are destroyed images first, then the
// cluster, then the metadata device the images use.
struct Rig {
  // Local device backing the persistent metadata plane; reopening the
  // image against the SAME device is what makes the warm start possible.
  dev::NvmeDevice meta_dev;
  std::unique_ptr<rados::Cluster> cluster;
  std::shared_ptr<rbd::Image> image;
  std::shared_ptr<rbd::Image> reopened;
};

// Ends a line with " label=value" for each registry path (a counter or a
// gauge; 0 when the path is absent).
void PrintPaths(const obs::Metrics& m,
                std::initializer_list<std::pair<const char*, const char*>>
                    fields) {
  for (const auto& [label, path] : fields) {
    const uint64_t* counter = m.FindCounter(path);
    const double* gauge = m.FindGauge(path);
    std::printf(" %s=%.0f", label,
                counter != nullptr ? static_cast<double>(*counter)
                : gauge != nullptr ? *gauge
                                   : 0.0);
  }
  std::printf("\n");
}

// Failure injection: marks `osd` down `at` ns after spawn (during the
// measured run); recovery is kicked by MarkOsdDown itself.
sim::Task<void> KillOsdAfter(rados::Cluster& cluster, sim::SimTime at,
                             size_t osd) {
  co_await sim::Sleep{at};
  std::printf("  [%.1f ms] marking osd.%zu down\n",
              static_cast<double>(sim::Scheduler::Current().now()) / 1e6,
              osd);
  cluster.MarkOsdDown(osd);
}

sim::Task<void> Run(Args args, Rig* rig, bool* ok) {
  rados::ClusterConfig cluster_config;
  if (args.nodes > 0) cluster_config.nodes = args.nodes;
  if (args.osds > 0) {
    if (args.osds % cluster_config.nodes != 0) {
      std::printf("--osds must be a multiple of --nodes (%zu)\n",
                  cluster_config.nodes);
      co_return;
    }
    cluster_config.osds_per_node = args.osds / cluster_config.nodes;
  }
  if (args.replication > 0) {
    if (args.replication > cluster_config.nodes) {
      std::printf("--replication cannot exceed --nodes (%zu)\n",
                  cluster_config.nodes);
      co_return;
    }
    cluster_config.replication = args.replication;
  }
  if (args.pg_count > 0) cluster_config.pg_count = args.pg_count;
  if (args.kill_osd_at_ms > 0 && cluster_config.replication < 2) {
    std::printf("--kill-osd-at needs --replication>=2 to survive\n");
    co_return;
  }
  if (args.tenant_qos) cluster_config.qos.enabled = true;
  if (args.compress) {
    // Sub-block tail trims of short ciphertexts only release capacity at a
    // finer allocator granularity than the 4 KiB device sector.
    cluster_config.store.alloc_unit = 512;
    // The codec needs a per-block metadata record to carry the compressed
    // length; upgrade the metadata-free default to the paper's layout.
    if (args.spec.layout == core::IvLayout::kNone &&
        args.spec.mode != core::CipherMode::kGcmRandom) {
      args.spec.mode = core::CipherMode::kXtsRandom;
      args.spec.layout = core::IvLayout::kObjectEnd;
    }
    args.spec.compression.codec = core::Compression::kLz;
    if (args.min_gain > 0) args.spec.compression.min_gain_pct = args.min_gain;
  }
  auto cluster = co_await rados::Cluster::Create(cluster_config);
  if (!cluster.ok()) co_return;
  rig->cluster = std::move(*cluster);
  rbd::ImageOptions options;
  options.size = 64ull << 30;
  options.stripe_unit = args.stripe_unit;
  options.stripe_count = args.stripe_count;
  options.enc = args.spec;
  options.enc.iv_seed = 1;
  options.luks.pbkdf2_iterations = 10;
  options.luks.af_stripes = 8;
  if (args.UseQos()) {
    options.qos_scheduler = std::make_shared<qos::Scheduler>();
    options.qos.enabled = true;
    options.qos.max_iops = args.qos_iops;
    options.qos.max_bps = args.qos_bw;
    options.qos.max_queue_depth = args.qos_depth;
  }
  // The plane persists whatever the IV cache holds, so it implies the
  // cache.
  options.iv_cache.enabled = args.iv_cache || args.meta_store;
  options.iv_cache.max_objects = args.iv_cache_objects;
  if (args.meta_store) {
    options.meta_store.enabled = true;
    options.meta_store.device = &rig->meta_dev;
  }
  options.obs.enabled = args.obs;
  if (args.slow_ops > 0) {
    options.obs.slow_ops = std::max(options.obs.slow_ops, args.slow_ops);
  }
  if (args.tenant_qos) options.tenant = args.tenant;
  auto image =
      co_await rbd::Image::Create(*rig->cluster, "fio", "pw", options);
  if (!image.ok()) {
    std::printf("create failed: %s\n", image.status().ToString().c_str());
    co_return;
  }
  rig->image = std::move(*image);

  workload::FioConfig fio;
  fio.is_write = args.is_write;
  fio.rw_mix_pct = args.rw_mix_pct;
  fio.pattern = args.sequential ? workload::FioConfig::Pattern::kSequential
                                : workload::FioConfig::Pattern::kRandom;
  fio.io_size = args.bs;
  fio.offset_align = args.align;
  fio.discard_pct = args.discard_pct;
  fio.queue_depth = args.qd;
  fio.total_ops = args.ops;
  fio.working_set = std::max<uint64_t>(args.ops * args.bs, 512ull << 20);
  fio.compressibility_pct = args.compressibility;
  fio.verify = args.verify;
  if (Status s = fio.Validate(); !s.ok()) {
    std::printf("invalid config: %s\n", s.ToString().c_str());
    co_return;
  }
  workload::FioRunner runner(*rig->image, fio);

  // Any run that issues reads (pure read or rwmix) needs valid
  // ciphertext + IVs underneath — and verify mode assumes the content
  // model that Prefill lays down.
  // --reopen reruns the stream as reads after the warm restart, so the
  // whole working set must hold valid ciphertext up front.
  const bool needs_prefill = fio.WritePct() < 100 || args.reopen;
  if (needs_prefill) {
    std::printf("prefilling %llu MiB...\n",
                static_cast<unsigned long long>(runner.working_set() >> 20));
    if (Status s = co_await runner.Prefill(); !s.ok()) {
      std::printf("prefill failed: %s\n", s.ToString().c_str());
      co_return;
    }
    co_await rig->cluster->Drain();
  }

  if (args.kill_osd_at_ms > 0) {
    sim::Scheduler::Current().Spawn(KillOsdAfter(
        *rig->cluster, args.kill_osd_at_ms * sim::kMs, /*osd=*/0));
  }
  auto result = co_await runner.Run();
  if (!result.ok()) {
    std::printf("run failed: %s\n", result.status().ToString().c_str());
    co_return;
  }
  if (args.kill_osd_at_ms > 0) {
    // Let background recovery settle before reporting: a clean exit means
    // the degraded object count really returned to zero.
    co_await rig->cluster->WaitForClean();
  }
  const char* direction = args.rw_mix_pct >= 0
                              ? "rwmix"
                              : (args.is_write ? "write" : "read");
  std::printf("\n%s: %s, bs=%llu, qd=%zu, cipher=%s%s\n", direction,
              args.sequential ? "seq" : "rand",
              static_cast<unsigned long long>(args.bs),
              runner.config().queue_depth, args.spec.Name().c_str(),
              args.UseQos() ? ", qos" : "");
  if (args.cores > 0 || args.stripe_count > 1) {
    std::printf("  layout: cores=%u stripe_unit=%llu stripe_count=%llu\n",
                args.cores,
                static_cast<unsigned long long>(rig->image->stripe_unit()),
                static_cast<unsigned long long>(rig->image->stripe_count()));
  }
  std::printf("  %s\n", result->Summary().c_str());
  if (args.meta_store && !rig->image->object_meta().has_plane()) {
    std::printf("  meta:  plane refused (needs --integrity=hmac or "
                "--cipher=gcm)\n");
  }
  // Cluster totals since it came up, recovery included: one registry
  // snapshot taken after the run settled.
  const obs::Metrics totals = rig->image->MetricsSnapshot();
  const bool cluster_flags = args.osds > 0 || args.nodes > 0 ||
                             args.replication > 0 || args.pg_count > 0 ||
                             args.kill_osd_at_ms > 0 || args.tenant_qos;
  if (cluster_flags) {
    std::printf("  cluster: osds=%zu nodes=%zu repl=%zu pgs=%u",
                rig->cluster->osd_count(), cluster_config.nodes,
                cluster_config.replication, cluster_config.pg_count);
    PrintPaths(totals, {{"epoch", "cluster.mon.epoch"},
                        {"refreshes", "cluster.mon.map_refreshes"},
                        {"redirects", "cluster.mon.eagain_redirects"},
                        {"timeouts", "cluster.mon.osd_timeouts"},
                        {"degraded_writes", "cluster.mon.degraded_writes"}});
  }
  if (args.kill_osd_at_ms > 0) {
    std::printf("  recovery:");
    PrintPaths(totals,
               {{"pushed", "cluster.recovery.objects_pushed"},
                {"bytes", "cluster.recovery.bytes_pushed"},
                {"inline_pulls", "cluster.recovery.inline_pulls"},
                {"stale", "cluster.recovery.stale_pushes"},
                {"unrecoverable", "cluster.recovery.objects_unrecoverable"},
                {"degraded_now", "cluster.recovery.degraded_objects"}});
  }
  if (args.tenant_qos) {
    // The image tenant's mClock counters, summed across OSDs.
    auto sum = [&](const char* counter) {
      double total = 0;
      for (size_t i = 0; i < rig->cluster->osd_count(); ++i) {
        total += static_cast<double>(totals.CounterOr(
            "cluster.osd." + std::to_string(i) + ".qos.tenant_" +
            std::to_string(args.tenant.id) + "." + counter));
      }
      return total;
    };
    std::printf("  mclock: admitted=%.0f queued=%.0f res_dispatch=%.0f "
                "wait_ms=%.1f\n",
                sum("admitted"), sum("queued"), sum("reservation_dispatches"),
                sum("wait_ns") / 1e6);
  }
  if (args.verify && !args.is_write) {
    std::printf("  verify: all reads matched\n");
  }
  if (args.slow_ops > 0) {
    std::printf("\n%s",
                rig->image->obs().op_tracker().FormatSlowOps(args.slow_ops)
                    .c_str());
  }
  if (!args.json_path.empty()) {
    if (WriteFile(args.json_path, result->ToJson() + "\n")) {
      std::printf("wrote result json: %s\n", args.json_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", args.json_path.c_str());
      co_return;
    }
  }
  if (!args.trace_path.empty()) {
    if (WriteFile(args.trace_path,
                  rig->image->obs().tracer().ExportChromeJson())) {
      std::printf("wrote trace: %s (%zu spans, %llu dropped)\n",
                  args.trace_path.c_str(), rig->image->obs().tracer().size(),
                  static_cast<unsigned long long>(
                      rig->image->obs().tracer().dropped()));
    } else {
      std::fprintf(stderr, "failed to write %s\n", args.trace_path.c_str());
      co_return;
    }
  }

  if (args.reopen) {
    // Clean close -> reopen against the same plane device: the second
    // read pass starts warm (resident bitmaps + IV rows off the local
    // plane, ~zero metadata bytes from the object store).
    if (Status s = co_await rig->image->Close(); !s.ok()) {
      std::printf("close failed: %s\n", s.ToString().c_str());
      co_return;
    }
    co_await rig->cluster->Drain();
    rbd::ImageOptions runtime;
    runtime.iv_cache = options.iv_cache;
    runtime.meta_store = options.meta_store;
    runtime.obs = options.obs;
    auto reopened =
        co_await rbd::Image::Open(*rig->cluster, "fio", "pw", runtime);
    if (!reopened.ok()) {
      std::printf("reopen failed: %s\n", reopened.status().ToString().c_str());
      co_return;
    }
    rig->reopened = std::move(*reopened);
    workload::FioConfig reread = fio;
    reread.is_write = false;
    reread.rw_mix_pct = -1;
    reread.discard_pct = 0;
    reread.verify = false;
    workload::FioRunner warm_runner(*rig->reopened, reread);
    auto warm = co_await warm_runner.Run();
    if (!warm.ok()) {
      std::printf("warm rerun failed: %s\n",
                  warm.status().ToString().c_str());
      co_return;
    }
    std::printf("\nreopen (warm read pass):\n  %s\n",
                warm->Summary().c_str());
    std::printf("  meta: ");
    PrintPaths(warm->metrics,
               {{"warm", "image.meta_warm_hits"},
                {"rows", "image.meta_recovered_rows"},
                {"cold", "image.meta_cold_resets"},
                {"store_iv_fetched", "image.iv_meta_bytes_fetched"},
                {"store_bitmap_loads", "image.trim_state_loads"}});
    if (Status s = co_await rig->reopened->Close(); !s.ok()) {
      std::printf("close failed: %s\n", s.ToString().c_str());
      co_return;
    }
  } else if (args.meta_store) {
    if (Status s = co_await rig->image->Close(); !s.ok()) {
      std::printf("close failed: %s\n", s.ToString().c_str());
      co_return;
    }
  }
  *ok = true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!Parse(argc, argv, args)) {
    std::printf(
        "usage: fio_sim [--rw=randread|randwrite|read|write] [--bs=SIZE]\n"
        "               [--align=SIZE] [--discard=PCT] [--rwmix=PCT]\n"
        "               [--ops=N] [--qd=N]\n"
        "               [--layout=none|unaligned|object-end|omap]\n"
        "               [--cipher=gcm|wide] [--integrity=hmac] [--verify]\n"
        "               [--qos-iops=N] [--qos-bw=BYTES/S] [--qos-depth=N]\n"
        "               [--iv-cache] [--iv-cache-objects=N]\n"
        "               [--meta-store] [--reopen]\n"
        "               [--cores=N] [--stripe-unit=SIZE] "
        "[--stripe-count=N]\n"
        "               [--compress] [--compressibility=PCT] "
        "[--min-gain=PCT]\n"
        "               [--obs] [--json=PATH] [--trace=PATH] "
        "[--slow-ops=N]\n"
        "               [--osds=N] [--nodes=N] [--replication=N] "
        "[--pg-count=N]\n"
        "               [--kill-osd-at=MS] [--tenant-qos[=R:W:L]]\n");
    return 2;
  }
  sim::Scheduler sched;
  // N-core CPU model: crypto and apply charges pin to per-object cores and
  // overlap across them; 0 keeps the legacy infinite-overlap timeline.
  if (args.cores > 0) sched.ConfigureCores(args.cores);
  Rig rig;
  bool ok = false;
  sched.Spawn(Run(args, &rig, &ok));
  sched.Run();
  return ok ? 0 : 1;
}
