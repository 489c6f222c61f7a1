// One run of one workload: set-up rounds, the measured closed loop, the
// post-run steps, and the metrics computed from the window's registry
// snapshots.
#include <time.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "bench.h"
#include "qos/scheduler.h"

namespace vde::bench {

uint64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

uint64_t WallNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Metric Value(std::string name, double value, std::string unit) {
  return Metric{std::move(name), value, std::move(unit), false, 0, 0};
}

Metric Ratio(std::string name, double num, double den, std::string unit) {
  return Metric{std::move(name), den == 0 ? 0 : num / den, std::move(unit),
                true, num, den};
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

namespace {
// Keeps the loop's result live so the compiler cannot drop the loop.
volatile uint64_t ref_loop_sink = 0;
}  // namespace

double RefLoopUs() {
  // Registers only: a loop that touched memory would be slowed by whatever
  // the program left in the caches, and would move with the program.
  const uint64_t t0 = CpuNs();
  uint64_t state = 1, acc = 0;
  for (int i = 0; i < 40000; ++i) {
    const uint64_t v = SplitMix(state);
    acc += (v & 1) != 0 ? v >> 7 : std::popcount(v);
  }
  ref_loop_sink = acc;
  return static_cast<double>(CpuNs() - t0) / 1e3;
}

SpanLog::SpanLog() : origin_ns_(WallNs()) {}

uint64_t SpanLog::HostNs() const { return WallNs() - origin_ns_; }

int SpanLog::Begin(const std::string& name, int parent) {
  const uint64_t sim = sim::Scheduler::Current().now();
  spans_.push_back(Span{name, parent, HostNs(), 0, sim, 0});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::End(int id) {
  Span& s = spans_[static_cast<size_t>(id)];
  s.host_end_ns = HostNs();
  s.sim_end_ns = sim::Scheduler::Current().now();
}

std::string SpanLog::ChromeJson() const {
  // Host clock on the time axis; the sim interval and the parent span ride
  // in args. One row per nesting depth keeps the calls under their parent.
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  char buf[512];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    int depth = 0;
    for (int p = s.parent; p >= 0; p = spans_[static_cast<size_t>(p)].parent) {
      depth++;
    }
    std::snprintf(
        buf, sizeof(buf),
        "%s{\"name\":\"%s\",\"cat\":\"vdebench\",\"ph\":\"X\",\"ts\":%.3f,"
        "\"dur\":%.3f,\"pid\":2,\"tid\":%d,\"args\":{\"id\":%zu,"
        "\"parent\":%d,\"sim_start_us\":%.3f,\"sim_end_us\":%.3f}}",
        i == 0 ? "" : ",", obs::JsonEscape(s.name).c_str(),
        static_cast<double>(s.host_start_ns) / 1e3,
        static_cast<double>(s.host_end_ns - s.host_start_ns) / 1e3, depth, i,
        s.parent, static_cast<double>(s.sim_start_ns) / 1e3,
        static_cast<double>(s.sim_end_ns) / 1e3);
    out += buf;
  }
  out += "]}";
  return out;
}

namespace {

constexpr uint64_t kTenant = 1;

uint64_t IvSeed(uint64_t seed) { return seed * 0x9E3779B97F4A7C15ull | 1; }

// Nearest-rank percentile of sorted samples.
double Percentile(const std::vector<uint64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  const size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return static_cast<double>(sorted[std::max<size_t>(rank, 1) - 1]);
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream f(path, std::ios::binary);
  f << content;
  return static_cast<bool>(f);
}

sim::Task<void> SetUp(Rig& rig, const Workload& w, const RunConfig& config,
                      std::unique_ptr<LoadGen>* gen, HostSpan* host,
                      SpanLog* spans) {
  rados::ClusterConfig cc;  // 3 nodes x 9 OSDs, 3-way, 128 PGs
  if (w.enc.compression.enabled()) {
    // Tail trims of short ciphertexts only free capacity at 512 B units.
    cc.store.alloc_unit = 512;
  }
  cc.qos.enabled = w.mclock;
  {
    SpanScope span(spans, "cluster_create");
    auto cluster = co_await rados::Cluster::Create(cc);
    if (!cluster.ok()) {
      rig.status = cluster.status();
      co_return;
    }
    rig.cluster = std::move(*cluster);
  }
  rbd::ImageOptions o;
  o.size = 64ull << 30;
  o.enc = w.enc;
  o.enc.iv_seed = IvSeed(config.seed);
  o.luks.pbkdf2_iterations = 10;
  o.luks.af_stripes = 8;
  o.iv_cache.enabled = w.iv_cache_objects > 0;
  o.iv_cache.max_objects = w.iv_cache_objects;
  if (w.meta_store) {
    rig.meta_device = std::make_unique<dev::NvmeDevice>();
    o.meta_store.enabled = true;
    o.meta_store.device = rig.meta_device.get();
  }
  if (w.qos_depth > 0) {
    o.qos_scheduler = std::make_shared<qos::Scheduler>();
    o.qos.enabled = true;
    o.qos.max_queue_depth = w.qos_depth;
  }
  if (w.mclock) {
    o.tenant = rados::TenantSpec{kTenant, /*reservation_iops=*/500,
                                 /*weight=*/1.0, /*limit_iops=*/0};
  }
  o.obs.enabled = config.traced;
  {
    SpanScope span(spans, "image_create");
    auto image =
        co_await rbd::Image::Create(*rig.cluster, "vdebench", "pw", o);
    if (!image.ok()) {
      rig.status = image.status();
      co_return;
    }
    rig.image = std::move(*image);
  }
  *gen = std::make_unique<LoadGen>(*rig.image, w, config.seed);
  SpanScope span(spans, "prefill");
  rig.status = co_await (*gen)->Prefill(host);
  co_await rig.cluster->Drain();
}

sim::Task<void> Measure(Rig& rig, LoadGen& gen, const Workload& w,
                        const RunConfig& config, Window* win,
                        SpanLog* spans) {
  {
    SpanScope span(spans, "run");
    co_await gen.Run(config.min_seconds, win, spans);
  }
  if (w.readback_blocks > 0) {
    SpanScope span(spans, "readback");
    co_await gen.ReadBack(w.readback_blocks, win);
  }
  if (w.close) {
    SpanScope span(spans, "close");
    win->attempted++;
    if (!(co_await rig.image->Close()).ok()) win->failed++;
  }
  rig.image->ExportMetrics(win->end);
}

// Registry reads over the window.
struct Deltas {
  const Window& win;
  double C(const obs::Metrics& m, const std::string& path) const {
    return static_cast<double>(m.CounterOr(path));
  }
  double G(const obs::Metrics& m, const std::string& path) const {
    const double* v = m.FindGauge(path);
    return v != nullptr ? *v : 0;
  }
  // Counter delta open -> close (or open -> end of the run).
  double D(const std::string& path, bool to_end = false) const {
    return C(to_end ? win.end : win.close, path) - C(win.open, path);
  }
  double HistSum(const std::string& path) const {
    const Histogram* a = win.open.FindHist(path);
    const Histogram* b = win.close.FindHist(path);
    return static_cast<double>((b != nullptr ? b->sum() : 0) -
                               (a != nullptr ? a->sum() : 0));
  }
  double HistCount(const std::string& path) const {
    const Histogram* a = win.open.FindHist(path);
    const Histogram* b = win.close.FindHist(path);
    return static_cast<double>((b != nullptr ? b->count() : 0) -
                               (a != nullptr ? a->count() : 0));
  }
};

std::vector<Metric> EndToEnd(const Window& win,
                             const std::vector<double>& setup_s,
                             const std::vector<double>& setup_wall_s) {
  const Deltas d{win};
  std::vector<uint64_t> lat = win.lat_ns;
  std::sort(lat.begin(), lat.end());
  const double window_s = static_cast<double>(win.close_ns - win.open_ns) / 1e9;
  const double allocated = d.G(win.close, "cluster.space.total_bytes") -
                           d.G(win.close, "cluster.space.free_bytes");
  std::vector<double> cpu_us;
  for (size_t i = 0; i < win.chunk_cpu_us_per_op.size(); ++i) {
    cpu_us.push_back(win.chunk_cpu_us_per_op[i] * kRefLoopUs /
                     win.chunk_ref_us[i]);
  }
  return {
      Ratio("iops", static_cast<double>(lat.size()), window_s, "1/s"),
      Value("lat_p50_us", Percentile(lat, 50) / 1e3, "us"),
      Value("lat_p99_us", Percentile(lat, 99) / 1e3, "us"),
      Value("lat_p999_us", Percentile(lat, 99.9) / 1e3, "us"),
      Ratio("io_amp",
            d.D("cluster.device.bytes_read") +
                d.D("cluster.device.bytes_written"),
            d.D("image.bytes_read") + d.D("image.bytes_written")),
      Ratio("space_amp", allocated,
            static_cast<double>(win.live_bytes_at_close)),
      Value("host_cpu_us_per_op", Median(cpu_us), "us"),
      Value("setup_s", Median(setup_s), "s"),
      Ratio("ops_failed_frac", static_cast<double>(win.failed + win.mismatched),
            static_cast<double>(win.attempted)),
      // The host times as measured, before scaling to the reference speed.
      Value("host_cpu_raw_us_per_op", Median(win.chunk_cpu_us_per_op), "us"),
      Value("setup_wall_s", Median(setup_wall_s), "s"),
      Value("ref_loop_us", Median(win.chunk_ref_us), "us"),
  };
}

const char* const kStages[obs::kNumStages] = {
    "queue", "wb", "crypto", "compress", "store",
    "replicate", "device", "recovery", "other"};

std::vector<Metric> PerLayer(const Window& win, const Workload& w,
                             std::vector<std::string>* errors) {
  const Deltas d{win};
  std::vector<Metric> m;
  const double writes = d.D("image.writes");
  const double reads = d.D("image.reads");
  const double ops = writes + reads + d.D("image.discards");

  // Exclusive stage partition: per-stage sums over the plane's op count.
  const double plane_ops = d.HistCount("obs.latency_ns");
  double stage_sum_us = 0;
  for (size_t s = 0; s < obs::kNumStages; ++s) {
    const std::string hist = std::string("obs.stage_") +
                             obs::StageName(static_cast<obs::Stage>(s)) +
                             "_ns";
    m.push_back(Ratio(std::string("stage.") + kStages[s] + "_us",
                      d.HistSum(hist) / 1e3, plane_ops, "us"));
    stage_sum_us += m.back().value;
  }
  double lat_sum = 0;
  for (uint64_t v : win.lat_ns) lat_sum += static_cast<double>(v);
  const double mean_us = lat_sum / static_cast<double>(win.lat_ns.size()) / 1e3;
  if (std::fabs(stage_sum_us - mean_us) > 0.01 * mean_us) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "stage means sum to %.3f us, mean latency is %.3f us",
                  stage_sum_us, mean_us);
    errors->push_back(buf);
  }

  m.push_back(Ratio("wb.stages_per_write", d.D("image.wb_stages"), writes));
  m.push_back(Ratio("wb.hits_per_write", d.D("image.wb_hits"), writes));
  m.push_back(Ratio("wb.flushes_per_write", d.D("image.wb_flushes"), writes));
  m.push_back(
      Ratio("rbd.rmw_blocks_per_write", d.D("image.rmw_blocks"), writes));

  m.push_back(Ratio("iv.hit_ratio", d.D("image.iv_hits"),
                    d.D("image.iv_hits") + d.D("image.iv_misses")));
  m.push_back(Ratio("iv.meta_bytes_per_read",
                    d.D("image.iv_meta_bytes_fetched"), reads, "bytes"));
  m.push_back(Value("iv.evictions", d.D("image.iv_evictions"), "count"));

  m.push_back(Ratio("trim.bitmap_updates_per_write",
                    d.D("image.trim_bitmap_updates"), writes));
  m.push_back(Value("trim.state_loads", d.D("image.trim_state_loads"),
                    "count"));

  m.push_back(Ratio("meta.spills_per_write", d.D("image.meta_spills"), writes));
  m.push_back(Value("meta.journal_flushes",
                    d.D("image.meta_journal_flushes"), "count"));
  m.push_back(Ratio("kv.wal_bytes_per_write", d.D("image.meta_kv_wal_bytes"),
                    writes, "bytes"));
  m.push_back(Value("kv.compaction_bytes",
                    d.D("image.meta_kv_compaction_bytes"), "bytes"));

  const double in = d.D("image.compress_in_bytes");
  const double compressed = d.D("image.compress_blocks");
  const double verbatim = d.D("image.compress_verbatim_blocks");
  m.push_back(
      Ratio("compress.stored_ratio", d.D("image.compress_stored_bytes"), in));
  m.push_back(
      Ratio("compress.verbatim_frac", verbatim, compressed + verbatim));

  m.push_back(Ratio("qos.wait_us_per_op", d.D("image.qos_wait_ns") / 1e3, ops,
                    "us"));
  m.push_back(Ratio("qos.queued_frac", d.D("image.qos_queued"),
                    d.D("image.qos_submitted")));

  double mclock_wait_ns = 0;
  for (size_t i = 0;; ++i) {
    const std::string osd = "cluster.osd." + std::to_string(i);
    if (win.close.FindGauge(osd + ".up") == nullptr) break;
    mclock_wait_ns +=
        d.D(osd + ".qos.tenant_" + std::to_string(kTenant) + ".wait_ns");
  }
  m.push_back(Ratio("mclock.wait_us_per_op", mclock_wait_ns / 1e3, ops, "us"));
  for (const char* c : {"degraded_writes", "osd_timeouts", "map_refreshes",
                        "eagain_redirects"}) {
    m.push_back(Value(std::string("rados.") + c,
                      d.D(std::string("cluster.mon.") + c), "count"));
  }

  for (const char* c : {"objects_pushed", "bytes_pushed", "inline_pulls",
                        "stale_pushes", "objects_unrecoverable"}) {
    m.push_back(Value(std::string("recovery.") + c,
                      d.D(std::string("cluster.recovery.") + c, true),
                      std::string(c) == "bytes_pushed" ? "bytes" : "count"));
  }
  m.push_back(Value("recovery.time_to_clean_ms",
                    w.kill_osd ? static_cast<double>(win.clean_ns -
                                                     win.kill_ns) / 1e6
                               : 0,
                    "ms"));

  m.push_back(
      Ratio("store.txns_per_op", d.D("cluster.store.transactions"), ops));
  m.push_back(Ratio("store.journal_bytes_per_op",
                    d.D("cluster.store.journal_bytes"), ops, "bytes"));
  m.push_back(Ratio("store.rmw_sectors_per_op",
                    d.D("cluster.store.rmw_sectors"), ops));

  m.push_back(Ratio("device.write_ops_per_op",
                    d.D("cluster.device.write_ops"), ops));
  m.push_back(
      Ratio("device.read_ops_per_op", d.D("cluster.device.read_ops"), ops));
  m.push_back(Ratio("device.write_amp", d.D("cluster.device.bytes_written"),
                    d.D("image.bytes_written")));
  m.push_back(Ratio("device.read_amp", d.D("cluster.device.bytes_read"),
                    d.D("image.bytes_read")));

  m.push_back(Ratio("net.client_egress_bytes_per_op",
                    d.D("cluster.net.client.egress_bytes"), ops, "bytes"));
  double node_egress = 0;
  for (size_t n = 0;; ++n) {
    const std::string nic =
        "cluster.net.node_" + std::to_string(n) + ".egress_bytes";
    if (win.close.FindCounter(nic) == nullptr) break;
    node_egress += d.D(nic);
  }
  m.push_back(
      Ratio("net.cluster_egress_bytes_per_op", node_egress, ops, "bytes"));

  const double events = static_cast<double>(win.close_events -
                                            win.open_events);
  m.push_back(Ratio("sim.events_per_op", events, ops));
  double busy = 0;
  for (unsigned c = 0; c < w.cores; ++c) {
    busy += d.D("sim.core" + std::to_string(c) + "_busy_ns");
  }
  m.push_back(Ratio("sim.core_util", busy,
                    static_cast<double>(w.cores) *
                        static_cast<double>(win.close_ns - win.open_ns)));
  return m;
}

}  // namespace

RunOutput RunWorkload(const Workload& workload, const RunConfig& config) {
  const Workload w = config.quick ? Quick(workload) : workload;
  RunOutput out;
  std::vector<double> setup_s, setup_wall_s;
  uint64_t setup_end_ns = 0, setup_events = 0;
  RefLoopUs();  // the first call builds the loop's table
  for (int round = 0; round < config.setups; ++round) {
    const bool last = round + 1 == config.setups;
    // Declaration order is teardown order in reverse: the load generator,
    // then the image and cluster, and only then the scheduler.
    sim::Scheduler sched;
    sched.ConfigureCores(w.cores);
    Rig rig;
    std::unique_ptr<LoadGen> gen;
    SpanLog spans;
    SpanLog* log = last && config.traced ? &spans : nullptr;

    const uint64_t wall0 = WallNs();
    HostSpan host;
    sched.Spawn(SetUp(rig, w, config, &gen, &host, log));
    sched.Run();
    setup_wall_s.push_back(static_cast<double>(WallNs() - wall0) / 1e9);
    const double own_s = host.OwnUs() / 1e6;
    setup_s.push_back(own_s * kRefLoopUs / host.RefMeanUs());
    if (!rig.status.ok()) {
      out.errors.push_back("set-up failed: " + rig.status.ToString());
      return out;
    }
    if (round == 0) {
      setup_end_ns = sched.now();
      setup_events = sched.events_processed();
    } else if (sched.now() != setup_end_ns ||
               sched.events_processed() != setup_events) {
      out.errors.push_back("set-up rounds of one seed ended on different "
                           "sim clocks or event counts");
    }
    if (!last) continue;

    Window win;
    sched.Spawn(Measure(rig, *gen, w, config, &win, log));
    sched.Run();
    out.e2e = EndToEnd(win, setup_s, setup_wall_s);
    out.window_close_ns = win.close_ns;
    out.window_events = win.close_events;
    out.events_in_window = win.close_events - win.open_events;
    out.window_cpu_ns = win.window_cpu_ns;
    out.stream_hash = win.stream_hash;
    out.attempted = win.attempted;
    out.failed = win.failed;
    out.mismatched = win.mismatched;
    if (!config.traced) break;

    out.layer = PerLayer(win, w, &out.errors);
    sched.Spawn(RunProbes(rig, w, config.seed, log, &out.layer, &out.errors));
    sched.Run();
    if (!config.trace_prefix.empty()) {
      const std::string spans_path = config.trace_prefix + ".spans.json";
      const std::string image_path = config.trace_prefix + ".image-trace.json";
      const obs::Tracer& tracer = rig.image->obs().tracer();
      if (!WriteFile(spans_path, spans.ChromeJson()) ||
          !WriteFile(image_path, tracer.ExportChromeJson())) {
        out.errors.push_back("cannot write " + spans_path + " or " +
                             image_path);
      }
    }
  }
  return out;
}

}  // namespace vde::bench
