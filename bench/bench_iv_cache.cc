// Client-side IV-metadata cache on the workloads it exists for (§3.1
// "metadata in memory"): metadata fetch bytes and latency for reread and
// RMW-heavy streams, cache off vs on, across the metadata geometries.
//
// "Off" runs use an enabled cache with ZERO capacity: the consult path is
// live and counts every extent's metadata fetch, but nothing is retained —
// the same IO the disabled cache issues, with the accounting needed for
// the comparison. A separate passthrough section proves that equivalence
// on the sim clock (zero-capacity AND fully-disabled runs must be
// bit-identical).
//
// Self-check gates (exit non-zero on regression):
//  - reread + RMW: cache-on fetches strictly fewer metadata bytes than
//    cache-off for the object-end and OMAP geometries, and hit-path
//    latency does not regress;
//  - passthrough: disabled-cache and zero-capacity runs end at the SAME
//    sim-clock time (the cache adds zero cost to the miss/disabled path).
//
// Usage: bench_iv_cache [--quick]
#include <cstdio>
#include <cstring>

#include "cluster_fixture.h"

namespace {

using namespace vde;

struct CachePoint {
  double p50_us = 0;
  double p99_us = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t meta_fetched = 0;
  uint64_t meta_saved = 0;
  sim::SimTime end_time = 0;
  bool ok = false;
};

rbd::IvCacheConfig CacheOff() {
  rbd::IvCacheConfig c;
  c.enabled = true;
  c.max_objects = 0;  // consult + count, retain nothing
  return c;
}

rbd::IvCacheConfig CacheOn() {
  rbd::IvCacheConfig c;
  c.enabled = true;
  c.max_objects = 64;
  return c;
}

rbd::IvCacheConfig CacheDisabled() { return {}; }

// One workload point on a fresh single-replica cluster (store/metadata
// traffic maps 1:1 to client transactions).
CachePoint RunCachePoint(const core::EncryptionSpec& spec,
                         const rbd::IvCacheConfig& cache,
                         const workload::FioConfig& fio_template,
                         uint64_t ops) {
  CachePoint point;
  sim::Scheduler sched;

  auto body = [&]() -> sim::Task<void> {
    rados::ClusterConfig cfg = bench::PaperCluster();
    cfg.nodes = 1;
    cfg.osds_per_node = 4;
    cfg.replication = 1;
    cfg.pg_count = 32;
    auto cluster = co_await rados::Cluster::Create(cfg);
    if (!cluster.ok()) co_return;

    rbd::ImageOptions options;
    options.size = 1ull << 30;
    options.enc = spec;
    options.enc.iv_seed = 1;
    options.luks.pbkdf2_iterations = 10;
    options.luks.af_stripes = 8;
    options.iv_cache = cache;
    auto image =
        co_await rbd::Image::Create(**cluster, "ivbench", "pw", options);
    if (!image.ok()) co_return;
    auto& img = **image;

    workload::FioConfig fio = fio_template;
    fio.total_ops = ops;
    workload::FioRunner runner(img, fio);
    if (!(co_await runner.Prefill()).ok()) co_return;
    if (!(co_await img.Flush()).ok()) co_return;
    co_await (*cluster)->Drain();

    auto result = co_await runner.Run();
    if (!result.ok()) co_return;
    if (!(co_await img.Flush()).ok()) co_return;
    co_await (*cluster)->Drain();

    point.p50_us = result->latency_ns.Percentile(50) / 1000.0;
    point.p99_us = result->latency_ns.Percentile(99) / 1000.0;
    const obs::Metrics& m = result->metrics;
    point.hits = m.CounterOr("image.iv_hits");
    point.misses = m.CounterOr("image.iv_misses");
    point.meta_fetched = m.CounterOr("image.iv_meta_bytes_fetched");
    point.meta_saved = m.CounterOr("image.iv_meta_bytes_saved");
    point.ok = true;
  };

  sched.Spawn(body());
  point.end_time = sched.Run();
  if (!point.ok) {
    std::fprintf(stderr, "RunCachePoint failed: %s\n", spec.Name().c_str());
  }
  return point;
}

workload::FioConfig RereadFio() {
  workload::FioConfig fio;
  fio.is_write = false;
  fio.io_size = 4096;
  fio.queue_depth = 16;
  fio.working_set = 8ull << 20;  // 2048 blocks: every op is a reread soon
  return fio;
}

workload::FioConfig RmwFio() {
  // The db-style 512 B stream: every block's first write pays one RMW
  // block read — the single-block extents where every geometry profits.
  workload::FioConfig fio = workload::FioConfig::Db();
  fio.working_set = 8ull << 20;
  return fio;
}

const core::EncryptionSpec kObjectEnd{core::CipherMode::kXtsRandom,
                                      core::IvLayout::kObjectEnd};
const core::EncryptionSpec kOmap{core::CipherMode::kXtsRandom,
                                 core::IvLayout::kOmap};
const core::EncryptionSpec kUnaligned{core::CipherMode::kXtsRandom,
                                      core::IvLayout::kUnaligned};

const char* SpecLabel(const core::EncryptionSpec& spec) {
  switch (spec.layout) {
    case core::IvLayout::kObjectEnd: return "object-end";
    case core::IvLayout::kOmap: return "omap";
    case core::IvLayout::kUnaligned: return "unaligned";
    default: return "?";
  }
}

// Returns true when the gates hold; `gated` controls whether this spec
// participates in the exit code (unaligned is informational: its
// multi-block reads stay on the full-fetch path by design).
bool ReportSection(const char* workload, const core::EncryptionSpec& spec,
                   const CachePoint& off, const CachePoint& on, bool gated) {
  const double ratio =
      off.meta_fetched > 0
          ? static_cast<double>(on.meta_fetched) /
                static_cast<double>(off.meta_fetched)
          : 1.0;
  const bool fewer_bytes = on.meta_fetched < off.meta_fetched;
  const bool latency_ok = on.p50_us <= off.p50_us * 1.01;
  const bool pass = off.ok && on.ok && (!gated || (fewer_bytes && latency_ok));
  std::printf("%8s %-11s | %10llu %10llu (%.2fx) | hits=%llu saved=%llu | "
              "p50 %6.0f -> %6.0f us %s\n",
              workload, SpecLabel(spec),
              static_cast<unsigned long long>(off.meta_fetched),
              static_cast<unsigned long long>(on.meta_fetched), ratio,
              static_cast<unsigned long long>(on.hits),
              static_cast<unsigned long long>(on.meta_saved), off.p50_us,
              on.p50_us, gated ? (pass ? "PASS" : "FAIL") : "(info)");
  return pass;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const uint64_t reread_ops = quick ? 1024 : 4096;
  const uint64_t rmw_ops = quick ? 1024 : 4096;

  std::printf("IV-metadata cache: metadata fetch bytes, cache off "
              "(zero-capacity) vs on (%llu reread / %llu rmw ops)\n",
              static_cast<unsigned long long>(reread_ops),
              static_cast<unsigned long long>(rmw_ops));
  std::printf("%8s %-11s | %10s %10s %7s | %s\n", "workload", "layout",
              "off bytes", "on bytes", "", "cache-on detail");

  bool gates_ok = true;
  struct Scenario {
    const char* name;
    workload::FioConfig fio;
    uint64_t ops;
  };
  const Scenario scenarios[] = {{"reread", RereadFio(), reread_ops},
                                {"rmw", RmwFio(), rmw_ops}};
  for (const Scenario& sc : scenarios) {
    for (const auto* spec : {&kObjectEnd, &kOmap, &kUnaligned}) {
      const bool gated = spec != &kUnaligned;
      const CachePoint off = RunCachePoint(*spec, CacheOff(), sc.fio, sc.ops);
      const CachePoint on = RunCachePoint(*spec, CacheOn(), sc.fio, sc.ops);
      gates_ok &= ReportSection(sc.name, *spec, off, on, gated);
      std::fflush(stdout);
    }
  }

  // Passthrough: a disabled cache and a zero-capacity cache must issue
  // byte-identical IO — same sim clock, to the nanosecond — on a mixed
  // read/write/discard stream (the miss path carries zero overhead).
  std::printf("\nPassthrough (disabled vs zero-capacity cache, identical "
              "seeds)\n");
  bool passthrough_ok = true;
  workload::FioConfig mixed;
  mixed.rw_mix_pct = 50;
  mixed.io_size = 3072;  // sub-block + straddling: exercises the RMW path
  mixed.offset_align = 512;
  mixed.discard_pct = 5;
  mixed.queue_depth = 8;
  mixed.working_set = 8ull << 20;
  const uint64_t pt_ops = quick ? 512 : 2048;
  for (const auto* spec : {&kObjectEnd, &kOmap, &kUnaligned}) {
    const CachePoint disabled =
        RunCachePoint(*spec, CacheDisabled(), mixed, pt_ops);
    const CachePoint zero = RunCachePoint(*spec, CacheOff(), mixed, pt_ops);
    const bool same =
        disabled.ok && zero.ok && disabled.end_time == zero.end_time;
    passthrough_ok = passthrough_ok && same;
    std::printf("  %-11s clock delta %lld ns %s\n", SpecLabel(*spec),
                static_cast<long long>(zero.end_time) -
                    static_cast<long long>(disabled.end_time),
                same ? "(identical)" : "(OVERHEAD!)");
  }
  std::printf("passthrough: %s\n", passthrough_ok ? "PASS" : "FAIL");
  std::printf("gates: %s\n",
              gates_ok && passthrough_ok ? "PASS" : "FAIL");
  return gates_ok && passthrough_ok ? 0 : 1;
}
