// Compression-before-encryption gates: capacity must be genuinely
// reclaimed, the pay-to-try cost must stay in the noise, and the off
// path must stay pristine.
//
// Three self-checking acceptance gates:
//
//   capacity   on a 60%-compressible write stream, the cluster's punched
//              pool reclaims at least 90% of compression_ratio x logical
//              bytes written, where compression_ratio is the fraction of
//              each block the codec freed at the store's 512 B allocation
//              granularity (the punched pool cannot reclaim finer than
//              that, and the unaligned geometry additionally loses up to
//              one unit per slot to its 4112 B stride — the 10% allowance
//              absorbs exactly these rounding losses, nothing else).
//              Checked on all three metadata geometries, each of which
//              must also survive a mutating verify run (mixed writes /
//              discards / verified reads) clean.
//   latency    an incompressible stream (compressibility 0: every block
//              verbatim) pays only the compressor's failed try; write p50
//              with the codec on must sit within 3% of compression-off.
//   off-path   with compression disabled the codec must not exist: zero
//              compress counters, and the run is deterministic to the
//              event — identical sim clock and event count across repeat
//              runs at 1 core and at 4 cores (the mechanism by which the
//              off path stays bit-identical to pre-compression builds).
//
// Artifacts: writes bench-compress.json (gate verdicts + per-geometry
// capacity numbers + the latency comparison) to the CWD; CI uploads it.
//
// Usage: bench_compress [--quick]
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cluster_fixture.h"

namespace {

using namespace vde;

// Single-copy cluster so punched bytes compare 1:1 against logical bytes;
// 512 B allocation units so slot tails actually free capacity.
rados::ClusterConfig CompressCluster() {
  rados::ClusterConfig cfg = bench::PaperCluster();
  cfg.nodes = 1;
  cfg.osds_per_node = 4;
  cfg.replication = 1;
  cfg.pg_count = 32;
  cfg.store.alloc_unit = 512;
  return cfg;
}

core::EncryptionSpec Spec(core::IvLayout layout, bool codec_on) {
  core::EncryptionSpec s;
  s.mode = core::CipherMode::kXtsRandom;
  s.layout = layout;
  s.integrity = core::Integrity::kHmac;
  s.iv_seed = 1;
  if (codec_on) s.compression.codec = core::Compression::kLz;
  return s;
}

struct RunOut {
  bool ok = false;
  sim::SimTime clock = 0;
  uint64_t events = 0;
  workload::FioResult result;
  // Registry snapshot after the final drain: image counters since the
  // image was created and the cluster's capacity gauges once every tail
  // trim has landed.
  obs::Metrics totals;
};

// One fio run on a fresh cluster/image. `cores` = 0 keeps the legacy
// single-timeline scheduler; > 0 enables the N-core CPU model.
RunOut Run(const rados::ClusterConfig& cluster_cfg,
           const core::EncryptionSpec& spec, const workload::FioConfig& fio,
           unsigned cores) {
  RunOut out;
  sim::Scheduler sched;
  if (cores > 0) sched.ConfigureCores(cores);
  auto body = [&]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(cluster_cfg);
    if (!cluster.ok()) co_return;
    rbd::ImageOptions options;
    options.size = 4ull << 30;
    options.enc = spec;
    options.luks.pbkdf2_iterations = 10;
    options.luks.af_stripes = 8;
    auto image =
        co_await rbd::Image::Create(**cluster, "bench", "pw", options);
    if (!image.ok()) co_return;
    workload::FioRunner runner(**image, fio);
    if (fio.verify) {
      if (!(co_await runner.Prefill()).ok()) co_return;
      co_await (*cluster)->Drain();
    }
    auto result = co_await runner.Run();
    if (!result.ok()) co_return;
    out.result = std::move(*result);
    co_await (*cluster)->Drain();
    out.totals = (*image)->MetricsSnapshot();
    out.ok = true;
  };
  sched.Spawn(body());
  sched.Run();
  out.clock = sched.now();
  out.events = sched.events_processed();
  return out;
}

const char* LayoutName(core::IvLayout layout) {
  switch (layout) {
    case core::IvLayout::kUnaligned: return "unaligned";
    case core::IvLayout::kObjectEnd: return "object-end";
    case core::IvLayout::kOmap: return "omap";
    case core::IvLayout::kNone: break;
  }
  return "none";
}

bool WriteFile(const char* path, const std::string& content) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return false;
  const size_t n = std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  return n == content.size();
}

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const uint64_t ops = quick ? 192 : 768;
  bool all_ok = true;
  std::string geo_json = "[";

  // Gate 1: capacity reclaimed on a 60%-compressible stream, plus a clean
  // mutating verify pass — on every metadata geometry.
  std::printf("gate capacity: 60%%-compressible, %llu x 4 KiB writes\n",
              static_cast<unsigned long long>(ops));
  bool capacity_ok = true;
  for (const core::IvLayout layout :
       {core::IvLayout::kUnaligned, core::IvLayout::kObjectEnd,
        core::IvLayout::kOmap}) {
    // Phase A: unique-block sequential writes; reclaimed = punched pool.
    workload::FioConfig wr;
    wr.is_write = true;
    wr.pattern = workload::FioConfig::Pattern::kSequential;
    wr.io_size = 4096;
    wr.queue_depth = 16;
    wr.total_ops = ops;
    // Warmup + beyond-quota issues stay under this: no block rewritten,
    // so punched bytes compare 1:1 against the compression counters.
    wr.working_set = (ops + 64) * 4096;
    wr.compressibility_pct = 60;
    const RunOut cap = Run(CompressCluster(), Spec(layout, true), wr, 0);

    // Phase B: the same geometry must survive mutation with verification.
    workload::FioConfig mut;
    mut.rw_mix_pct = 50;
    mut.discard_pct = 10;
    mut.io_size = 4096;
    mut.queue_depth = 8;
    mut.total_ops = ops / 2;
    mut.working_set = 8ull << 20;
    mut.compressibility_pct = 60;
    mut.verify = true;
    const RunOut ver = Run(CompressCluster(), Spec(layout, true), mut, 0);

    const obs::Metrics& s = cap.totals;
    const double logical =
        static_cast<double>(s.CounterOr("image.compress_in_bytes"));
    const uint64_t blocks = s.CounterOr("image.compress_blocks") +
                            s.CounterOr("image.compress_verbatim_blocks");
    // Compression ratio at capacity granularity: the fraction of each
    // 4 KiB block the codec freed, with the stored head rounded up to the
    // store's 512 B allocation unit (finer tails cannot become capacity).
    const uint64_t avg_stored =
        blocks > 0 ? s.CounterOr("image.compress_stored_bytes") / blocks
                   : 4096;
    const uint64_t stored_units = (avg_stored + 511) / 512 * 512;
    const double ratio =
        static_cast<double>(4096 - stored_units) / 4096.0;
    const double* punched = s.FindGauge("cluster.space.punched_bytes");
    const double reclaimed = punched != nullptr ? *punched : 0;
    const double floor = 0.90 * ratio * logical;
    const bool ok = cap.ok && ver.ok && logical > 0 && ratio > 0 &&
                    reclaimed >= floor;
    std::printf(
        "  %-10s logical=%.0f stored=%llu/blk ratio=%.1f%% "
        "reclaimed=%.1f%% floor=%.1f%% verify=%s  %s\n",
        LayoutName(layout), logical,
        static_cast<unsigned long long>(avg_stored), 100.0 * ratio,
        100.0 * reclaimed / logical, 100.0 * floor / logical,
        ver.ok ? "clean" : "FAILED", ok ? "ok" : "FAIL");
    capacity_ok = capacity_ok && ok;
    if (geo_json.size() > 1) geo_json += ",";
    geo_json += std::string("{\"layout\":\"") + LayoutName(layout) +
                "\",\"logical_bytes\":" + Num(logical) +
                ",\"reclaimed_bytes\":" + Num(reclaimed) +
                ",\"compression_ratio\":" + Num(ratio) +
                ",\"verify_clean\":" + (ver.ok ? "true" : "false") + "}";
  }
  geo_json += "]";
  std::printf("gate capacity: %s\n\n", capacity_ok ? "PASS" : "FAIL");
  all_ok = all_ok && capacity_ok;

  // Gate 2: incompressible stream — every block stored verbatim, so the
  // only cost is the failed compression try; p50 within 3% of codec-off.
  workload::FioConfig inc;
  inc.is_write = true;
  inc.io_size = 4096;
  inc.queue_depth = 32;
  inc.total_ops = ops;
  inc.working_set = 64ull << 20;
  const RunOut off = Run(CompressCluster(),
                         Spec(core::IvLayout::kObjectEnd, false), inc, 0);
  const RunOut on = Run(CompressCluster(),
                        Spec(core::IvLayout::kObjectEnd, true), inc, 0);
  const double p50_off = off.result.latency_ns.Percentile(50);
  const double p50_on = on.result.latency_ns.Percentile(50);
  const double p50_delta =
      p50_off > 0 ? std::fabs(p50_on - p50_off) / p50_off : 1.0;
  const bool latency_ok =
      off.ok && on.ok && p50_delta <= 0.03 &&
      // Nothing compressed, yet every block tried.
      on.totals.CounterOr("image.compress_blocks") == 0 &&
      on.totals.CounterOr("image.compress_verbatim_blocks") > 0;
  std::printf("gate latency: incompressible 4 KiB writes qd=32\n");
  std::printf("  p50 off=%.0f ns  on=%.0f ns  delta=%.2f%% (<= 3%%)  %s\n",
              p50_off, p50_on, 100.0 * p50_delta,
              latency_ok ? "ok" : "FAIL");
  std::printf("gate latency: %s\n\n", latency_ok ? "PASS" : "FAIL");
  all_ok = all_ok && latency_ok;

  // Gate 3: compression off adds zero compress work and stays
  // deterministic to the event at 1 and at 4 cores.
  std::printf("gate off-path: codec disabled, mixed stream\n");
  bool off_ok = true;
  workload::FioConfig mixed;
  mixed.rw_mix_pct = 70;
  mixed.discard_pct = 10;
  mixed.io_size = 4096;
  mixed.queue_depth = 8;
  mixed.total_ops = ops / 2;
  mixed.working_set = 16ull << 20;
  for (const unsigned cores : {1u, 4u}) {
    const rados::ClusterConfig plain = bench::PaperCluster();
    const RunOut a = Run(plain, Spec(core::IvLayout::kObjectEnd, false),
                         mixed, cores);
    const RunOut b = Run(plain, Spec(core::IvLayout::kObjectEnd, false),
                         mixed, cores);
    const obs::Metrics& t = a.totals;
    const bool pure = t.CounterOr("image.compress_in_bytes") == 0 &&
                      t.CounterOr("image.compress_blocks") == 0 &&
                      t.CounterOr("image.compress_expanded_blocks") == 0;
    const bool ok = a.ok && b.ok && a.clock == b.clock &&
                    a.events == b.events && pure;
    std::printf("  cores=%u: clock=%llu ns events=%llu rerun=%s "
                "compress-counters=%s  %s\n",
                cores, static_cast<unsigned long long>(a.clock),
                static_cast<unsigned long long>(a.events),
                (a.clock == b.clock && a.events == b.events) ? "IDENTICAL"
                                                             : "DIVERGED",
                pure ? "zero" : "NONZERO", ok ? "ok" : "FAIL");
    off_ok = off_ok && ok;
  }
  std::printf("gate off-path: %s\n\n", off_ok ? "PASS" : "FAIL");
  all_ok = all_ok && off_ok;

  // Artifact for CI.
  std::string summary = "{\"gates\":{\"capacity\":";
  summary += capacity_ok ? "true" : "false";
  summary += ",\"latency\":";
  summary += latency_ok ? "true" : "false";
  summary += ",\"off_path\":";
  summary += off_ok ? "true" : "false";
  summary += "},\"geometries\":" + geo_json;
  summary += ",\"latency\":{\"p50_off_ns\":" + Num(p50_off) +
             ",\"p50_on_ns\":" + Num(p50_on) +
             ",\"delta_frac\":" + Num(p50_delta) + "}";
  summary += ",\"fio\":" + on.result.ToJson() + "}\n";
  if (!WriteFile("bench-compress.json", summary)) {
    std::printf("failed to write bench-compress.json\n");
    return 1;
  }
  std::printf("wrote bench-compress.json\n");

  std::printf("\nbench_compress: %s\n",
              all_ok ? "ALL GATES PASS" : "FAILED");
  return all_ok ? 0 : 1;
}
