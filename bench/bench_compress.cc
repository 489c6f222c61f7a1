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
// capacity numbers + the latency comparison + the codec-on fio result) to
// the CWD; CI uploads it.
//
// Usage: bench_compress [--quick]
#include <cmath>
#include <cstdio>
#include <vector>

#include "harness.h"

namespace {

using namespace vde;
using namespace vde::bench;

// Single-copy cluster so punched bytes compare 1:1 against logical bytes;
// 512 B allocation units so slot tails actually free capacity.
rados::ClusterConfig CompressCluster() {
  rados::ClusterConfig cfg = SmallCluster();
  cfg.store.alloc_unit = 512;
  return cfg;
}

core::EncryptionSpec Spec(core::IvLayout layout, bool codec_on) {
  core::EncryptionSpec s;
  s.mode = core::CipherMode::kXtsRandom;
  s.layout = layout;
  s.integrity = core::Integrity::kHmac;
  if (codec_on) s.compression.codec = core::Compression::kLz;
  return s;
}

struct RunOut {
  RunResult run;
  workload::FioResult result;
  // Registry snapshot after the final drain: image counters since the
  // image was created and the cluster's capacity gauges once every tail
  // trim has landed.
  obs::Metrics totals;
};

// One fio run on a fresh cluster/image. `cores` = 0 keeps the legacy
// single-timeline scheduler; > 0 enables the N-core CPU model.
RunOut RunFio(const rados::ClusterConfig& cluster_cfg,
              const core::EncryptionSpec& spec,
              const workload::FioConfig& fio, unsigned cores) {
  RunOut out;
  out.run = RunOnCluster(
      cluster_cfg, cores, [&](rados::Cluster& cluster) -> sim::Task<bool> {
        auto image = co_await rbd::Image::Create(cluster, "bench", "pw",
                                                 TestImage(spec, 4ull << 30));
        if (!image.ok()) co_return false;
        workload::FioRunner runner(**image, fio);
        if (fio.verify) {
          if (!(co_await runner.Prefill()).ok()) co_return false;
          co_await cluster.Drain();
        }
        auto result = co_await runner.Run();
        if (!result.ok()) co_return false;
        out.result = std::move(*result);
        co_await cluster.Drain();
        out.totals = (*image)->MetricsSnapshot();
        co_return true;
      });
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

}  // namespace

int main(int argc, char** argv) {
  Bench bench("compress", argc, argv);
  const uint64_t ops = bench.quick() ? 192 : 768;

  // Gate 1: capacity reclaimed on a 60%-compressible stream, plus a clean
  // mutating verify pass — on every metadata geometry.
  std::printf("gate capacity: 60%%-compressible, %llu x 4 KiB writes\n",
              static_cast<unsigned long long>(ops));
  bool capacity_ok = true;
  std::vector<Field> geometries;
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
    const RunOut cap = RunFio(CompressCluster(), Spec(layout, true), wr, 0);

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
    const RunOut ver = RunFio(CompressCluster(), Spec(layout, true), mut, 0);

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
    const bool ok = cap.run.ok && ver.run.ok && logical > 0 && ratio > 0 &&
                    reclaimed >= floor;
    std::printf(
        "  %-10s logical=%.0f stored=%llu/blk ratio=%.1f%% "
        "reclaimed=%.1f%% floor=%.1f%% verify=%s  %s\n",
        LayoutName(layout), logical,
        static_cast<unsigned long long>(avg_stored), 100.0 * ratio,
        100.0 * reclaimed / logical, 100.0 * floor / logical,
        ver.run.ok ? "clean" : "FAILED", ok ? "ok" : "FAIL");
    capacity_ok = capacity_ok && ok;
    geometries.push_back({LayoutName(layout),
                          {{"logical_bytes", logical},
                           {"reclaimed_bytes", reclaimed},
                           {"compression_ratio", ratio},
                           {"verify_clean", ver.run.ok}}});
  }
  bench.Gate("capacity", capacity_ok,
             "punched >= 90% of ratio x logical and a clean verify run on "
             "every geometry",
             geometries);
  std::printf("\n");

  // Gate 2: incompressible stream — every block stored verbatim, so the
  // only cost is the failed compression try; p50 within 3% of codec-off.
  workload::FioConfig inc;
  inc.is_write = true;
  inc.io_size = 4096;
  inc.queue_depth = 32;
  inc.total_ops = ops;
  inc.working_set = 64ull << 20;
  const RunOut off = RunFio(CompressCluster(),
                            Spec(core::IvLayout::kObjectEnd, false), inc, 0);
  const RunOut on = RunFio(CompressCluster(),
                           Spec(core::IvLayout::kObjectEnd, true), inc, 0);
  const double p50_off = off.result.latency_ns.Percentile(50);
  const double p50_on = on.result.latency_ns.Percentile(50);
  const double p50_delta =
      p50_off > 0 ? std::fabs(p50_on - p50_off) / p50_off : 1.0;
  const bool latency_ok =
      off.run.ok && on.run.ok && p50_delta <= 0.03 &&
      // Nothing compressed, yet every block tried.
      on.totals.CounterOr("image.compress_blocks") == 0 &&
      on.totals.CounterOr("image.compress_verbatim_blocks") > 0;
  std::printf("gate latency: incompressible 4 KiB writes qd=32\n");
  std::printf("  p50 off=%.0f ns  on=%.0f ns  delta=%.2f%% (<= 3%%)  %s\n",
              p50_off, p50_on, 100.0 * p50_delta,
              latency_ok ? "ok" : "FAIL");
  bench.Gate("latency", latency_ok,
             "codec-on write p50 within 3% of codec-off, every block "
             "stored verbatim",
             {{"p50_off_ns", p50_off},
              {"p50_on_ns", p50_on},
              {"delta_frac", p50_delta}});
  bench.Attach("fio", on.result.ToJson());
  std::printf("\n");

  // Gate 3: compression off adds zero compress work and stays
  // deterministic to the event at 1 and at 4 cores.
  std::printf("gate off_path: codec disabled, mixed stream\n");
  bool off_ok = true;
  workload::FioConfig mixed;
  mixed.rw_mix_pct = 70;
  mixed.discard_pct = 10;
  mixed.io_size = 4096;
  mixed.queue_depth = 8;
  mixed.total_ops = ops / 2;
  mixed.working_set = 16ull << 20;
  for (const unsigned cores : {1u, 4u}) {
    const RunOut a = RunFio(PaperCluster(),
                            Spec(core::IvLayout::kObjectEnd, false), mixed,
                            cores);
    const RunOut b = RunFio(PaperCluster(),
                            Spec(core::IvLayout::kObjectEnd, false), mixed,
                            cores);
    const obs::Metrics& t = a.totals;
    const bool pure = t.CounterOr("image.compress_in_bytes") == 0 &&
                      t.CounterOr("image.compress_blocks") == 0 &&
                      t.CounterOr("image.compress_expanded_blocks") == 0;
    const bool same =
        a.run.clock == b.run.clock && a.run.events == b.run.events;
    const bool ok = a.run.ok && b.run.ok && same && pure;
    std::printf("  cores=%u: clock=%llu ns events=%llu rerun=%s "
                "compress-counters=%s  %s\n",
                cores, static_cast<unsigned long long>(a.run.clock),
                static_cast<unsigned long long>(a.run.events),
                same ? "IDENTICAL" : "DIVERGED", pure ? "zero" : "NONZERO",
                ok ? "ok" : "FAIL");
    off_ok = off_ok && ok;
  }
  bench.Gate("off_path", off_ok,
             "codec disabled: zero compress counters, repeat runs identical "
             "to the event at 1 and 4 cores");
  std::printf("\n");
  return bench.Finish();
}
