// Multi-core pipelined data plane bench: the sharded executor, the
// split objstore apply, and guest-side striping, measured together.
//
// Three self-check gates (exit non-zero on regression):
//
//  1. CLOCK IDENTITY — with one core and default (no-stripe) layout,
//     the N-core CPU model lands on the SAME simulated clock as the
//     disabled model for a qd=1 sequential write run: per-shard
//     charges that never queue must cost exactly what the legacy
//     serial Sleep charged.
//
//  2. STRIPING — on 4 cores, a single image doing sequential 4 KiB
//     writes at depth 32 gets faster when striped (16 KiB units
//     across 8 objects) than with the contiguous 4 MiB layout: the
//     stripe spreads the in-flight window across objects, so commit
//     bookkeeping runs on different cores instead of serializing on
//     one object's lock.
//
//  3. CORE SCALING — four tenants doing random 4 KiB writes at depth
//     8 each scale with the core count: aggregate IOPS at 2 cores is
//     at least 1.7x the 1-core figure, and at 4 cores at least 3.0x.
//
//  4. READ COMPLETION — on 4 cores, random 4 KiB reads mixed 70/30
//     with writes at depth 32 keep their p50 within 2% of the qd=1
//     read-only latency: a read's decrypt takes the least-busy core, so
//     it does not queue behind other ops' commits on its object's core.
//
//  5. KV LANE — on 4 cores, an OMAP+HMAC image doing random 4 KiB IO
//     70/30 read/write at depth 32 keeps its write p99 within 2.30x of
//     the qd=1 write-only latency: the store's kv commit lane charges
//     its per-key cost on the least-busy core, so the store-wide lane
//     does not wait behind one object core's commit backlog.
//
// The cluster uses a deliberately CPU-heavy objstore::CostModel
// (commit bookkeeping raised to 120 us) so the gates measure the core
// model, not the network or the NVMe queues.
//
// Usage: bench_pipeline [--quick]
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "sim/sync.h"
#include "util/rng.h"

namespace {

using namespace vde;
using namespace vde::bench;

// Small cluster, replication 1, with the commit stage inflated via the
// shared cost model (the same struct the object store charges from).
rados::ClusterConfig PipelineCluster() {
  rados::ClusterConfig cfg = SmallCluster();
  cfg.store.costs.write_op_apply_cost = 120 * sim::kUs;
  return cfg;
}

// Gate 5 bound on the qd=32 OMAP write p99 over the qd=1 write p50. With
// the lane's per-key charge pinned to the object's core the ratio was
// 2.42x (--quick) and 2.70x (full); on the least-busy core, 2.18x / 2.21x.
constexpr double kKvLaneMaxRatio = 2.30;

struct PipePoint {
  double iops = 0;       // aggregate over all tenants
  uint64_t ops = 0;      // aggregate measured ops
  uint64_t bytes = 0;    // aggregate measured bytes
  sim::SimTime end_time = 0;  // sim clock after final Drain
  bool ok = false;
};

// One point on a fresh cluster: `images` identical tenants (1 = plain
// FioRunner), each running `fio` with a per-tenant seed. cores == 0
// leaves the N-core CPU model disabled (the legacy serial charge).
PipePoint RunFioPoint(Bench& bench, unsigned cores, uint64_t stripe_unit,
                      uint64_t stripe_count, size_t images,
                      workload::FioConfig fio) {
  PipePoint point;
  auto body = [&](rados::Cluster& cluster) -> sim::Task<bool> {
    rbd::ImageOptions options = TestImage({}, 1ull << 30);
    options.stripe_unit = stripe_unit;
    options.stripe_count = stripe_count;

    std::vector<std::shared_ptr<rbd::Image>> imgs;
    for (size_t i = 0; i < images; ++i) {
      std::string name = "pipe";
      name += std::to_string(i);
      auto image = co_await rbd::Image::Create(cluster, name, "pw", options);
      if (!image.ok()) co_return false;
      imgs.push_back(std::move(*image));
    }

    std::vector<workload::FioTenant> tenants;
    for (size_t i = 0; i < images; ++i) {
      workload::FioConfig t = fio;
      t.seed = 7 + i;
      std::string name = "t";
      name += std::to_string(i);
      tenants.push_back({std::move(name), imgs[i].get(), t,
                         /*background=*/false});
    }
    workload::MultiFioRunner multi(std::move(tenants));
    auto results = co_await multi.Run();
    if (!results.ok()) co_return false;
    for (const workload::FioTenantResult& r : *results) {
      point.iops += r.result.Iops();
      point.ops += r.result.ops;
      point.bytes += r.result.bytes;
    }
    for (auto& img : imgs) {
      if (!(co_await img->Flush()).ok()) co_return false;
    }
    co_await cluster.Drain();
    point.end_time = sim::Scheduler::Current().now();
    co_return true;
  };
  point.ok = RunOnCluster(PipelineCluster(), cores, body).ok;
  bench.Require(point.ok, "RunFioPoint cores=" + std::to_string(cores) +
                              " su=" + std::to_string(stripe_unit) +
                              " sc=" + std::to_string(stripe_count) +
                              " images=" + std::to_string(images));
  return point;
}

// Read and write latencies (sorted) of a closed loop of `queue_depth`
// workers doing random 4 KiB IO over a prefilled `working_set` of a
// `spec` image, `write_pct`% writes, on `cores` cores. The first
// `queue_depth` ops (the ramp) are not measured.
struct MixedLatencies {
  std::vector<sim::SimTime> reads;
  std::vector<sim::SimTime> writes;
};

MixedLatencies RunMixed(Bench& bench, const core::EncryptionSpec& spec,
                        unsigned cores, size_t queue_depth,
                        uint32_t write_pct, uint64_t ops,
                        uint64_t working_set) {
  MixedLatencies lat;
  auto body = [&](rados::Cluster& cluster) -> sim::Task<bool> {
    auto image = co_await rbd::Image::Create(cluster, "mixed", "pw",
                                             TestImage(spec, 1ull << 30));
    if (!image.ok()) co_return false;
    rbd::Image& img = **image;
    Rng rng(3);
    const Bytes fill = rng.RandomBytes(1 << 20);
    for (uint64_t off = 0; off < working_set; off += fill.size()) {
      if (!(co_await img.Write(off, fill)).ok()) co_return false;
    }
    const Bytes block(fill.begin(), fill.begin() + 4096);
    uint64_t issued = 0;
    bool ok = true;
    auto worker = [&]() -> sim::Task<void> {
      while (ok && issued < ops) {
        const bool measured = issued++ >= queue_depth;  // skip the ramp
        const uint64_t off = rng.NextBelow(working_set / 4096) * 4096;
        const bool write = rng.NextBelow(100) < write_pct;
        const sim::SimTime start = sim::Scheduler::Current().now();
        if (write) {
          ok = ok && (co_await img.Write(off, block)).ok();
        } else {
          ok = ok && (co_await img.Read(off, 4096)).ok();
        }
        if (measured) {
          (write ? lat.writes : lat.reads)
              .push_back(sim::Scheduler::Current().now() - start);
        }
      }
    };
    std::vector<sim::Task<void>> workers;
    for (size_t i = 0; i < queue_depth; ++i) workers.push_back(worker());
    co_await sim::WhenAll(std::move(workers));
    co_await cluster.Drain();
    co_return ok;
  };
  const bool ok = RunOnCluster(PipelineCluster(), cores, body).ok;
  bench.Require(ok && (write_pct == 100 || !lat.reads.empty()) &&
                    (write_pct == 0 || !lat.writes.empty()),
                "RunMixed qd=" + std::to_string(queue_depth) +
                    " write_pct=" + std::to_string(write_pct));
  std::sort(lat.reads.begin(), lat.reads.end());
  std::sort(lat.writes.begin(), lat.writes.end());
  return lat;
}

// Quantile `q` of sorted latencies in us: the sample at rank
// floor((n - 1) * q); 0 when there are none.
double QuantileUs(const std::vector<sim::SimTime>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto rank =
      static_cast<size_t>(static_cast<double>(sorted.size() - 1) * q);
  return static_cast<double>(sorted[rank]) / 1e3;
}

workload::FioConfig SeqWriteFio(uint64_t ops, size_t queue_depth) {
  workload::FioConfig fio;
  fio.is_write = true;
  fio.pattern = workload::FioConfig::Pattern::kSequential;
  fio.io_size = 4096;
  fio.queue_depth = queue_depth;
  fio.total_ops = ops;
  return fio;
}

workload::FioConfig RandWriteFio(uint64_t ops) {
  workload::FioConfig fio;
  fio.is_write = true;
  fio.pattern = workload::FioConfig::Pattern::kRandom;
  fio.io_size = 4096;
  fio.queue_depth = 8;
  fio.total_ops = ops;
  fio.working_set = 256ull << 20;  // ~64 objects: spreads shards evenly
  return fio;
}

}  // namespace

int main(int argc, char** argv) {
  Bench bench("pipeline", argc, argv);
  const bool quick = bench.quick();

  // --- Gate 1: 1-core model == disabled model, exactly ------------------
  {
    const workload::FioConfig fio = SeqWriteFio(quick ? 256 : 1024, 1);
    const PipePoint off = RunFioPoint(bench, 0, 0, 1, 1, fio);
    const PipePoint one = RunFioPoint(bench, 1, 0, 1, 1, fio);
    std::printf("Clock identity (qd=1 seq 4K write, no stripe)\n");
    std::printf("  disabled %llu ns vs 1-core %llu ns\n",
                static_cast<unsigned long long>(off.end_time),
                static_cast<unsigned long long>(one.end_time));
    bench.Gate("clock_identity",
               off.ok && one.ok && off.end_time == one.end_time &&
                   off.ops == one.ops && off.bytes == one.bytes,
               "the 1-core model lands on the disabled model's clock",
               {{"disabled_ns", off.end_time}, {"one_core_ns", one.end_time}});
  }

  // --- Gate 2: striping beats the contiguous layout ---------------------
  {
    const workload::FioConfig fio = SeqWriteFio(quick ? 1500 : 6000, 32);
    const PipePoint flat = RunFioPoint(bench, 4, 0, 1, 1, fio);
    const PipePoint striped = RunFioPoint(bench, 4, 16 * 1024, 8, 1, fio);
    const double ratio =
        flat.iops > 0 ? striped.iops / flat.iops : 0;
    std::printf("\nStriping (4 cores, seq 4K write qd=32)\n");
    std::printf("  %-22s %10.0f iops\n", "contiguous 4M", flat.iops);
    std::printf("  %-22s %10.0f iops  (%.2fx, need >=1.30x)\n",
                "su=16K sc=8", striped.iops, ratio);
    bench.Gate("striping", flat.ok && striped.ok && ratio >= 1.3,
               "su=16K sc=8 >= 1.30x the contiguous layout at 4 cores",
               {{"contiguous_iops", flat.iops},
                {"striped_iops", striped.iops},
                {"ratio", ratio}});
  }

  // --- Gate 3: multi-tenant aggregate scales with cores -----------------
  {
    const workload::FioConfig fio = RandWriteFio(quick ? 700 : 2000);
    const PipePoint c1 = RunFioPoint(bench, 1, 0, 1, 4, fio);
    const PipePoint c2 = RunFioPoint(bench, 2, 0, 1, 4, fio);
    const PipePoint c4 = RunFioPoint(bench, 4, 0, 1, 4, fio);
    const double s2 = c1.iops > 0 ? c2.iops / c1.iops : 0;
    const double s4 = c1.iops > 0 ? c4.iops / c1.iops : 0;
    std::printf("\nCore scaling (4 tenants, rand 4K write qd=8 each)\n");
    std::printf("  %-8s %12s %8s\n", "cores", "agg_iops", "scale");
    std::printf("  %-8d %12.0f %8s\n", 1, c1.iops, "1.00x");
    std::printf("  %-8d %12.0f %7.2fx  (need >=1.70x)\n", 2, c2.iops, s2);
    std::printf("  %-8d %12.0f %7.2fx  (need >=3.00x)\n", 4, c4.iops, s4);
    bench.Gate("scaling",
               c1.ok && c2.ok && c4.ok && s2 >= 1.7 && s4 >= 3.0,
               "4-tenant aggregate IOPS >= 1.70x at 2 cores, >= 3.00x at 4",
               {{"iops_1", c1.iops},
                {"iops_2", c2.iops},
                {"iops_4", c4.iops},
                {"x2", s2},
                {"x4", s4}});
  }
  // --- Gate 4: mixed-load reads complete at the uncontended latency ---
  {
    constexpr uint64_t kWorkingSet = 256ull << 20;  // 64 objects
    const double alone = QuantileUs(
        RunMixed(bench, {}, 4, 1, 0, quick ? 64 : 256, kWorkingSet).reads,
        0.5);
    const double mixed = QuantileUs(
        RunMixed(bench, {}, 4, 32, 30, quick ? 1500 : 6000, kWorkingSet)
            .reads,
        0.5);
    const double ratio = alone > 0 ? mixed / alone : 0;
    std::printf("\nRead completion (4 cores, rand 4K, 70/30 read/write)\n");
    std::printf("  %-22s %10.1f us\n", "qd=1 read-only p50", alone);
    std::printf("  %-22s %10.1f us  (%.3fx, need <=1.020x)\n",
                "qd=32 mixed read p50", mixed, ratio);
    bench.Gate("read_completion", alone > 0 && ratio <= 1.02,
               "qd=32 mixed read p50 within 2% of the qd=1 read-only p50",
               {{"alone_p50_us", alone},
                {"mixed_p50_us", mixed},
                {"ratio", ratio}});
  }
  // --- Gate 5: OMAP writes do not wait for one object core's backlog ---
  {
    constexpr uint64_t kWorkingSet = 256ull << 20;  // 64 objects
    core::EncryptionSpec omap_hmac{core::CipherMode::kXtsRandom,
                                   core::IvLayout::kOmap};
    omap_hmac.integrity = core::Integrity::kHmac;
    const double alone = QuantileUs(
        RunMixed(bench, omap_hmac, 4, 1, 100, quick ? 64 : 256, kWorkingSet)
            .writes,
        0.5);
    const double p99 = QuantileUs(
        RunMixed(bench, omap_hmac, 4, 32, 30, quick ? 1500 : 6000,
                 kWorkingSet)
            .writes,
        0.99);
    const double ratio = alone > 0 ? p99 / alone : 0;
    std::printf("\nkv lane (4 cores, OMAP+HMAC, rand 4K, 70/30 read/write)\n");
    std::printf("  %-22s %10.1f us\n", "qd=1 write-only p50", alone);
    std::printf("  %-22s %10.1f us  (%.3fx, need <=%.3fx)\n",
                "qd=32 mixed write p99", p99, ratio, kKvLaneMaxRatio);
    bench.Gate("kv_lane", alone > 0 && ratio <= kKvLaneMaxRatio,
               "qd=32 mixed OMAP write p99 within the kv-lane bound of the "
               "qd=1 write latency",
               {{"alone_p50_us", alone},
                {"mixed_p99_us", p99},
                {"ratio", ratio}});
  }
  return bench.Finish();
}
