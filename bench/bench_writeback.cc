// Write-back coalescing on the database-style 512 B stream (the paper's
// worst case for length-preserving encryption plus per-sector metadata,
// §3.1): object-store transactions and RMW block reads per guest write,
// with the per-image write-back buffer off (head behavior: one RMW read +
// one transaction per sub-block write) vs on (adjacent writes merge in the
// staging buffer and flush once per block/window).
//
// Usage: bench_writeback [--quick]
#include <cstdio>

#include "harness.h"

namespace {

using namespace vde;
using namespace vde::bench;

struct WbPoint {
  double txns_per_write = 0;
  double rmw_per_write = 0;
  double p50_us = 0;
  double p99_us = 0;
  double iops = 0;
  uint64_t wb_hits = 0;
  uint64_t wb_flushes = 0;
};

// Single replica so store transaction counts map 1:1 to client
// transactions (replication multiplies both sides equally anyway).
WbPoint RunDbPoint(Bench& bench, const core::EncryptionSpec& spec,
                   bool coalesce, uint64_t ops) {
  WbPoint point;
  const RunResult run = RunOnCluster(
      SmallCluster(), 0, [&](rados::Cluster& cluster) -> sim::Task<bool> {
        rbd::ImageOptions options = TestImage(spec, 1ull << 30);
        options.writeback.coalesce = coalesce;
        auto image =
            co_await rbd::Image::Create(cluster, "wbbench", "pw", options);
        if (!image.ok()) co_return false;
        auto& img = **image;

        workload::FioConfig fio = workload::FioConfig::Db();
        fio.total_ops = ops;
        fio.working_set = 64ull << 20;
        workload::FioRunner runner(img, fio);
        if (!(co_await runner.Prefill()).ok()) co_return false;
        if (!(co_await img.Flush()).ok()) co_return false;
        co_await cluster.Drain();

        const obs::Metrics before = img.MetricsSnapshot();
        auto result = co_await runner.Run();
        if (!result.ok()) co_return false;
        // The durability barrier: staged blocks flush here and count too.
        if (!(co_await img.Flush()).ok()) co_return false;
        co_await cluster.Drain();

        const obs::Metrics after = img.MetricsSnapshot();
        const obs::Metrics d = after.DeltaSince(before);
        const double writes =
            static_cast<double>(d.CounterOr("image.writes"));
        point.txns_per_write =
            static_cast<double>(d.CounterOr("cluster.store.transactions")) /
            writes;
        point.rmw_per_write =
            static_cast<double>(d.CounterOr("image.rmw_blocks")) / writes;
        point.p50_us = result->latency_ns.Percentile(50) / 1000.0;
        point.p99_us = result->latency_ns.Percentile(99) / 1000.0;
        point.iops = result->Iops();
        point.wb_hits = after.CounterOr("image.wb_hits");
        point.wb_flushes = after.CounterOr("image.wb_flushes");
        co_return true;
      });
  bench.Require(run.ok, "RunDbPoint " + spec.Name() +
                            (coalesce ? " coalesce=1" : " coalesce=0"));
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  Bench bench("writeback", argc, argv);
  const uint64_t ops = bench.quick() ? 1024 : 4096;

  std::printf("Write-back coalescing, db workload (512 B sequential stream, "
              "QD=8, %llu ops)\n",
              static_cast<unsigned long long>(ops));
  std::printf("%12s | %-25s | %-25s | speedup\n", "",
              "write-back OFF (head)", "write-back ON");
  std::printf("%12s | %12s %12s | %12s %12s |\n", "config", "txns/write",
              "rmw/write", "txns/write", "rmw/write");
  for (const auto& named : PaperSpecs()) {
    const WbPoint off = RunDbPoint(bench, named.spec, /*coalesce=*/false, ops);
    const WbPoint on = RunDbPoint(bench, named.spec, /*coalesce=*/true, ops);
    std::printf("%12s | %12.3f %12.3f | %12.3f %12.3f | %5.1fx txns  "
                "(hits=%llu flushes=%llu, p50 %0.0fus -> %0.0fus)\n",
                named.name, off.txns_per_write, off.rmw_per_write,
                on.txns_per_write, on.rmw_per_write,
                on.txns_per_write > 0
                    ? off.txns_per_write / on.txns_per_write
                    : 0.0,
                static_cast<unsigned long long>(on.wb_hits),
                static_cast<unsigned long long>(on.wb_flushes), off.p50_us,
                on.p50_us);
    std::fflush(stdout);
  }
  return bench.Finish();
}
