// Scale-out data plane: placement-v2 scaling, failure + recovery, and
// cluster-side mClock QoS, each with a self-gating acceptance check.
//
// Sections:
//
//   scaling    aggregate rand-4K read IOPS against 9 / 18 / 27 OSDs
//              (3 nodes, fixed client). Placement v2 must spread PGs well
//              enough that capacity scales: 18 OSDs >= 1.6x the 9-OSD
//              aggregate, 27 >= 2.2x.
//   failure    a verifying fio run (4K randread, replication 3) loses an
//              OSD mid-run. Acceptance: the run completes with ZERO verify
//              errors and background recovery returns the degraded object
//              count to zero. Pushes ship the survivors' pages: the
//              arena's live pages after recovery may exceed those before
//              the kill by at most one per 16 pushed pages (a copy would
//              cost one per pushed page).
//   qos        noisy neighbor through the cluster-side mClock dequeue: a
//              reserved victim's p99 under a weight-heavy aggressor must
//              stay within 1.3x of its solo p99.
//   identity   the pay-to-use contract: mClock with one untagged tenant on
//              a healthy cluster lands on the exact same simulated clock
//              as qos off (every op admitted as tenant 0), and a healthy
//              run drives zero map refreshes / redirects / recovery work.
//
// Artifacts: writes bench-cluster.json (per-section numbers + gate
// verdicts). Exit non-zero if any gate fails.
//
// Usage: bench_cluster [--quick]
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"
#include "util/rng.h"

namespace {

using namespace vde;
using namespace vde::bench;

// --- scaling ---

rados::ClusterConfig ScaleCluster(size_t osds_per_node) {
  rados::ClusterConfig config;
  config.nodes = 3;
  config.osds_per_node = osds_per_node;
  config.replication = 3;
  config.pg_count = 256;
  return config;
}

struct ScalePoint {
  double iops = 0;
  bool ok = false;
};

sim::Task<void> PrefillObjects(rados::Cluster& cluster, uint32_t objects,
                               size_t data_bytes) {
  sim::WaitGroup wg;
  const size_t fillers = 64;
  for (size_t f = 0; f < fillers; ++f) {
    wg.Add(1);
    sim::Scheduler::Current().Spawn(
        [](rados::Cluster* c, size_t f, size_t fillers, uint32_t objects,
           size_t data_bytes, sim::WaitGroup* wg) -> sim::Task<void> {
          auto io = c->ioctx();
          Rng rng(1000 + f);
          const Bytes data = rng.RandomBytes(data_bytes);
          for (uint32_t i = static_cast<uint32_t>(f); i < objects;
               i += fillers) {
            co_await io.WriteFull("o." + std::to_string(i), data);
          }
          wg->Done();
        }(&cluster, f, fillers, objects, data_bytes, &wg));
  }
  co_await wg.Wait();
}

ScalePoint RunScalePoint(size_t osds_per_node, size_t workers,
                         uint64_t reads_per_worker, uint32_t objects) {
  ScalePoint out;
  auto body = [&](rados::Cluster& cluster) -> sim::Task<bool> {
    co_await PrefillObjects(cluster, objects, 4096);
    co_await cluster.Drain();

    const sim::SimTime t0 = sim::Scheduler::Current().now();
    sim::WaitGroup wg;
    bool failed = false;
    for (size_t w = 0; w < workers; ++w) {
      wg.Add(1);
      sim::Scheduler::Current().Spawn(
          [](rados::Cluster* c, size_t w, uint64_t n, uint32_t objects,
             sim::WaitGroup* wg, bool* failed) -> sim::Task<void> {
            auto io = c->ioctx();
            Rng rng(w * 7919 + 17);
            for (uint64_t i = 0; i < n; ++i) {
              auto r = co_await io.Read(
                  "o." + std::to_string(rng.NextBelow(objects)), 0, 4096);
              if (!r.ok()) *failed = true;
            }
            wg->Done();
          }(&cluster, w, reads_per_worker, objects, &wg, &failed));
    }
    co_await wg.Wait();
    const sim::SimTime elapsed = sim::Scheduler::Current().now() - t0;
    if (failed || elapsed == 0) co_return false;
    out.iops = static_cast<double>(workers * reads_per_worker) * 1e9 /
               static_cast<double>(elapsed);
    co_return true;
  };
  out.ok = RunOnCluster(ScaleCluster(osds_per_node), 0, body).ok;
  return out;
}

// --- failure + recovery ---

struct FailurePoint {
  bool run_ok = false;
  size_t degraded_after = 0;
  uint64_t recovered = 0;   // background pushes + inline pulls
  uint64_t map_epoch = 0;
  uint64_t pushed_pages = 0;  // recovery bytes pushed, in 4 KiB pages
  int64_t arena_growth = 0;   // arena live pages after clean - before kill
  double iops = 0;
  bool pass = false;        // ran to completion, verify clean, recovered
};

sim::Task<void> KillOsdAfter(rados::Cluster& cluster, sim::SimTime at,
                             size_t osd) {
  co_await sim::Sleep{at};
  cluster.MarkOsdDown(osd);
}

FailurePoint RunFailurePoint(uint64_t ops, sim::SimTime kill_at) {
  FailurePoint out;
  auto body = [&](rados::Cluster& cluster) -> sim::Task<bool> {
    auto image = co_await rbd::Image::Create(cluster, "kill", "pw",
                                             TestImage({}, 1ull << 30));
    if (!image.ok()) co_return false;

    workload::FioConfig fio;
    fio.io_size = 4096;
    fio.queue_depth = 16;
    fio.total_ops = ops;
    fio.working_set = 96ull << 20;  // 24 rados objects: osd.0 owns a few
    fio.verify = true;
    workload::FioRunner runner(**image, fio);
    if (!(co_await runner.Prefill()).ok()) co_return false;
    co_await cluster.Drain();

    const size_t live = dev::SparseRam::ArenaLivePages();
    sim::Scheduler::Current().Spawn(KillOsdAfter(cluster, kill_at, 0));
    auto result = co_await runner.Run();
    out.run_ok = result.ok();  // a verify mismatch fails the run
    if (result.ok()) out.iops = result->Iops();

    co_await cluster.WaitForClean();
    out.degraded_after = cluster.DegradedObjectCount();
    const rados::RecoveryStats& rs = cluster.recovery().stats();
    out.recovered = rs.objects_pushed + rs.inline_pulls;
    out.map_epoch = cluster.placement().map().epoch();
    co_await cluster.Drain();
    out.pushed_pages = rs.bytes_pushed / dev::SparseRam::kPageSize;
    out.arena_growth = static_cast<int64_t>(dev::SparseRam::ArenaLivePages()) -
                       static_cast<int64_t>(live);
    co_return true;
  };
  out.pass = RunOnCluster(PaperCluster(), 0, body).ok && out.run_ok &&
             out.degraded_after == 0 && out.recovered > 0;
  return out;
}

// --- cluster-side mClock noisy neighbor ---

struct QosPoint {
  double p50_us = 0;
  double p99_us = 0;
  bool ok = false;
};

double PercentileUs(std::vector<sim::SimTime>& samples, double pct) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t idx = std::min(
      samples.size() - 1,
      static_cast<size_t>(pct / 100.0 * static_cast<double>(samples.size())));
  return static_cast<double>(samples[idx]) / 1e3;
}

// Victim: sequential 4K object reads under tenant 2, latency per op.
sim::Task<void> MeasureVictim(rados::Cluster& cluster, uint64_t ops,
                              uint32_t objects, QosPoint* out) {
  auto io = cluster.ioctx(2);
  Rng rng(42);
  std::vector<sim::SimTime> lat;
  lat.reserve(ops);
  for (uint64_t i = 0; i < ops; ++i) {
    const sim::SimTime t0 = sim::Scheduler::Current().now();
    auto r = co_await io.Read("o." + std::to_string(rng.NextBelow(objects)),
                              0, 4096);
    if (!r.ok()) co_return;
    lat.push_back(sim::Scheduler::Current().now() - t0);
  }
  out->p50_us = PercentileUs(lat, 50);
  out->p99_us = PercentileUs(lat, 99);
  out->ok = true;
}

QosPoint RunQosScenario(bool contended, bool mclock_on,
                        uint64_t victim_ops) {
  QosPoint out;
  // 3 OSDs (one per node): few enough shards to flood. The aggressor's
    // service quantum is what bounds the victim's wait under mClock (no
    // preemption — the victim rides the next free shard), so the scenario
    // uses a cheaper write op to keep that bound well under the victim's
  // own service time while the backlog still drowns FIFO.
  rados::ClusterConfig config = ScaleCluster(1);
  config.costs.write_op = 170 * sim::kUs;
  config.qos.enabled = mclock_on;
  config.qos.tenants.push_back(rados::TenantSpec{
      /*id=*/1, /*reservation_iops=*/0, /*weight=*/4.0, /*limit_iops=*/0});
  config.qos.tenants.push_back(rados::TenantSpec{
      /*id=*/2, /*reservation_iops=*/4000, /*weight=*/1.0,
      /*limit_iops=*/0});
  auto body = [&](rados::Cluster& cluster) -> sim::Task<bool> {
    const uint32_t objects = 512;
    co_await PrefillObjects(cluster, objects, 4096);
    co_await cluster.Drain();

    bool stop = false;
    sim::WaitGroup wg;
    if (contended) {
      // Weight-heavy writers hammering every OSD through tenant 1.
      for (int w = 0; w < 128; ++w) {
        wg.Add(1);
        sim::Scheduler::Current().Spawn(
            [](rados::Cluster* c, bool* stop, sim::WaitGroup* wg,
               int seed) -> sim::Task<void> {
              auto io = c->ioctx(1);
              Rng rng(500 + seed);
              const Bytes data = rng.RandomBytes(4096);
              int i = 0;
              while (!*stop) {
                co_await io.WriteFull("agg." + std::to_string(seed) + "." +
                                          std::to_string(i++ % 8),
                                      data);
              }
              wg->Done();
            }(&cluster, &stop, &wg, w));
      }
      co_await sim::Sleep{20 * sim::kMs};  // let the backlog build
    }
    co_await MeasureVictim(cluster, victim_ops, objects, &out);
    stop = true;
    co_await wg.Wait();
    co_await cluster.Drain();
    co_return true;
  };
  out.ok = RunOnCluster(config, 0, body).ok && out.ok;
  return out;
}

// --- disabled-path identity ---

struct IdentityPoint {
  sim::SimTime end_time = 0;
  uint64_t control_events = 0;  // refreshes + redirects + timeouts +
                                // degraded writes + recovery activity
  bool ok = false;
};

IdentityPoint RunIdentityPoint(bool mclock_on) {
  IdentityPoint out;
  rados::ClusterConfig config = ScaleCluster(3);
  config.qos.enabled = mclock_on;
  auto body = [&](rados::Cluster& cluster) -> sim::Task<bool> {
    const uint32_t objects = 128;
    co_await PrefillObjects(cluster, objects, 8192);
    co_await cluster.Drain();
    sim::WaitGroup wg;
    for (size_t w = 0; w < 32; ++w) {
      wg.Add(1);
      sim::Scheduler::Current().Spawn(
          [](rados::Cluster* c, size_t w, uint32_t objects,
             sim::WaitGroup* wg) -> sim::Task<void> {
            auto io = c->ioctx();
            Rng rng(w + 1);
            const Bytes data = rng.RandomBytes(8192);
            for (int i = 0; i < 12; ++i) {
              const std::string oid =
                  "o." + std::to_string(rng.NextBelow(objects));
              if (rng.NextBool(0.5)) {
                co_await io.WriteFull(oid, data);
              } else {
                co_await io.Read(oid, 0, 4096);
              }
            }
            wg->Done();
          }(&cluster, w, objects, &wg));
    }
    co_await wg.Wait();
    co_await cluster.Drain();
    const rados::ClusterStats& cs = cluster.stats();
    const rados::RecoveryStats& rs = cluster.recovery().stats();
    out.control_events = cs.map_refreshes + cs.eagain_redirects +
                         cs.osd_timeouts + cs.degraded_writes +
                         cs.skipped_replicas + rs.objects_pushed +
                         rs.inline_pulls;
    co_return true;
  };
  const RunResult run = RunOnCluster(config, 0, body);
  out.ok = run.ok;
  out.end_time = run.clock;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Bench bench("cluster", argc, argv);
  const bool quick = bench.quick();

  // --- scaling ---
  const size_t workers = quick ? 384 : 768;
  const uint64_t reads = quick ? 24 : 64;
  const uint32_t objects = 2048;
  std::printf("Scaling: rand-4K object reads, %zu clients x %llu ops, "
              "3 nodes, replication 3\n",
              workers, static_cast<unsigned long long>(reads));
  const ScalePoint p9 = RunScalePoint(3, workers, reads, objects);
  const ScalePoint p18 = RunScalePoint(6, workers, reads, objects);
  const ScalePoint p27 = RunScalePoint(9, workers, reads, objects);
  const double x18 = p9.iops > 0 ? p18.iops / p9.iops : 0;
  const double x27 = p9.iops > 0 ? p27.iops / p9.iops : 0;
  std::printf("  %2d OSDs: %9.0f IOPS\n  %2d OSDs: %9.0f IOPS (%.2fx)\n"
              "  %2d OSDs: %9.0f IOPS (%.2fx)\n",
              9, p9.iops, 18, p18.iops, x18, 27, p27.iops, x27);
  bench.Gate("scaling",
             p9.ok && p18.ok && p27.ok && x18 >= 1.6 && x27 >= 2.2,
             "18 OSDs >= 1.6x, 27 >= 2.2x",
             {{"iops_9", p9.iops},
              {"iops_18", p18.iops},
              {"iops_27", p27.iops},
              {"x18", x18},
              {"x27", x27}});
  std::printf("\n");

  // --- failure + recovery ---
  const uint64_t kill_ops = quick ? 512 : 1536;
  const sim::SimTime kill_at = (quick ? 5 : 10) * sim::kMs;
  std::printf("Failure: verifying 4K randread fio run, osd.0 marked down "
              "%.0f ms in (%llu ops)\n",
              static_cast<double>(kill_at) / 1e6,
              static_cast<unsigned long long>(kill_ops));
  const FailurePoint fp = RunFailurePoint(kill_ops, kill_at);
  std::printf("  run %s | %0.f IOPS | recovered objects: %llu | degraded "
              "after recovery: %zu | map epoch: %llu\n",
              fp.run_ok ? "completed, verify clean" : "FAILED",
              fp.iops, static_cast<unsigned long long>(fp.recovered),
              fp.degraded_after,
              static_cast<unsigned long long>(fp.map_epoch));
  bench.Gate("failure", fp.pass, "zero verify errors, degraded back to 0",
             {{"verify_clean", fp.run_ok},
              {"recovered", fp.recovered},
              {"degraded_after", fp.degraded_after}});
  std::printf("  arena pages after recovery: %+lld for %llu pushed pages\n",
              static_cast<long long>(fp.arena_growth),
              static_cast<unsigned long long>(fp.pushed_pages));
  bench.Gate("recovery_pages",
             fp.pass && fp.pushed_pages > 0 &&
                 fp.arena_growth * 16 <= static_cast<int64_t>(fp.pushed_pages),
             "arena growth over recovery <= 1 page per 16 pushed",
             {{"arena_growth", fp.arena_growth},
              {"pushed_pages", fp.pushed_pages}});
  std::printf("\n");

  // --- qos ---
  const uint64_t victim_ops = quick ? 192 : 512;
  std::printf("Cluster QoS: reserved victim (4K reads, r=4000) vs "
              "weight-4 aggressor flood on 3 OSDs (%llu victim ops)\n",
              static_cast<unsigned long long>(victim_ops));
  const QosPoint solo =
      RunQosScenario(/*contended=*/false, /*mclock_on=*/true, victim_ops);
  const QosPoint contended_off =
      RunQosScenario(/*contended=*/true, /*mclock_on=*/false, victim_ops);
  const QosPoint contended_on =
      RunQosScenario(/*contended=*/true, /*mclock_on=*/true, victim_ops);
  const double off_ratio =
      solo.p99_us > 0 ? contended_off.p99_us / solo.p99_us : 0;
  const double on_ratio =
      solo.p99_us > 0 ? contended_on.p99_us / solo.p99_us : 0;
  std::printf("  %-18s | p50 %7.0f us | p99 %7.0f us\n", "victim solo",
              solo.p50_us, solo.p99_us);
  std::printf("  %-18s | p50 %7.0f us | p99 %7.0f us (%.1fx solo)\n",
              "contended, FIFO", contended_off.p50_us, contended_off.p99_us,
              off_ratio);
  std::printf("  %-18s | p50 %7.0f us | p99 %7.0f us (%.1fx solo)\n",
              "contended, mClock", contended_on.p50_us, contended_on.p99_us,
              on_ratio);
  bench.Gate("qos", solo.ok && contended_on.ok && on_ratio <= 1.3,
             "mClock victim p99 <= 1.3x solo",
             {{"solo_p99_us", solo.p99_us},
              {"fifo_p99_us", contended_off.p99_us},
              {"mclock_p99_us", contended_on.p99_us},
              {"mclock_ratio", on_ratio}});
  std::printf("\n");

  // --- identity ---
  std::printf("Pay-to-use identity: healthy mixed workload, mClock single "
              "tenant vs qos off\n");
  const IdentityPoint plain = RunIdentityPoint(/*mclock_on=*/false);
  const IdentityPoint single = RunIdentityPoint(/*mclock_on=*/true);
  const bool identical =
      plain.ok && single.ok && plain.end_time == single.end_time;
  const long long clock_delta = static_cast<long long>(single.end_time) -
                                static_cast<long long>(plain.end_time);
  std::printf("  clock delta %lld ns %s | healthy-run control events: %llu\n",
              clock_delta, identical ? "(identical)" : "(OVERHEAD!)",
              static_cast<unsigned long long>(plain.control_events));
  bench.Gate("identity",
             identical && plain.control_events == 0 &&
                 single.control_events == 0,
             "same sim clock, zero map/recovery traffic when healthy",
             {{"clock_delta_ns", clock_delta},
              {"control_events", plain.control_events}});
  return bench.Finish();
}
