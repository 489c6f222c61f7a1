// Multi-tenant QoS: noisy-neighbor isolation on one shared client.
//
// Scenario: a latency-sensitive victim (4 KiB random reads) and a
// bandwidth-hungry aggressor (64 KiB deep-queue write stream) serve from
// the same client process against the same small cluster. Three runs:
//
//   solo       victim alone — the baseline p99
//   qos off    both tenants, unbounded dispatch (head behavior): the
//              aggressor floods the OSDs and the victim's tail collapses
//   qos on     both tenants on one qos::Scheduler: the aggressor is
//              rate-limited (bandwidth bucket) and depth-capped
//
// Acceptance: with QoS on, victim p99 stays within 2x of solo while the
// aggressor moves at most its bandwidth cap times its window plus the
// bucket's burst; with QoS off the victim degrades well past 2x.
// A second table shows the passthrough requirement: a disabled policy must
// not move the simulated clock by a single nanosecond on the fig3/fig4
// single-image shapes.
//
// Usage: bench_qos [--quick]
#include <cstdio>

#include "harness.h"
#include "qos/scheduler.h"

namespace {

using namespace vde;
using namespace vde::bench;

rbd::ImageOptions TenantImage(std::shared_ptr<qos::Scheduler> qos,
                              qos::QosPolicy policy) {
  rbd::ImageOptions o = TestImage(
      {core::CipherMode::kXtsRandom, core::IvLayout::kObjectEnd}, 4ull << 30);
  o.qos_scheduler = std::move(qos);
  o.qos = policy;
  return o;
}

struct TenantPoint {
  double p50_us = 0;
  double p99_us = 0;
  double iops = 0;
  double mbps = 0;
  uint64_t bytes = 0;
  sim::SimTime duration = 0;
  uint64_t ops = 0;
  uint64_t throttled = 0;
  bool ok = false;
};

workload::FioConfig VictimFio(uint64_t ops) {
  workload::FioConfig fio;
  fio.io_size = 4096;
  fio.queue_depth = 8;
  fio.total_ops = ops;
  fio.working_set = 64ull << 20;
  return fio;
}

enum class Mode { kSolo, kContendedOff, kContendedOn };

// The QoS-on aggressor's bandwidth ceiling. Its bucket holds the default
// burst: 100 ms of that rate.
constexpr uint64_t kAggressorBps = 64ull << 20;
constexpr double kAggressorBurstBytes = kAggressorBps / 10.0;

// One full scenario on a fresh cluster. The aggressor runs as a background
// tenant: it hammers for exactly as long as the victim measures.
void RunScenario(Bench& bench, Mode mode, uint64_t victim_ops,
                 TenantPoint* victim, TenantPoint* aggressor) {
  auto body = [&](rados::Cluster& cluster) -> sim::Task<bool> {

    std::shared_ptr<qos::Scheduler> qos;
    qos::QosPolicy victim_policy, aggressor_policy;
    if (mode == Mode::kContendedOn) {
      // Isolation against a bandwidth hog comes from capping the hog:
      // the depth cap bounds how many heavy 64K writes sit in the OSD
      // queues at once, and the bandwidth bucket holds its sustained
      // rate to the ceiling. (Weights arbitrate a finite slot pool,
      // which this scenario deliberately leaves unbounded: squeezing the
      // victim's own dispatch window would hurt the latencies we
      // protect; weighted sharing is covered by tests/qos/.)
      qos = std::make_shared<qos::Scheduler>();
      victim_policy.enabled = true;
      aggressor_policy.enabled = true;
      aggressor_policy.max_bps = kAggressorBps;
      aggressor_policy.max_queue_depth = 4;
    }
    auto victim_img = co_await rbd::Image::Create(
        cluster, "victim", "pw", TenantImage(qos, victim_policy));
    if (!victim_img.ok()) co_return false;

    workload::FioConfig victim_fio = VictimFio(victim_ops);
    workload::FioRunner victim_runner(**victim_img, victim_fio);
    if (!(co_await victim_runner.Prefill()).ok()) co_return false;
    if (!(co_await (*victim_img)->Flush()).ok()) co_return false;
    co_await cluster.Drain();

    if (mode == Mode::kSolo) {
      auto result = co_await victim_runner.Run();
      if (!result.ok()) co_return false;
      victim->p50_us = result->latency_ns.Percentile(50) / 1e3;
      victim->p99_us = result->latency_ns.Percentile(99) / 1e3;
      victim->iops = result->Iops();
      victim->ops = result->ops;
      victim->ok = true;
      co_return true;
    }

    auto aggressor_img = co_await rbd::Image::Create(
        cluster, "aggressor", "pw", TenantImage(qos, aggressor_policy));
    if (!aggressor_img.ok()) co_return false;
    workload::FioConfig aggressor_fio;
    aggressor_fio.is_write = true;
    aggressor_fio.io_size = 64 * 1024;
    aggressor_fio.queue_depth = 32;
    aggressor_fio.total_ops = 1u << 30;  // bounded by the victim finishing
    aggressor_fio.working_set = 256ull << 20;

    workload::MultiFioRunner multi({
        {"victim", victim_img->get(), victim_fio, /*background=*/false},
        {"aggressor", aggressor_img->get(), aggressor_fio,
         /*background=*/true},
    });
    auto results = co_await multi.Run();
    if (!results.ok()) co_return false;
    const workload::FioResult& v = (*results)[0].result;
    const workload::FioResult& a = (*results)[1].result;
    victim->p50_us = v.latency_ns.Percentile(50) / 1e3;
    victim->p99_us = v.latency_ns.Percentile(99) / 1e3;
    victim->iops = v.Iops();
    victim->ops = v.ops;
    victim->throttled = v.metrics.CounterOr("image.qos_throttled");
    victim->ok = true;
    aggressor->mbps = a.BandwidthMBps();
    aggressor->bytes = a.bytes;
    aggressor->duration = a.duration;
    aggressor->ops = a.ops;
    aggressor->throttled = a.metrics.CounterOr("image.qos_throttled");
    aggressor->ok = true;
    if (!(co_await (*victim_img)->Flush()).ok()) co_return false;
    if (!(co_await (*aggressor_img)->Flush()).ok()) co_return false;
    co_await cluster.Drain();
    co_return true;
  };
  victim->ok = RunOnCluster(SmallCluster(), 0, body).ok && victim->ok;
  bench.Require(victim->ok,
                "scenario (mode " + std::to_string(static_cast<int>(mode)) +
                    ")");
}

// Passthrough check: the same single-image point with no scheduler vs an
// attached-but-disabled one must land on the identical simulated clock.
struct PassthroughPoint {
  sim::SimTime end_time = 0;
  double mbps = 0;
  bool ok = false;
};

PassthroughPoint RunPassthroughPoint(uint64_t io_size, bool is_write,
                                     bool attach, uint64_t ops) {
  PassthroughPoint out;
  auto body = [&](rados::Cluster& cluster) -> sim::Task<bool> {
    std::shared_ptr<qos::Scheduler> qos;
    if (attach) qos = std::make_shared<qos::Scheduler>();
    auto image = co_await rbd::Image::Create(
        cluster, "pt", "pw", TenantImage(qos, qos::QosPolicy{}));
    if (!image.ok()) co_return false;
    workload::FioConfig fio;
    fio.is_write = is_write;
    fio.io_size = io_size;
    fio.queue_depth = 32;
    fio.total_ops = ops;
    fio.working_set = 128ull << 20;
    workload::FioRunner runner(**image, fio);
    if (!is_write) {
      if (!(co_await runner.Prefill()).ok()) co_return false;
      co_await cluster.Drain();
    }
    auto result = co_await runner.Run();
    if (!result.ok()) co_return false;
    out.mbps = result->BandwidthMBps();
    co_return true;
  };
  const RunResult run = RunOnCluster(SmallCluster(), 0, body);
  out.ok = run.ok;
  out.end_time = run.clock;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Bench bench("qos", argc, argv);
  const bool quick = bench.quick();
  const uint64_t victim_ops = quick ? 256 : 1024;

  std::printf("Noisy neighbor: victim 4K randread QD8 vs aggressor 64K "
              "write QD32, one client (%llu victim ops)\n",
              static_cast<unsigned long long>(victim_ops));
  TenantPoint solo, off_v, off_a, on_v, on_a;
  RunScenario(bench, Mode::kSolo, victim_ops, &solo, nullptr);
  RunScenario(bench, Mode::kContendedOff, victim_ops, &off_v, &off_a);
  RunScenario(bench, Mode::kContendedOn, victim_ops, &on_v, &on_a);
  std::printf("%-18s | %9s %9s %9s | %12s\n", "scenario", "p50(us)",
              "p99(us)", "iops", "aggr MB/s");
  std::printf("%-18s | %9.0f %9.0f %9.0f | %12s\n", "victim solo",
              solo.p50_us, solo.p99_us, solo.iops, "-");
  std::printf("%-18s | %9.0f %9.0f %9.0f | %12.0f\n", "contended, QoS off",
              off_v.p50_us, off_v.p99_us, off_v.iops, off_a.mbps);
  std::printf("%-18s | %9.0f %9.0f %9.0f | %12.0f\n", "contended, QoS on",
              on_v.p50_us, on_v.p99_us, on_v.iops, on_a.mbps);
  const double degraded = solo.p99_us > 0 ? off_v.p99_us / solo.p99_us : 0;
  const double isolated = solo.p99_us > 0 ? on_v.p99_us / solo.p99_us : 0;
  // The bucket starts full, so over the aggressor's window it may move
  // its ceiling's worth of bytes plus one burst.
  const double window_s = static_cast<double>(on_a.duration) / sim::kSec;
  const double bound_bytes =
      static_cast<double>(kAggressorBps) * window_s + kAggressorBurstBytes;
  const double aggressor_bytes = static_cast<double>(on_a.bytes);
  std::printf("victim p99 vs solo: QoS off %.1fx, QoS on %.1fx "
              "(aggressor throttled %llu times)\n",
              degraded, isolated,
              static_cast<unsigned long long>(on_a.throttled));
  std::printf("aggressor with QoS on: %.1f MB in %.1f ms (%.0f MB/s), "
              "bound %.1f MB = cap x window + burst\n",
              aggressor_bytes / 1e6, window_s * 1e3, on_a.mbps,
              bound_bytes / 1e6);
  bench.Gate("isolation",
             solo.ok && off_v.ok && on_v.ok && on_a.ok && isolated <= 2.0 &&
                 degraded > isolated && aggressor_bytes <= bound_bytes,
             "QoS-on p99 within 2x of solo, aggressor bytes within the "
             "bound",
             {{"solo_p99_us", solo.p99_us},
              {"off_p99_us", off_v.p99_us},
              {"on_p99_us", on_v.p99_us},
              {"aggressor_bytes", aggressor_bytes},
              {"bound_bytes", bound_bytes}});
  std::printf("\n");

  std::printf("Passthrough overhead (disabled policy vs no scheduler, "
              "identical seeds)\n");
  const uint64_t pt_ops = quick ? 192 : 512;
  bool passthrough_ok = true;
  struct Shape {
    const char* name;
    uint64_t io_size;
    bool is_write;
  };
  const Shape shapes[] = {{"4K randread", 4096, false},
                          {"4K randwrite", 4096, true},
                          {"64K randread", 65536, false},
                          {"64K randwrite", 65536, true}};
  for (const Shape& s : shapes) {
    const PassthroughPoint bare =
        RunPassthroughPoint(s.io_size, s.is_write, /*attach=*/false, pt_ops);
    const PassthroughPoint attached =
        RunPassthroughPoint(s.io_size, s.is_write, /*attach=*/true, pt_ops);
    const bool same =
        bare.ok && attached.ok && bare.end_time == attached.end_time;
    passthrough_ok = passthrough_ok && same;
    std::printf("  %-13s %8.1f MB/s | clock delta %lld ns %s\n", s.name,
                attached.mbps,
                static_cast<long long>(attached.end_time) -
                    static_cast<long long>(bare.end_time),
                same ? "(identical)" : "(OVERHEAD!)");
  }
  bench.Gate("passthrough", passthrough_ok,
             "a disabled policy moves no sim clock on the fig3/fig4 shapes");
  return bench.Finish();
}
