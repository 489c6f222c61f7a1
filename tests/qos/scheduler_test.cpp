// qos::Scheduler unit tests, on synthetic tasks (no rbd): passthrough
// zero-overhead, FIFO order within a tenant, token-bucket pacing with
// timer-driven drain, per-tenant in-flight caps and a finite slot pool,
// weighted sharing of those slots, reservations, and the Acquire/Release
// entry point the OSDs use.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "../testutil.h"
#include "qos/scheduler.h"
#include "sim/sync.h"

namespace vde::qos {
namespace {

using sim::kMs;
using sim::kUs;
using testutil::RunSim;

// A dispatched probe: records its start time, models `service` of work,
// then records completion. `running`/`peak` observe real concurrency.
struct Probe {
  std::vector<sim::SimTime> started;
  std::vector<sim::SimTime> finished;
  int running = 0;
  int peak = 0;

  sim::Task<void> Job(sim::SimTime service) {
    started.push_back(sim::Scheduler::Current().now());
    running++;
    peak = std::max(peak, running);
    if (service > 0) co_await sim::Sleep{service};
    running--;
    finished.push_back(sim::Scheduler::Current().now());
  }
};

TEST(QosScheduler, DisabledPolicyIsPassthrough) {
  RunSim([]() -> sim::Task<void> {
    Scheduler qos;
    const TenantId t = qos.Attach(QosPolicy{});  // disabled by default
    Probe probe;
    co_await sim::Sleep{5 * kUs};
    qos.Submit(t, 1 << 20, true, probe.Job(0));
    co_await sim::Sleep{1};  // let the spawned task run
    // Dispatched at the submit instant, with no queueing and no stats.
    CO_ASSERT_EQ(probe.started.size(), 1u);
    EXPECT_EQ(probe.started[0], 5 * kUs);
    EXPECT_EQ(qos.stats(t).submitted, 0u);
    EXPECT_EQ(qos.total_queued(), 0u);
  });
}

TEST(QosScheduler, FifoWithinTenantAndUnlimitedPolicyDispatchesAtOnce) {
  RunSim([]() -> sim::Task<void> {
    Scheduler qos;
    QosPolicy p;
    p.enabled = true;  // no caps: queue is pass-shaped but unthrottled
    const TenantId t = qos.Attach(p);
    Probe probe;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i) {
      qos.Submit(t, 4096, true,
                 [](Probe* pr, std::vector<int>* ord, int idx)
                     -> sim::Task<void> {
                   ord->push_back(idx);
                   co_await pr->Job(10 * kUs);
                 }(&probe, &order, i));
    }
    co_await sim::Sleep{1 * kMs};
    CO_ASSERT_EQ(order.size(), 8u);
    for (int i = 0; i < 8; ++i) EXPECT_EQ(order[i], i) << "FIFO broken";
    // Unthrottled: everything dispatched at the submit instant.
    EXPECT_EQ(qos.stats(t).submitted, 8u);
    EXPECT_EQ(qos.stats(t).admitted, 8u);
    EXPECT_EQ(qos.stats(t).queued, 0u);
    EXPECT_EQ(qos.stats(t).throttled, 0u);
  });
}

TEST(QosScheduler, IopsBucketPacesDispatchAndTimerDrainsQueue) {
  RunSim([]() -> sim::Task<void> {
    Scheduler qos;
    QosPolicy p;
    p.enabled = true;
    p.max_iops = 1000;  // 1 op per ms
    p.burst_ops = 1;
    const TenantId t = qos.Attach(p);
    Probe probe;
    for (int i = 0; i < 5; ++i) qos.Submit(t, 4096, true, probe.Job(0));
    co_await sim::Sleep{20 * kMs};
    CO_ASSERT_EQ(probe.started.size(), 5u);
    // First rides the burst credit at t=0; the rest are paced ~1 ms apart
    // by the refill timer with no external events driving them.
    EXPECT_EQ(probe.started[0], 0u);
    for (size_t i = 1; i < 5; ++i) {
      const sim::SimTime gap = probe.started[i] - probe.started[i - 1];
      EXPECT_GE(gap, 1 * kMs - 10 * kUs) << "op " << i << " not paced";
      EXPECT_LE(gap, 1 * kMs + 100 * kUs) << "op " << i << " late";
    }
    EXPECT_EQ(qos.stats(t).admitted, 5u);
    EXPECT_GE(qos.stats(t).throttled, 4u);
    EXPECT_EQ(qos.stats(t).queued, 4u);
    EXPECT_GT(qos.stats(t).wait_ns, 0u);
    EXPECT_GE(qos.stats(t).peak_queue, 4u);
  });
}

TEST(QosScheduler, BandwidthBucketCapsBytesPerSecond) {
  RunSim([]() -> sim::Task<void> {
    Scheduler qos;
    QosPolicy p;
    p.enabled = true;
    p.max_bps = 10ull << 20;       // 10 MiB/s
    p.burst_bytes = 1ull << 20;    // 1 MiB burst
    const TenantId t = qos.Attach(p);
    Probe probe;
    // 8 MiB of demand in 1 MiB ops: burst passes one instantly, the rest
    // drain at 10 MiB/s => ~700ms for the remaining 7 MiB.
    for (int i = 0; i < 8; ++i) {
      qos.Submit(t, 1ull << 20, true, probe.Job(0));
    }
    co_await sim::Sleep{2000 * kMs};
    CO_ASSERT_EQ(probe.started.size(), 8u);
    const sim::SimTime last = probe.started.back();
    EXPECT_GE(last, 690 * kMs);
    EXPECT_LE(last, 710 * kMs);
  });
}

TEST(QosScheduler, PerTenantDepthCapBoundsInflight) {
  RunSim([]() -> sim::Task<void> {
    Scheduler qos;
    QosPolicy p;
    p.enabled = true;
    p.max_queue_depth = 2;
    const TenantId t = qos.Attach(p);
    Probe probe;
    for (int i = 0; i < 10; ++i) {
      qos.Submit(t, 4096, true, probe.Job(100 * kUs));
    }
    co_await sim::Sleep{10 * kMs};
    CO_ASSERT_EQ(probe.finished.size(), 10u);
    EXPECT_EQ(probe.peak, 2) << "in-flight cap violated";
    EXPECT_EQ(qos.stats(t).peak_inflight, 2u);
    EXPECT_GT(qos.stats(t).depth_deferred, 0u);
    EXPECT_EQ(qos.stats(t).inflight, 0u);
  });
}

TEST(QosScheduler, GlobalInflightCapSharedByWeight) {
  RunSim([]() -> sim::Task<void> {
    Scheduler qos(/*slots=*/4);  // the scarce, shared dispatch window
    QosPolicy p;
    p.enabled = true;
    const TenantId th = 1, tl = 2;
    qos.Configure(th, p, /*reservation_iops=*/0, /*weight=*/3);
    qos.Configure(tl, p, /*reservation_iops=*/0, /*weight=*/1);
    Probe ph, pl;
    // Equal demand, equal service cost; only weights differ.
    for (int i = 0; i < 120; ++i) {
      qos.Submit(th, 4096, true, ph.Job(100 * kUs));
      qos.Submit(tl, 4096, true, pl.Job(100 * kUs));
    }
    co_await sim::Sleep{50 * kMs};
    CO_ASSERT_EQ(ph.finished.size(), 120u);
    CO_ASSERT_EQ(pl.finished.size(), 120u);
    // The weight-3 tenant clears its backlog ~in 1/3 the light tenant's
    // span; while both are backlogged the light tenant still progresses
    // (proportional tags never starve a positive weight).
    const sim::SimTime heavy_done = ph.finished.back();
    const sim::SimTime light_done = pl.finished.back();
    EXPECT_LT(heavy_done, light_done);
    size_t light_before = 0;
    for (sim::SimTime f : pl.finished) light_before += f <= heavy_done;
    // Expected ~120/3 = 40 light completions by the heavy tenant's finish.
    EXPECT_GE(light_before, 20u) << "weighted victim starved";
    EXPECT_LE(light_before, 70u) << "weights not respected";
    EXPECT_EQ(qos.total_inflight(), 0u);
  });
}

TEST(QosScheduler, DepthCappedTenantDoesNotDelayAnother) {
  RunSim([]() -> sim::Task<void> {
    Scheduler qos(/*slots=*/4);
    QosPolicy capped;
    capped.enabled = true;
    capped.max_queue_depth = 1;
    const TenantId t = qos.Attach(capped);
    Probe probe;
    for (int i = 0; i < 3; ++i) {
      qos.Submit(t, 4096, true, probe.Job(100 * kUs));
    }
    // Tenant t sits at its cap with two ops queued, and three slots are
    // free: another tenant is admitted on arrival, without suspending.
    CO_ASSERT_EQ(qos.total_queued(), 2u);
    sim::Scheduler& sched = sim::Scheduler::Current();
    const uint64_t events = sched.events_processed();
    co_await qos.Acquire(/*tenant=*/7);
    EXPECT_EQ(sched.events_processed(), events) << "Acquire suspended";
    EXPECT_EQ(qos.stats(7).admitted, 1u);
    EXPECT_EQ(qos.total_inflight(), 2u);
    qos.Release(7);
    co_await sim::Sleep{1 * kMs};
    CO_ASSERT_EQ(probe.finished.size(), 3u);
    EXPECT_EQ(probe.peak, 1);
  });
}

TEST(QosScheduler, SingleTenantAcquireIsFifoSemaphore) {
  RunSim([]() -> sim::Task<void> {
    Scheduler qos(/*slots=*/2);
    std::vector<int> order;
    std::vector<sim::SimTime> started;
    sim::WaitGroup wg;
    for (int i = 0; i < 5; ++i) {
      wg.Add(1);
      sim::Scheduler::Current().Spawn(
          [](Scheduler* q, int idx, std::vector<int>* ord,
             std::vector<sim::SimTime>* at,
             sim::WaitGroup* wg) -> sim::Task<void> {
            co_await q->Acquire(0);
            ord->push_back(idx);
            at->push_back(sim::Scheduler::Current().now());
            co_await sim::Sleep{100 * kUs};
            q->Release(0);
            wg->Done();
          }(&qos, i, &order, &started, &wg));
    }
    co_await wg.Wait();
    CO_ASSERT_EQ(order.size(), 5u);
    const sim::SimTime want[] = {0, 0, 100 * kUs, 100 * kUs, 200 * kUs};
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(order[i], i) << "FIFO broken";
      EXPECT_EQ(started[i], want[i]) << "op " << i;
    }
    EXPECT_EQ(qos.stats(0).queued, 3u);
    EXPECT_EQ(qos.stats(0).wait_ns, 400 * kUs);
  });
}

TEST(QosScheduler, ReservationJumpsAWeightedBacklog) {
  RunSim([]() -> sim::Task<void> {
    Scheduler qos(/*slots=*/1);
    // By weight alone tenant 2 would run last: its first P tag is 100 s,
    // tenant 1's run 1/8 s apart from 0.
    qos.Configure(1, QosPolicy{}, /*reservation_iops=*/0, /*weight=*/8);
    qos.Configure(2, QosPolicy{}, /*reservation_iops=*/1000,
                  /*weight=*/0.01);
    std::vector<uint64_t> order;
    sim::WaitGroup wg;
    auto op = [](Scheduler* q, uint64_t tenant, std::vector<uint64_t>* ord,
                 sim::WaitGroup* wg) -> sim::Task<void> {
      co_await q->Acquire(tenant);
      ord->push_back(tenant);
      co_await sim::Sleep{100 * kUs};
      q->Release(tenant);
      wg->Done();
    };
    for (int i = 0; i < 16; ++i) {
      wg.Add(1);
      sim::Scheduler::Current().Spawn(op(&qos, 1, &order, &wg));
    }
    // At 1050 us tenant 1 has started 11 ops; its R tag (1 ms) is due.
    co_await sim::Sleep{1050 * kUs};
    wg.Add(1);
    sim::Scheduler::Current().Spawn(op(&qos, 2, &order, &wg));
    co_await wg.Wait();
    CO_ASSERT_EQ(order.size(), 17u);
    // It takes the next free slot, ahead of five queued weight-8 ops.
    EXPECT_EQ(order[11], 2u);
    EXPECT_EQ(qos.stats(2).reservation_dispatches, 1u);
    EXPECT_EQ(qos.stats(2).wait_ns, 50 * kUs);
    EXPECT_EQ(qos.stats(1).reservation_dispatches, 0u);
  });
}

TEST(QosScheduler, FlushLikeZeroCostSubmitNeverPaysTokens) {
  RunSim([]() -> sim::Task<void> {
    Scheduler qos;
    QosPolicy p;
    p.enabled = true;
    p.max_iops = 10;  // tight
    p.burst_ops = 1;
    const TenantId t = qos.Attach(p);
    Probe data, flush;
    qos.Submit(t, 4096, true, data.Job(0));
    qos.Submit(t, 0, /*charge=*/false, flush.Job(0));
    co_await sim::Sleep{1 * kMs};
    // The flush queues FIFO behind the data op but pays no tokens: both
    // dispatch at t=0 even though the ops bucket is drained.
    CO_ASSERT_EQ(data.started.size(), 1u);
    CO_ASSERT_EQ(flush.started.size(), 1u);
    EXPECT_EQ(flush.started[0], 0u);
    EXPECT_EQ(qos.stats(t).throttled, 0u);
  });
}

TEST(QosScheduler, LargeCostCrossesMultipleQuanta) {
  RunSim([]() -> sim::Task<void> {
    Scheduler qos;
    QosPolicy p;
    p.enabled = true;
    p.max_bps = 16 * 1024;  // one 4 MiB op is 256 s of bandwidth
    const TenantId t = qos.Attach(p);
    Probe probe;
    qos.Submit(t, 4ull << 20, true, probe.Job(0));
    qos.Submit(t, 4096, true, probe.Job(0));
    co_await sim::Sleep{1 * kMs};
    // Liveness: a full bucket admits a cost far beyond its burst at once
    // (overdraw); the debt then holds back the op behind it.
    CO_ASSERT_EQ(probe.started.size(), 1u);
    EXPECT_EQ(probe.started[0], 0u);
    EXPECT_GT(qos.stats(t).throttled, 0u);
  });
}

TEST(QosScheduler, DetachAfterDrainForgetsTenant) {
  RunSim([]() -> sim::Task<void> {
    Scheduler qos;
    QosPolicy p;
    p.enabled = true;
    const TenantId t = qos.Attach(p);
    Probe probe;
    qos.Submit(t, 4096, true, probe.Job(10 * kUs));
    co_await sim::Sleep{1 * kMs};
    CO_ASSERT_EQ(probe.finished.size(), 1u);
    qos.Detach(t);
    // A fresh tenant id starts clean.
    const TenantId t2 = qos.Attach(p);
    EXPECT_NE(t2, t);
    EXPECT_EQ(qos.stats(t2).submitted, 0u);
  });
}

}  // namespace
}  // namespace vde::qos
