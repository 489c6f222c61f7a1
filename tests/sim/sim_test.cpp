#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/scheduler.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace vde::sim {
namespace {

Task<void> SleepAndRecord(SimTime delay, std::vector<SimTime>* log) {
  co_await Sleep{delay};
  log->push_back(Scheduler::Current().now());
}

TEST(Scheduler, TimeAdvancesWithSleep) {
  Scheduler sched;
  std::vector<SimTime> log;
  sched.Spawn(SleepAndRecord(100, &log));
  sched.Spawn(SleepAndRecord(50, &log));
  sched.Run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], 50u);
  EXPECT_EQ(log[1], 100u);
  EXPECT_EQ(sched.now(), 100u);
}

Task<void> Chain(std::vector<int>* log) {
  log->push_back(1);
  co_await Sleep{10};
  log->push_back(2);
  co_await Sleep{10};
  log->push_back(3);
}

TEST(Scheduler, SequentialAwaitsInOneTask) {
  Scheduler sched;
  std::vector<int> log;
  sched.Spawn(Chain(&log));
  sched.Run();
  EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), 20u);
}

Task<int> Answer() { co_return 42; }

Task<int> AddOne() {
  const int v = co_await Answer();
  co_return v + 1;
}

Task<void> StoreResult(int* out) { *out = co_await AddOne(); }

TEST(Task, ValueChaining) {
  Scheduler sched;
  int out = 0;
  sched.Spawn(StoreResult(&out));
  sched.Run();
  EXPECT_EQ(out, 43);
}

TEST(Scheduler, FifoOrderAtSameTimestamp) {
  Scheduler sched;
  std::vector<SimTime> log;
  // Same wake time: spawn order must be preserved (determinism).
  for (int i = 0; i < 5; ++i) {
    sched.Spawn(SleepAndRecord(100, &log));
  }
  std::vector<int> order;
  sched.Run();
  EXPECT_EQ(log.size(), 5u);
}

Task<void> Record(int id, std::vector<int>* order) {
  order->push_back(id);
  co_return;
}

Task<void> WakeRecordAndSpawn(SimTime delay, int id, int spawn_id,
                              std::vector<int>* order) {
  co_await Sleep{delay};
  order->push_back(id);
  if (spawn_id != 0) Scheduler::Current().Spawn(Record(spawn_id, order));
}

// At t=10 task 1 spawns task 3, due now. Task 2's wake-up for t=10 was
// queued at t=0, before task 3 existed, so it has the lower sequence number
// and runs first even though task 3 is due at the same time.
TEST(Scheduler, DueNowEventRunsAfterEarlierQueuedEventAtSameTime) {
  Scheduler sched;
  std::vector<int> order;
  sched.Spawn(WakeRecordAndSpawn(10, 1, 3, &order));
  sched.Spawn(WakeRecordAndSpawn(10, 2, 0, &order));
  sched.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), 10u);
  EXPECT_EQ(sched.events_processed(), 5u);
}

Task<void> UseSemaphore(Semaphore& sem, SimTime hold, std::vector<SimTime>* done) {
  co_await sem.Acquire();
  co_await Sleep{hold};
  sem.Release();
  done->push_back(Scheduler::Current().now());
}

TEST(Semaphore, LimitsParallelism) {
  Scheduler sched;
  Semaphore sem(2);
  std::vector<SimTime> done;
  for (int i = 0; i < 4; ++i) {
    sched.Spawn(UseSemaphore(sem, 100, &done));
  }
  sched.Run();
  // Two run [0,100], the next two [100,200].
  ASSERT_EQ(done.size(), 4u);
  EXPECT_EQ(done[0], 100u);
  EXPECT_EQ(done[1], 100u);
  EXPECT_EQ(done[2], 200u);
  EXPECT_EQ(done[3], 200u);
  EXPECT_EQ(sem.available(), 2u);
}

TEST(Semaphore, FifoFairness) {
  Scheduler sched;
  Semaphore sem(1);
  std::vector<SimTime> done;
  for (int i = 0; i < 3; ++i) sched.Spawn(UseSemaphore(sem, 10, &done));
  sched.Run();
  EXPECT_EQ(done, (std::vector<SimTime>{10, 20, 30}));
}

Task<void> Waiter(WaitGroup& wg, bool* flag) {
  co_await wg.Wait();
  *flag = true;
}

Task<void> Worker(WaitGroup& wg, SimTime d) {
  co_await Sleep{d};
  wg.Done();
}

TEST(WaitGroup, JoinsAllWorkers) {
  Scheduler sched;
  WaitGroup wg(3);
  bool flag = false;
  sched.Spawn(Waiter(wg, &flag));
  sched.Spawn(Worker(wg, 10));
  sched.Spawn(Worker(wg, 30));
  sched.Spawn(Worker(wg, 20));
  sched.Run();
  EXPECT_TRUE(flag);
  EXPECT_EQ(sched.now(), 30u);
}

Task<void> GateWaiter(Gate& gate, std::vector<SimTime>* log) {
  co_await gate.Wait();
  log->push_back(Scheduler::Current().now());
}

Task<void> GateFirer(Gate& gate) {
  co_await Sleep{500};
  gate.Fire();
}

TEST(Gate, BroadcastsToAllWaiters) {
  Scheduler sched;
  Gate gate;
  std::vector<SimTime> log;
  sched.Spawn(GateWaiter(gate, &log));
  sched.Spawn(GateWaiter(gate, &log));
  sched.Spawn(GateFirer(gate));
  sched.Run();
  EXPECT_EQ(log, (std::vector<SimTime>{500, 500}));
}

TEST(Gate, WaitAfterFireCompletesImmediately) {
  Scheduler sched;
  Gate gate;
  gate.Fire();
  std::vector<SimTime> log;
  sched.Spawn(GateWaiter(gate, &log));
  sched.Run();
  EXPECT_EQ(log, (std::vector<SimTime>{0}));
}

Task<void> Togethers(std::vector<SimTime>* log) {
  std::vector<Task<void>> tasks;
  tasks.push_back(SleepAndRecord(30, log));
  tasks.push_back(SleepAndRecord(10, log));
  tasks.push_back(SleepAndRecord(20, log));
  co_await WhenAll(std::move(tasks));
  log->push_back(Scheduler::Current().now() + 1000);  // sentinel after join
}

TEST(WhenAll, RunsConcurrentlyAndJoins) {
  Scheduler sched;
  std::vector<SimTime> log;
  sched.Spawn(Togethers(&log));
  sched.Run();
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[0], 10u);
  EXPECT_EQ(log[1], 20u);
  EXPECT_EQ(log[2], 30u);
  EXPECT_EQ(log[3], 1030u) << "join must happen at the max, not the sum";
}

TEST(Scheduler, RunUntilStopsAtDeadline) {
  Scheduler sched;
  std::vector<SimTime> log;
  sched.Spawn(SleepAndRecord(100, &log));
  sched.Spawn(SleepAndRecord(300, &log));
  sched.RunUntil(150);
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(sched.now(), 150u);
  sched.Run();
  EXPECT_EQ(log.size(), 2u);
}

namespace {

sim::Task<void> Reader(SharedLock& lock, SimTime hold, int* active,
                       int* max_active, std::vector<int>* order, int id) {
  co_await lock.AcquireShared();
  (*active)++;
  *max_active = std::max(*max_active, *active);
  co_await Sleep{hold};
  (*active)--;
  order->push_back(id);
  lock.ReleaseShared();
}

sim::Task<void> Writer(SharedLock& lock, SimTime hold, int* active,
                       std::vector<int>* order, int id) {
  co_await lock.AcquireExclusive();
  EXPECT_EQ(*active, 0) << "writer overlapped readers";
  (*active)++;
  co_await Sleep{hold};
  (*active)--;
  order->push_back(id);
  lock.ReleaseExclusive();
}

}  // namespace

TEST(SharedLock, ReadersShareWritersExclude) {
  Scheduler sched;
  SharedLock lock;
  int active = 0;
  int max_active = 0;
  std::vector<int> order;
  // Two readers, then a writer, then a late reader: the readers overlap,
  // the writer runs alone, and the late reader queues behind the writer
  // (FIFO, no writer starvation).
  sched.Spawn(Reader(lock, 100, &active, &max_active, &order, 1));
  sched.Spawn(Reader(lock, 200, &active, &max_active, &order, 2));
  sched.Spawn(Writer(lock, 50, &active, &order, 3));
  sched.Spawn(Reader(lock, 10, &active, &max_active, &order, 4));
  sched.Run();
  EXPECT_EQ(max_active, 2) << "readers must overlap";
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_TRUE(lock.idle());
}

TEST(Scheduler, DeterministicEventCount) {
  auto run_once = []() {
    Scheduler sched;
    std::vector<SimTime> log;
    Semaphore sem(2);
    std::vector<SimTime> done;
    for (int i = 0; i < 10; ++i) sched.Spawn(UseSemaphore(sem, 7, &done));
    sched.Run();
    return std::make_pair(sched.events_processed(), done);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

// --- N-core CPU model ----------------------------------------------------

Task<void> Charge(uint64_t shard, SimTime cost, std::vector<SimTime>* log) {
  co_await ChargeCpu{shard, cost};
  log->push_back(Scheduler::Current().now());
}

// With the core model disabled, ChargeCpu is exactly Sleep: same finish
// times, clock unchanged relative to the legacy serial charge.
// (ConfigureCores(0) pins the disabled state even under VDE_SIM_CORES.)
TEST(CoreModel, DisabledChargeIsSleep) {
  Scheduler sched;
  sched.ConfigureCores(0);
  std::vector<SimTime> charge_log, sleep_log;
  sched.Spawn(Charge(0, 100, &charge_log));
  sched.Spawn(Charge(1, 100, &charge_log));  // different shard: irrelevant
  sched.Spawn(SleepAndRecord(100, &sleep_log));
  sched.Run();
  ASSERT_EQ(charge_log.size(), 2u);
  EXPECT_EQ(charge_log[0], 100u);
  EXPECT_EQ(charge_log[1], 100u);  // disabled: concurrent charges overlap
  EXPECT_EQ(sleep_log[0], 100u);
  EXPECT_TRUE(sched.core_busy_ns().empty());
}

// Enabled: charges on the SAME core queue behind each other; charges on
// different cores overlap.
TEST(CoreModel, SameCoreSerializesDifferentCoresOverlap) {
  Scheduler sched;
  sched.ConfigureCores(2);
  std::vector<SimTime> same, split;
  sched.Spawn(Charge(0, 100, &same));
  sched.Spawn(Charge(2, 100, &same));  // 2 % 2 == core 0: queues to 200
  sched.Spawn(Charge(1, 100, &split)); // core 1: free, finishes at 100
  sched.Run();
  ASSERT_EQ(same.size(), 2u);
  EXPECT_EQ(same[0], 100u);
  EXPECT_EQ(same[1], 200u);
  ASSERT_EQ(split.size(), 1u);
  EXPECT_EQ(split[0], 100u);
  // Busy accounting: core 0 worked 200 ns, core 1 worked 100 ns.
  ASSERT_EQ(sched.core_busy_ns().size(), 2u);
  EXPECT_EQ(sched.core_busy_ns()[0], 200u);
  EXPECT_EQ(sched.core_busy_ns()[1], 100u);
}

// A zero-cost charge never suspends, enabled or not.
TEST(CoreModel, ZeroCostChargeIsFree) {
  Scheduler sched;
  sched.ConfigureCores(2);
  std::vector<SimTime> log;
  sched.Spawn(Charge(0, 0, &log));
  sched.Run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], 0u);
  EXPECT_EQ(sched.core_busy_ns()[0], 0u);
}

Task<void> ChargeAny(SimTime cost, std::vector<SimTime>* log) {
  co_await ChargeAnyCpu{cost};
  log->push_back(Scheduler::Current().now());
}

// Any-core reservations take the core with the smallest busy-until, ties
// to the lowest index, the same way every run; busy time is accounted to
// the core that did the work.
TEST(CoreModel, AnyCpuTakesLeastBusyCoreLowestIndexFirst) {
  auto run_once = []() {
    Scheduler sched;
    sched.ConfigureCores(3);
    std::vector<SimTime> ends;
    ends.push_back(sched.ReserveCpu(1, 300));   // core 1 busy to 300
    ends.push_back(sched.ReserveAnyCpu(100));   // cores 0, 2 tie: core 0
    ends.push_back(sched.ReserveAnyCpu(50));    // core 2 (0 < 100 < 300)
    ends.push_back(sched.ReserveAnyCpu(100));   // core 2 (50 < 100): to 150
    ends.push_back(sched.ReserveAnyCpu(10));    // core 0 (100 < 150): to 110
    return std::make_pair(ends, sched.core_busy_ns());
  };
  const auto a = run_once();
  EXPECT_EQ(a.first, (std::vector<SimTime>{300, 100, 50, 150, 110}));
  EXPECT_EQ(a.second, (std::vector<SimTime>{110, 300, 150}));
  EXPECT_EQ(run_once(), a);
}

// A read's completion does not queue behind object work pinned to one
// core: with core 0 busy, the any-core charge finishes on a free core.
TEST(CoreModel, AnyCpuChargeSkipsPinnedBacklog) {
  Scheduler sched;
  sched.ConfigureCores(2);
  std::vector<SimTime> pinned, any;
  sched.Spawn(Charge(0, 1000, &pinned));
  sched.Spawn(ChargeAny(100, &any));
  sched.Run();
  ASSERT_EQ(any.size(), 1u);
  EXPECT_EQ(pinned[0], 1000u);
  EXPECT_EQ(any[0], 100u);
  EXPECT_EQ(sched.core_busy_ns(), (std::vector<SimTime>{1000, 100}));
}

// With the model off, the any-core reservation is now + cost and the
// awaitable is exactly Sleep: same finish times, same event count.
TEST(CoreModel, DisabledAnyCpuChargeIsSleep) {
  auto run = [](bool any) {
    Scheduler sched;
    sched.ConfigureCores(0);
    std::vector<SimTime> log;
    for (int i = 0; i < 3; ++i) {
      if (any) {
        sched.Spawn(ChargeAny(100, &log));
      } else {
        sched.Spawn(SleepAndRecord(100, &log));
      }
    }
    sched.Run();
    EXPECT_EQ(sched.ReserveAnyCpu(40), sched.now() + 40);
    EXPECT_TRUE(sched.core_busy_ns().empty());
    return std::make_pair(log, sched.events_processed());
  };
  const auto any = run(true);
  EXPECT_EQ(any.first, (std::vector<SimTime>{100, 100, 100}));
  EXPECT_EQ(any, run(false));
}

TEST(CoreModel, NextShardRotates) {
  Scheduler sched;
  const uint64_t a = sched.NextShard();
  const uint64_t b = sched.NextShard();
  const uint64_t c = sched.NextShard();
  EXPECT_EQ(b, a + 1);
  EXPECT_EQ(c, b + 1);
}

// ShardOf is a pure platform-stable hash: equal keys map to equal shards,
// and distinct object names spread (not all on one shard).
TEST(CoreModel, ShardOfIsStableAndSpreads) {
  EXPECT_EQ(ShardOf("img.0000000000000004"), ShardOf("img.0000000000000004"));
  bool spread = false;
  const uint64_t first = ShardOf("obj.0") % 4;
  for (int i = 1; i < 16 && !spread; ++i) {
    spread = ShardOf("obj." + std::to_string(i)) % 4 != first;
  }
  EXPECT_TRUE(spread);
}

}  // namespace
}  // namespace vde::sim
