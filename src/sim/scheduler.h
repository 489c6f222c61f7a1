// Deterministic discrete-event scheduler with an optional N-core CPU model.
//
// Time is simulated nanoseconds. Events with equal timestamps run in FIFO
// order (sequence-number tie-break), so a given seed always produces the
// same interleaving — bench results are exactly reproducible. Events due at
// now() skip the heap: they queue in a plain FIFO, which runs after the heap
// events due at now() — those were pushed before the clock got here, so
// they come first in (at, seq) order anyway.
//
// CPU model: by default every CPU charge (ChargeCpu, ChargeAnyCpu)
// degrades to a plain Sleep — the legacy "infinite cores" timeline,
// bit-identical to the pre-core-model scheduler. ConfigureCores(N) turns
// on a per-core busy-until model: a charge reserves time on one core, so
// two charges landing on the same core serialize while charges on
// different cores overlap. Affinity is by the work, never by coroutine
// identity — tasks migrate freely:
//
//  - Object work is pinned: a charge keyed by ShardOf(oid) lands on that
//    object's core, so an object's OSD data-op commits on every replica
//    and its client-side write encrypt queue in order. Stage work with no
//    object (the OSD prepare stage) rotates with NextShard().
//  - Read completion and store-wide kv work run on any core: ChargeAnyCpu
//    / ReserveAnyCpu take the core with the smallest busy-until (ties to
//    the lowest index). A read's decrypt feeds no later store op, and an
//    OSD's kv commit lane (OMAP sets, remove and clone row writes) is
//    store-wide work; neither needs object affinity, and neither must
//    queue behind other ops' commits on its object's core.
//  - One reservation per client step: cipher plus codec (encrypt +
//    compress, decrypt + decompress) is reserved once, contiguously; the
//    task resumes at the boundary so the two parts trace as two spans.
//
// The model is a cost model, not a threading model: execution stays
// single-threaded and deterministic for any core count.
#pragma once

#include <coroutine>
#include <cstdint>
#include <queue>
#include <string>
#include <vector>

#include "sim/task.h"

namespace vde::sim {

// Simulated time in nanoseconds since simulation start.
using SimTime = uint64_t;

inline constexpr SimTime kNs = 1;
inline constexpr SimTime kUs = 1000;
inline constexpr SimTime kMs = 1000 * 1000;
inline constexpr SimTime kSec = 1000ull * 1000 * 1000;

class Scheduler {
 public:
  Scheduler();
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // The scheduler of the currently running simulation (exactly one may be
  // alive per thread; enforced).
  static Scheduler& Current();

  SimTime now() const { return now_; }

  // Resume `h` at simulated time `at` (>= now).
  void ScheduleAt(SimTime at, std::coroutine_handle<> h);
  void ScheduleNow(std::coroutine_handle<> h) { ScheduleAt(now_, h); }

  // Start a detached task at the current time. The task frame self-destroys
  // on completion.
  void Spawn(Task<void> task);

  // Process events until the queue is empty. Returns final simulated time.
  SimTime Run();

  // Process events with timestamp <= deadline.
  SimTime RunUntil(SimTime deadline);

  uint64_t events_processed() const { return events_processed_; }

  // --- N-core CPU model ---

  // Enables the core model with `n` simulated cores (n >= 1), or disables
  // it with n == 0 (the default: CPU charges become plain Sleeps with
  // unlimited overlap). Call before work is spawned; reconfiguring resets
  // the per-core clocks.
  void ConfigureCores(unsigned n);
  unsigned cores() const { return static_cast<unsigned>(busy_until_.size()); }
  bool core_model_enabled() const { return !busy_until_.empty(); }

  // Reserves `cost` ns on the core `shard_key` maps to and returns the
  // simulated time the work finishes (start = max(now, core busy-until)).
  // With the model disabled, returns now + cost (plain sleep semantics).
  SimTime ReserveCpu(uint64_t shard_key, SimTime cost);

  // Reserves `cost` ns on the core with the smallest busy-until (ties go
  // to the lowest index) and returns the finish time: work with no object
  // affinity. With the model disabled, returns now + cost.
  SimTime ReserveAnyCpu(SimTime cost);

  // Rotating shard key for stage work with no natural affinity: a
  // deterministic round-robin over the core space.
  uint64_t NextShard() { return next_shard_++; }

  // Accumulated busy nanoseconds per core (utilization accounting).
  // Empty when the model is disabled.
  const std::vector<SimTime>& core_busy_ns() const { return busy_ns_; }

 private:
  struct Event {
    SimTime at;
    uint64_t seq;
    std::coroutine_handle<> handle;
    bool operator>(const Event& other) const {
      return at != other.at ? at > other.at : seq > other.seq;
    }
  };

  // Runs the next event due at or before `deadline`; false when none is.
  bool RunNext(SimTime deadline);
  // Queues `cost` ns on `core` (model enabled); returns the finish time.
  SimTime Reserve(size_t core, SimTime cost);

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t events_processed_ = 0;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  std::vector<std::coroutine_handle<>> ready_;  // due at now_, FIFO
  size_t ready_head_ = 0;                       // next ready_ entry to run
  std::vector<SimTime> busy_until_;  // per-core frontier; empty = disabled
  std::vector<SimTime> busy_ns_;    // per-core accumulated busy time
  uint64_t next_shard_ = 0;
};

// Awaitable: suspend the current task for `delay` simulated nanoseconds.
struct Sleep {
  SimTime delay;
  bool await_ready() const noexcept { return delay == 0; }
  void await_suspend(std::coroutine_handle<> h) const {
    Scheduler::Current().ScheduleAt(Scheduler::Current().now() + delay, h);
  }
  void await_resume() const noexcept {}
};

// Awaitable: charge `cost` ns of CPU on the core `shard` maps to. With the
// core model disabled this is exactly Sleep{cost}; with N cores configured
// the charge queues behind earlier work on the same core — same-core work
// serializes, cross-core work overlaps.
struct ChargeCpu {
  uint64_t shard;
  SimTime cost;
  bool await_ready() const noexcept { return cost == 0; }
  void await_suspend(std::coroutine_handle<> h) const {
    Scheduler& s = Scheduler::Current();
    s.ScheduleAt(s.ReserveCpu(shard, cost), h);
  }
  void await_resume() const noexcept {}
};

// Awaitable: charge `cost` ns of CPU on whichever core is least busy
// (Scheduler::ReserveAnyCpu). With the core model disabled this is exactly
// Sleep{cost}.
struct ChargeAnyCpu {
  SimTime cost;
  bool await_ready() const noexcept { return cost == 0; }
  void await_suspend(std::coroutine_handle<> h) const {
    Scheduler& s = Scheduler::Current();
    s.ScheduleAt(s.ReserveAnyCpu(cost), h);
  }
  void await_resume() const noexcept {}
};

// FNV-1a over a byte string: the deterministic, platform-stable shard key
// for pinning an object's work to a core (std::hash is not portable).
inline uint64_t ShardOf(const std::string& key) {
  uint64_t h = 0xCBF29CE484222325ull;
  for (const char c : key) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

}  // namespace vde::sim
