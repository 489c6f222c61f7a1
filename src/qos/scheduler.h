// Tenant admission: the one engine that decides whose op runs next, both
// at the rbd client (one tenant per image, sharing one dispatch queue) and
// at every OSD (one tenant per client tag, in front of the op shards).
//
// Each tenant has a FIFO. An op is tagged once, on arrival, with mClock
// tags (Gulati et al., OSDI'10); t is the sim clock in seconds:
//   R = max(R_prev + 1/reservation, t)   reservation clock (none: never due)
//   P = max(P_prev + 1/weight, t)        proportional-share clock
// A pump fills free slots from the heads of the tenant queues. A head is
// eligible when its tenant is below its in-flight cap and its token
// buckets (ops and bytes, with burst credit) cover it. Among eligible
// heads it takes the smallest due R tag (reservation phase), else the
// smallest P tag (weight phase); ties go to the lowest tenant id. A
// weight-phase dispatch credits the tenant's R clock by 1/reservation, so
// the reservation stays a floor beneath proportional service. A blocked
// head never holds up another tenant. When every queued head is
// token-blocked, one timer wakes the pump at the earliest refill;
// completions re-pump for freed slots and caps.
//
// Two entry points share that machinery:
//   - Submit (client): hands over a task, spawned when dispatched. A
//     tenant whose policy is disabled bypasses the queue: Submit is a
//     plain spawn, adding no sim work (passthrough).
//   - Acquire/Release (OSD): `co_await Acquire(tenant)` holds one of the
//     engine's slots until Release(tenant). An op admitted on arrival does
//     not suspend, so one untagged tenant behaves exactly like a FIFO
//     semaphore of `slots` permits.
//
// Ordering: dispatch within one tenant is strictly FIFO, so per-image
// submission order is preserved end to end. That is load-bearing: the
// write-back layer's block-range guards admit overlapping IO in submission
// order, and a dispatched request may therefore wait on holds owned only by
// *earlier-submitted* requests of the same image — which FIFO dispatch has
// already admitted. Reordering dispatch within an image could park a
// hold-owner behind the in-flight cap while a hold-waiter occupies the last
// slot: deadlock. Across tenants there is no hold sharing (guards are
// per-image), so tags may interleave tenants freely.
//
// All state changes happen on the single-threaded sim scheduler — no
// locking, fully deterministic.
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>

#include "qos/token_bucket.h"
#include "sim/task.h"
#include "util/stats.h"

namespace vde::obs {
class Metrics;
}  // namespace vde::obs

namespace vde::qos {

// A tenant's caps. The default (enabled = false) makes Submit a
// zero-overhead passthrough: no queueing, no token accounting, no stats.
// Acquire ignores `enabled` and always queues for a slot.
struct QosPolicy {
  bool enabled = false;
  // Rate ceilings; 0 = unlimited. Charged on dispatch: one ops token per
  // request, one bandwidth token per data byte.
  double max_iops = 0;
  uint64_t max_bps = 0;
  // Burst credit (bucket depth). 0 picks a default of 100 ms worth of the
  // corresponding rate — short bursts ride through, sustained load is held
  // to the ceiling.
  uint64_t burst_ops = 0;
  uint64_t burst_bytes = 0;
  // Per-tenant in-flight cap (requests dispatched but not yet completed);
  // 0 = unlimited.
  size_t max_queue_depth = 0;
};

#define VDE_TENANT_STATS(C, G)                                              \
  C(submitted)              /* ops that entered the queue */                \
  C(admitted)               /* ops dispatched */                            \
  C(queued)                 /* of those, dispatched only after waiting */   \
  C(reservation_dispatches) /* admitted in the reservation phase */         \
  C(throttled)              /* pumps that left the head short of tokens */  \
  C(depth_deferred)         /* pumps that left the head at the depth cap */ \
  C(wait_ns)                /* total sim time ops spent queued */           \
  G(peak_queue)             /* high-water queue length */                   \
  G(inflight)               /* dispatched, not yet completed */             \
  G(peak_inflight)          /* high-water in-flight count */

struct TenantStats {
  VDE_STATS(TenantStats, VDE_TENANT_STATS)

  // Registers the image-level subset as `qos_*` under the image's node
  // (the scheduler's own per-tenant node carries every field).
  void ExportMetrics(obs::Metrics& image) const;
};

using TenantId = uint64_t;

class Scheduler {
 public:
  // `slots` bounds the ops in flight across all tenants; 0 = unlimited.
  explicit Scheduler(size_t slots = 0);
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Registers a tenant under a fresh id (one per image). The id is valid
  // until Detach.
  TenantId Attach(const QosPolicy& policy);

  // Creates or updates tenant `id`: its caps (token buckets restart full)
  // and its mClock reservation (ops/s; 0 = none) and weight. Tenants first
  // seen by Acquire get the defaults: no caps, no reservation, weight 1.
  void Configure(TenantId id, const QosPolicy& policy,
                 double reservation_iops = 0, double weight = 1.0);

  // Unregisters a tenant. The tenant must be idle (nothing queued or in
  // flight) — images drain their IO before closing.
  void Detach(TenantId id);

  // Hands `io` to the dispatcher. `cost_bytes` is the request's data size
  // (charged to the bandwidth bucket); `charge` is false for barrier ops
  // (flush) that move no data and must not pay tokens. For a disabled
  // tenant this spawns `io` immediately.
  void Submit(TenantId id, uint64_t cost_bytes, bool charge,
              sim::Task<void> io);

  struct [[nodiscard]] Awaiter {
    Scheduler& s;
    TenantId tenant;
    bool await_ready() { return s.Arrive(tenant); }
    void await_suspend(std::coroutine_handle<> h) { s.Park(tenant, h); }
    void await_resume() {}
  };

  // co_await Acquire(tenant) holds one slot; Release(tenant) frees it.
  Awaiter Acquire(TenantId tenant) { return Awaiter{*this, tenant}; }
  void Release(TenantId tenant);

  // Zero stats for a tenant this engine has never seen.
  const TenantStats& stats(TenantId id) const;
  size_t total_queued() const;
  size_t total_inflight() const { return inflight_; }

  // Exports the queued/in-flight totals plus a `tenant_<id>` child per
  // tenant into the registry.
  void ExportMetrics(obs::Metrics& node) const;

 private:
  struct Op {
    sim::Task<void> io;              // Submit: spawned on dispatch
    std::coroutine_handle<> waiter;  // Acquire: resumed on dispatch
    uint64_t cost_bytes = 0;
    bool charge = true;
    double rtag = 0;
    double ptag = 0;
    sim::SimTime enqueued_at = 0;
  };
  struct Tenant {
    QosPolicy policy;
    double reservation_iops = 0;
    double weight = 1.0;
    TokenBucket ops_bucket;
    TokenBucket bw_bucket;
    double r_prev = 0, p_prev = 0;
    double r_credit = 0;  // weight-phase service credited to the R clock
    std::deque<Op> queue;
    TenantStats stats;
  };
  enum class Block { kNone, kDepth, kTokens };

  // Tags `op` for tenant `id` and queues it.
  void Enqueue(TenantId id, Op op);
  // Acquire's arrival: queues, pumps, and reports whether the op was
  // admitted on the spot; otherwise Park records the suspended waiter.
  bool Arrive(TenantId id);
  void Park(TenantId id, std::coroutine_handle<> h);
  // Why tenant `t`'s head cannot dispatch at `now`.
  static Block Blocked(Tenant& t, sim::SimTime now);
  // Dispatches per the two-phase rule while slots allow; arms the timer
  // when everything queued waits for tokens.
  void Pump();
  void Dispatch(TenantId id, Tenant& t, bool reservation, sim::SimTime now);
  void ArmTimer(sim::SimTime at);

  static sim::Task<void> RunOne(std::shared_ptr<bool> alive, Scheduler* self,
                                TenantId id, sim::Task<void> io);
  static sim::Task<void> TimerFire(std::shared_ptr<bool> alive,
                                   Scheduler* self, uint64_t seq,
                                   sim::SimTime at);

  size_t slots_;
  size_t inflight_ = 0;
  std::map<TenantId, Tenant> tenants_;  // ordered: ties go to the lowest id
  TenantId next_id_ = 1;
  bool admitted_on_arrival_ = false;  // set by Dispatch for Arrive's op
  uint64_t timer_seq_ = 0;
  bool timer_armed_ = false;
  sim::SimTime timer_at_ = 0;
  // Timer/completion coroutines outlive any single pump; they check this
  // flag so an engine destroyed mid-simulation is never touched.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace vde::qos
