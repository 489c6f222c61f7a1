#include "qos/scheduler.h"

#include <algorithm>
#include <cassert>

#include "obs/metrics.h"

namespace vde::qos {

Scheduler::Scheduler() : Scheduler(Config()) {}

Scheduler::Scheduler(Config config)
    : config_(config), alive_(std::make_shared<bool>(true)) {
  // A zero quantum would stall deficit growth (Pump relies on each round
  // adding credit); clamp rather than assert — it is a tuning knob.
  config_.quantum = std::max<uint64_t>(config_.quantum, 1);
}

Scheduler::~Scheduler() { *alive_ = false; }

Scheduler::Tenant& Scheduler::Get(TenantId id) {
  auto it = tenants_.find(id);
  assert(it != tenants_.end() && "unknown QoS tenant");
  return it->second;
}

const Scheduler::Tenant& Scheduler::Get(TenantId id) const {
  auto it = tenants_.find(id);
  assert(it != tenants_.end() && "unknown QoS tenant");
  return it->second;
}

void Scheduler::ConfigureBuckets(Tenant& t) {
  const QosPolicy& p = t.policy;
  if (p.max_iops > 0) {
    const double burst = p.burst_ops > 0
                             ? static_cast<double>(p.burst_ops)
                             : std::max(1.0, static_cast<double>(p.max_iops) / 10);
    t.ops_bucket = TokenBucket(static_cast<double>(p.max_iops), burst);
  } else {
    t.ops_bucket = TokenBucket();
  }
  if (p.max_bps > 0) {
    const double burst = p.burst_bytes > 0
                             ? static_cast<double>(p.burst_bytes)
                             : std::max(static_cast<double>(4096),
                                        static_cast<double>(p.max_bps) / 10);
    t.bw_bucket = TokenBucket(static_cast<double>(p.max_bps), burst);
  } else {
    t.bw_bucket = TokenBucket();
  }
}

TenantId Scheduler::Attach(const QosPolicy& policy) {
  const TenantId id = next_id_++;
  Tenant& t = tenants_[id];
  t.policy = policy;
  if (t.policy.weight == 0) t.policy.weight = 1;
  ConfigureBuckets(t);
  return id;
}

void Scheduler::Detach(TenantId id) {
  auto it = tenants_.find(id);
  assert(it != tenants_.end() && "detaching unknown QoS tenant");
  assert(it->second.queue.empty() && it->second.stats.inflight == 0 &&
         "detaching a QoS tenant with IO outstanding");
  // A stale ring entry is skipped by Pump (tenants_ lookup fails).
  tenants_.erase(it);
}

void Scheduler::SetPolicy(TenantId id, const QosPolicy& policy) {
  Tenant& t = Get(id);
  t.policy = policy;
  if (t.policy.weight == 0) t.policy.weight = 1;
  ConfigureBuckets(t);
  if (!t.queue.empty() && !t.in_ring) {
    t.in_ring = true;
    ring_.push_back(id);
  }
  Pump();
}

const QosPolicy& Scheduler::policy(TenantId id) const {
  return Get(id).policy;
}

bool Scheduler::enabled(TenantId id) const { return Get(id).policy.enabled; }

const TenantStats& Scheduler::stats(TenantId id) const {
  return Get(id).stats;
}

void Scheduler::ExportMetrics(obs::Metrics& node) const {
  node.Gauge("total_queued", static_cast<double>(total_queued_));
  node.Gauge("total_inflight", static_cast<double>(total_inflight_));
  node.Gauge("tenants", static_cast<double>(tenants_.size()));
  for (const auto& [id, t] : tenants_) {
    obs::Metrics& tn = node.Child("tenant" + std::to_string(id));
    tn.Counter("submitted", t.stats.submitted);
    tn.Counter("dispatched", t.stats.dispatched);
    tn.Counter("queued", t.stats.queued);
    tn.Counter("throttled", t.stats.throttled);
    tn.Counter("depth_deferred", t.stats.depth_deferred);
    tn.Counter("wait_ns", t.stats.wait_ns);
    tn.Gauge("cur_queue", static_cast<double>(t.stats.cur_queue));
    tn.Gauge("peak_queue", static_cast<double>(t.stats.peak_queue));
    tn.Gauge("inflight", static_cast<double>(t.stats.inflight));
    tn.Gauge("peak_inflight", static_cast<double>(t.stats.peak_inflight));
  }
}

uint64_t Scheduler::DeficitCost(const Queued& q) const {
  // Barrier ops (flush) cost nothing; data ops cost their bytes with a
  // floor so a 512 B op is not ~free next to a 4 MiB one.
  if (!q.charge) return 0;
  return std::max(q.cost_bytes, config_.min_op_cost);
}

void Scheduler::Submit(TenantId id, uint64_t cost_bytes, bool charge,
                       sim::Task<void> io) {
  Tenant& t = Get(id);
  if (!t.policy.enabled) {
    // Passthrough: identical to not having a scheduler at all.
    sim::Scheduler::Current().Spawn(std::move(io));
    return;
  }
  t.stats.submitted++;
  Queued q;
  q.io = std::move(io);
  q.cost_bytes = cost_bytes;
  q.charge = charge;
  q.enqueued_at = sim::Scheduler::Current().now();
  t.queue.push_back(std::move(q));
  total_queued_++;
  t.stats.cur_queue = t.queue.size();
  t.stats.peak_queue = std::max(t.stats.peak_queue, t.stats.cur_queue);
  if (!t.in_ring) {
    t.in_ring = true;
    ring_.push_back(id);
  }
  Pump();
}

Scheduler::HeadVerdict Scheduler::TryDispatchHead(TenantId id, Tenant& t,
                                                  sim::SimTime now) {
  Queued& head = t.queue.front();
  // A tenant whose policy was disabled mid-flight drains its queue without
  // caps (passthrough semantics for everything still parked).
  const bool limits = t.policy.enabled;
  if (limits && t.policy.max_queue_depth > 0 &&
      t.stats.inflight >= t.policy.max_queue_depth) {
    t.stats.depth_deferred++;
    return HeadVerdict::kDepth;  // this tenant's completion re-pumps
  }
  if (config_.max_inflight_total > 0 &&
      total_inflight_ >= config_.max_inflight_total) {
    t.stats.depth_deferred++;
    return HeadVerdict::kLineBusy;  // any completion re-pumps
  }
  const uint64_t cost = DeficitCost(head);
  if (cost > t.deficit) return HeadVerdict::kDeficit;
  if (limits && head.charge) {
    t.ops_bucket.Refill(now);
    t.bw_bucket.Refill(now);
    const double bw_cost = static_cast<double>(head.cost_bytes);
    if (!t.ops_bucket.CanTake(1) || !t.bw_bucket.CanTake(bw_cost)) {
      t.stats.throttled++;
      NoteRefill(std::max(t.ops_bucket.WhenAdmissible(1, now),
                          t.bw_bucket.WhenAdmissible(bw_cost, now)));
      return HeadVerdict::kTokens;
    }
    t.ops_bucket.Take(1);
    t.bw_bucket.Take(bw_cost);
  }
  t.deficit -= cost;
  t.stats.dispatched++;
  if (now > head.enqueued_at) {
    t.stats.queued++;
    t.stats.wait_ns += now - head.enqueued_at;
  }
  t.stats.inflight++;
  t.stats.peak_inflight = std::max(t.stats.peak_inflight, t.stats.inflight);
  total_inflight_++;
  sim::Task<void> io = std::move(head.io);
  t.queue.pop_front();
  total_queued_--;
  t.stats.cur_queue = t.queue.size();
  sim::Scheduler::Current().Spawn(RunOne(alive_, this, id, std::move(io)));
  return HeadVerdict::kDispatched;
}

void Scheduler::Pump() {
  if (pumping_) return;
  pumping_ = true;
  const sim::SimTime now = sim::Scheduler::Current().now();
  // DWRR with a persistent cursor (ring_.front() is the tenant whose visit
  // is in progress). A visit grants one weighted quantum and dispatches
  // until the tenant's head is blocked:
  //  - host-wide window full (kLineBusy): the "line" is busy — the cursor
  //    PAUSES here, so when a completion frees a slot this tenant resumes
  //    spending its remaining quantum. Rotating instead would hand every
  //    freed slot to whoever sits at the ring front and break weights.
  //  - credit/tokens/own depth cap (kDeficit/kTokens/kDepth): tenant-local
  //    — rotate it to the back, carrying residual credit, and let others
  //    use the line.
  // Termination: `stalls` counts consecutive rotations without a dispatch;
  // a deficit rotation resets it because the quantum re-grant makes
  // measurable progress in credit space (bounded by cost/quantum cycles).
  size_t stalls = 0;
  while (!ring_.empty() && stalls <= ring_.size()) {
    const TenantId id = ring_.front();
    auto it = tenants_.find(id);
    if (it == tenants_.end()) {  // detached; drop the stale entry
      ring_.pop_front();
      continue;
    }
    Tenant& t = it->second;
    if (t.queue.empty()) {
      ring_.pop_front();
      t.in_ring = false;
      t.visiting = false;
      t.deficit = 0;
      continue;
    }
    if (!t.visiting) {
      t.visiting = true;
      // Grant one weighted quantum, clamped so a long-blocked tenant
      // cannot hoard unbounded credit and burst later.
      const uint64_t quantum =
          config_.quantum * std::max<uint32_t>(t.policy.weight, 1);
      t.deficit = std::min(t.deficit + quantum,
                           quantum + DeficitCost(t.queue.front()));
    }
    HeadVerdict verdict = HeadVerdict::kDeficit;
    bool dispatched = false;
    while (!t.queue.empty()) {
      verdict = TryDispatchHead(id, t, now);
      if (verdict != HeadVerdict::kDispatched) break;
      dispatched = true;
    }
    if (dispatched) stalls = 0;
    if (t.queue.empty()) {
      ring_.pop_front();
      t.in_ring = false;
      t.visiting = false;
      t.deficit = 0;
      continue;
    }
    if (verdict == HeadVerdict::kLineBusy) break;  // pause the cursor here
    // Tenant-local block: end the visit and rotate to the back.
    ring_.pop_front();
    ring_.push_back(id);
    t.visiting = false;
    if (verdict == HeadVerdict::kDeficit) {
      stalls = 0;
    } else {
      stalls++;
    }
  }
  pumping_ = false;
  ArmTimer();
}

void Scheduler::NoteRefill(sim::SimTime at) {
  if (!have_refill_ || at < next_refill_) {
    have_refill_ = true;
    next_refill_ = at;
  }
}

void Scheduler::ArmTimer() {
  if (!have_refill_) return;
  const sim::SimTime at = next_refill_;
  have_refill_ = false;
  if (timer_armed_ && timer_at_ <= at) return;  // an earlier wake covers it
  timer_armed_ = true;
  timer_at_ = at;
  sim::Scheduler::Current().Spawn(TimerFire(alive_, this, at));
}

sim::Task<void> Scheduler::TimerFire(std::shared_ptr<bool> alive,
                                     Scheduler* self, sim::SimTime at) {
  const sim::SimTime now = sim::Scheduler::Current().now();
  if (at > now) co_await sim::Sleep{at - now};
  if (!*alive) co_return;
  // A newer, earlier timer may have superseded this one; only the timer
  // matching timer_at_ clears the armed flag (stale fires still pump —
  // harmless, Pump is idempotent).
  if (self->timer_armed_ && self->timer_at_ == at) self->timer_armed_ = false;
  self->Pump();
}

sim::Task<void> Scheduler::RunOne(std::shared_ptr<bool> alive,
                                  Scheduler* self, TenantId id,
                                  sim::Task<void> io) {
  co_await std::move(io);
  if (*alive) self->OnComplete(id);
}

void Scheduler::OnComplete(TenantId id) {
  auto it = tenants_.find(id);
  if (it != tenants_.end()) {
    Tenant& t = it->second;
    assert(t.stats.inflight > 0);
    t.stats.inflight--;
    if (!t.queue.empty() && !t.in_ring) {
      t.in_ring = true;
      ring_.push_back(id);
    }
  }
  assert(total_inflight_ > 0);
  total_inflight_--;
  Pump();
}

}  // namespace vde::qos
