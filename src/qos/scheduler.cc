#include "qos/scheduler.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <string>
#include <utility>

#include "obs/metrics.h"

namespace vde::qos {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr sim::SimTime kNever = std::numeric_limits<sim::SimTime>::max();

double Seconds(sim::SimTime t) { return static_cast<double>(t) * 1e-9; }

// A bucket of `rate` per second; `burst` 0 picks 100 ms of rate, at least
// `min_burst`. A rate of 0 is unlimited.
TokenBucket Bucket(double rate, uint64_t burst, double min_burst) {
  if (rate <= 0) return TokenBucket();
  return TokenBucket(rate, burst > 0 ? static_cast<double>(burst)
                                     : std::max(min_burst, rate / 10));
}

}  // namespace

Scheduler::Scheduler(size_t slots) : slots_(slots) {}

Scheduler::~Scheduler() { *alive_ = false; }

TenantId Scheduler::Attach(const QosPolicy& policy) {
  const TenantId id = next_id_++;
  Configure(id, policy);
  return id;
}

void Scheduler::Configure(TenantId id, const QosPolicy& policy,
                          double reservation_iops, double weight) {
  Tenant& t = tenants_[id];
  t.policy = policy;
  t.reservation_iops = reservation_iops;
  t.weight = weight > 0 ? weight : 1.0;
  t.ops_bucket = Bucket(policy.max_iops, policy.burst_ops, 1);
  t.bw_bucket = Bucket(static_cast<double>(policy.max_bps),
                       policy.burst_bytes, 4096);
}

void Scheduler::Detach(TenantId id) {
  auto it = tenants_.find(id);
  assert(it != tenants_.end() && "detaching unknown QoS tenant");
  assert(it->second.queue.empty() && it->second.stats.inflight == 0 &&
         "detaching a QoS tenant with IO outstanding");
  tenants_.erase(it);
}

const TenantStats& Scheduler::stats(TenantId id) const {
  static const TenantStats kUnseen;
  auto it = tenants_.find(id);
  return it == tenants_.end() ? kUnseen : it->second.stats;
}

size_t Scheduler::total_queued() const {
  size_t n = 0;
  for (const auto& [id, t] : tenants_) n += t.queue.size();
  return n;
}

void TenantStats::ExportMetrics(obs::Metrics& image) const {
  image.Counter("qos_submitted", submitted);
  image.Counter("qos_queued", queued);
  image.Counter("qos_throttled", throttled);
  image.Counter("qos_wait_ns", wait_ns);
  image.Gauge("qos_peak_queue", static_cast<double>(peak_queue));
}

void Scheduler::ExportMetrics(obs::Metrics& node) const {
  node.Gauge("queued", static_cast<double>(total_queued()));
  node.Gauge("inflight", static_cast<double>(inflight_));
  for (const auto& [id, t] : tenants_) {
    const TenantStats& s = t.stats;
    obs::Metrics& tn = node.Child("tenant_" + std::to_string(id));
    tn.Counter("submitted", s.submitted);
    tn.Counter("admitted", s.admitted);
    tn.Counter("queued", s.queued);
    tn.Counter("reservation_dispatches", s.reservation_dispatches);
    tn.Counter("throttled", s.throttled);
    tn.Counter("depth_deferred", s.depth_deferred);
    tn.Counter("wait_ns", s.wait_ns);
    tn.Gauge("peak_queue", static_cast<double>(s.peak_queue));
    tn.Gauge("inflight", static_cast<double>(s.inflight));
    tn.Gauge("peak_inflight", static_cast<double>(s.peak_inflight));
  }
}

void Scheduler::Submit(TenantId id, uint64_t cost_bytes, bool charge,
                       sim::Task<void> io) {
  auto it = tenants_.find(id);
  assert(it != tenants_.end() && "unknown QoS tenant");
  if (!it->second.policy.enabled) {
    // Passthrough: identical to not having a scheduler at all.
    sim::Scheduler::Current().Spawn(std::move(io));
    return;
  }
  Op op;
  op.io = std::move(io);
  op.cost_bytes = cost_bytes;
  op.charge = charge;
  Enqueue(id, std::move(op));
  Pump();
}

void Scheduler::Enqueue(TenantId id, Op op) {
  Tenant& t = tenants_[id];
  op.enqueued_at = sim::Scheduler::Current().now();
  const double now = Seconds(op.enqueued_at);
  if (t.reservation_iops > 0) {
    op.rtag = std::max(t.r_prev + 1.0 / t.reservation_iops, now);
    t.r_prev = op.rtag;
  } else {
    op.rtag = kInf;
  }
  op.ptag = std::max(t.p_prev + 1.0 / t.weight, now);
  t.p_prev = op.ptag;
  t.queue.push_back(std::move(op));
  t.stats.submitted++;
  t.stats.peak_queue = std::max(t.stats.peak_queue, t.queue.size());
}

bool Scheduler::Arrive(TenantId id) {
  Enqueue(id, Op{});
  admitted_on_arrival_ = false;
  Pump();
  return admitted_on_arrival_;
}

void Scheduler::Park(TenantId id, std::coroutine_handle<> h) {
  // Arrive left the op last in its tenant's FIFO; nothing ran since.
  tenants_.find(id)->second.queue.back().waiter = h;
}

void Scheduler::Release(TenantId id) {
  // Detach requires an idle tenant, so a held slot's tenant still exists.
  TenantStats& s = tenants_.find(id)->second.stats;
  assert(s.inflight > 0 && inflight_ > 0);
  s.inflight--;
  inflight_--;
  Pump();
}

Scheduler::Block Scheduler::Blocked(Tenant& t, sim::SimTime now) {
  if (t.policy.max_queue_depth > 0 &&
      t.stats.inflight >= t.policy.max_queue_depth) {
    return Block::kDepth;  // this tenant's completion re-pumps
  }
  const Op& head = t.queue.front();
  if (!head.charge) return Block::kNone;
  t.ops_bucket.Refill(now);
  t.bw_bucket.Refill(now);
  if (!t.ops_bucket.CanTake(1) ||
      !t.bw_bucket.CanTake(static_cast<double>(head.cost_bytes))) {
    return Block::kTokens;
  }
  return Block::kNone;
}

void Scheduler::Pump() {
  const sim::SimTime now = sim::Scheduler::Current().now();
  const double now_sec = Seconds(now);
  while (slots_ == 0 || inflight_ < slots_) {
    auto pick = tenants_.end();
    bool reservation = false;
    double pick_tag = kInf;
    for (auto it = tenants_.begin(); it != tenants_.end(); ++it) {
      Tenant& t = it->second;
      if (t.queue.empty() || Blocked(t, now) != Block::kNone) continue;
      const Op& head = t.queue.front();
      const double rtag = head.rtag - t.r_credit;
      if (rtag <= now_sec) {
        if (!reservation || rtag < pick_tag) {
          pick = it;
          reservation = true;
          pick_tag = rtag;
        }
      } else if (!reservation &&
                 (pick == tenants_.end() || head.ptag < pick_tag)) {
        pick = it;
        pick_tag = head.ptag;
      }
    }
    if (pick != tenants_.end()) {
      Tenant& t = pick->second;
      if (!reservation && t.reservation_iops > 0) {
        // Weight-phase service: credit the reservation clock so the
        // tenant's minimum stays a floor on top of proportional service.
        t.r_credit += 1.0 / t.reservation_iops;
      }
      Dispatch(pick->first, t, reservation, now);
      continue;
    }
    // Every queued head is blocked: count why, and wake at the earliest
    // refill if any head waits for tokens (caps re-pump on completion).
    sim::SimTime wake_at = kNever;
    for (auto& [id, t] : tenants_) {
      if (t.queue.empty()) continue;
      if (Blocked(t, now) == Block::kDepth) {
        t.stats.depth_deferred++;
        continue;
      }
      t.stats.throttled++;
      const double cost = static_cast<double>(t.queue.front().cost_bytes);
      const sim::SimTime at = std::max(t.ops_bucket.WhenAdmissible(1, now),
                                       t.bw_bucket.WhenAdmissible(cost, now));
      wake_at = std::min(wake_at, at);
    }
    if (wake_at != kNever) ArmTimer(wake_at);
    return;
  }
}

void Scheduler::Dispatch(TenantId id, Tenant& t, bool reservation,
                         sim::SimTime now) {
  Op op = std::move(t.queue.front());
  t.queue.pop_front();
  if (op.charge) {
    t.ops_bucket.Take(1);
    t.bw_bucket.Take(static_cast<double>(op.cost_bytes));
  }
  TenantStats& s = t.stats;
  s.admitted++;
  if (reservation) s.reservation_dispatches++;
  if (now > op.enqueued_at) {
    s.queued++;
    s.wait_ns += now - op.enqueued_at;
  }
  s.inflight++;
  s.peak_inflight = std::max(s.peak_inflight, s.inflight);
  inflight_++;
  if (op.io.valid()) {
    sim::Scheduler::Current().Spawn(
        RunOne(alive_, this, id, std::move(op.io)));
  } else if (op.waiter) {
    sim::Scheduler::Current().ScheduleNow(op.waiter);
  } else {
    admitted_on_arrival_ = true;  // Arrive's own op: no suspension
  }
}

void Scheduler::ArmTimer(sim::SimTime at) {
  if (timer_armed_ && timer_at_ <= at) return;  // an earlier wake covers it
  timer_armed_ = true;
  timer_at_ = at;
  sim::Scheduler::Current().Spawn(TimerFire(alive_, this, ++timer_seq_, at));
}

sim::Task<void> Scheduler::TimerFire(std::shared_ptr<bool> alive,
                                     Scheduler* self, uint64_t seq,
                                     sim::SimTime at) {
  const sim::SimTime now = sim::Scheduler::Current().now();
  if (at > now) co_await sim::Sleep{at - now};
  // A newer, earlier timer superseded this one: it pumps instead.
  if (!*alive || self->timer_seq_ != seq) co_return;
  self->timer_armed_ = false;
  self->Pump();
}

sim::Task<void> Scheduler::RunOne(std::shared_ptr<bool> alive,
                                  Scheduler* self, TenantId id,
                                  sim::Task<void> io) {
  co_await std::move(io);
  if (*alive) self->Release(id);
}

}  // namespace vde::qos
