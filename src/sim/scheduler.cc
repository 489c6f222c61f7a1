#include "sim/scheduler.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>

namespace vde::sim {

namespace {
thread_local Scheduler* g_current = nullptr;
}  // namespace

Scheduler::Scheduler() {
  assert(g_current == nullptr && "one Scheduler per thread at a time");
  g_current = this;
  // Test-harness hook: a ctest shard can run whole suites under the
  // multi-core executor without touching each fixture (results must be
  // identical at any core count; only the clock moves).
  if (const char* env = std::getenv("VDE_SIM_CORES")) {
    const long n = std::strtol(env, nullptr, 10);
    if (n > 0) ConfigureCores(static_cast<unsigned>(n));
  }
}

Scheduler::~Scheduler() {
  // Drain un-run events: destroying their coroutine frames here would
  // double-free frames owned by Task objects; detached frames leak only if
  // the simulation was abandoned mid-run, which tests treat as a bug.
  g_current = nullptr;
}

Scheduler& Scheduler::Current() {
  assert(g_current != nullptr && "no Scheduler is active");
  return *g_current;
}

void Scheduler::ScheduleAt(SimTime at, std::coroutine_handle<> h) {
  assert(at >= now_ && "cannot schedule into the past");
  if (at == now_) {
    ready_.push_back(h);
  } else {
    queue_.push(Event{at, next_seq_++, h});
  }
}

void Scheduler::ConfigureCores(unsigned n) {
  busy_until_.assign(n, 0);
  busy_ns_.assign(n, 0);
}

SimTime Scheduler::ReserveCpu(uint64_t shard_key, SimTime cost) {
  if (busy_until_.empty()) return now_ + cost;  // legacy: unlimited overlap
  return Reserve(shard_key % busy_until_.size(), cost);
}

SimTime Scheduler::ReserveAnyCpu(SimTime cost) {
  if (busy_until_.empty()) return now_ + cost;
  // min_element returns the first minimum: ties go to the lowest index.
  const auto least = std::min_element(busy_until_.begin(), busy_until_.end());
  return Reserve(static_cast<size_t>(least - busy_until_.begin()), cost);
}

SimTime Scheduler::Reserve(size_t core, SimTime cost) {
  const SimTime start = std::max(now_, busy_until_[core]);
  busy_until_[core] = start + cost;
  busy_ns_[core] += cost;
  return start + cost;
}

void Scheduler::Spawn(Task<void> task) {
  auto handle = task.Release();
  assert(handle && "spawning an empty task");
  handle.promise().detached = true;
  ScheduleNow(handle);
}

bool Scheduler::RunNext(SimTime deadline) {
  std::coroutine_handle<> h;
  if (now_ > deadline) return false;
  if (!queue_.empty() && queue_.top().at == now_) {
    h = queue_.top().handle;
    queue_.pop();
  } else if (ready_head_ < ready_.size()) {
    h = ready_[ready_head_++];
    if (ready_head_ == ready_.size()) {
      ready_.clear();
      ready_head_ = 0;
    }
  } else if (!queue_.empty() && queue_.top().at <= deadline) {
    now_ = queue_.top().at;
    h = queue_.top().handle;
    queue_.pop();
  } else {
    return false;
  }
  events_processed_++;
  h.resume();
  return true;
}

SimTime Scheduler::Run() {
  while (RunNext(~SimTime{0})) {
  }
  return now_;
}

SimTime Scheduler::RunUntil(SimTime deadline) {
  while (RunNext(deadline)) {
  }
  if (now_ < deadline) now_ = deadline;
  return now_;
}

}  // namespace vde::sim
