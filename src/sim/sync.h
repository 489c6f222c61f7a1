// Synchronization primitives for simulated tasks: FIFO semaphore (models
// devices/links with finite parallelism), WaitGroup (join N spawned tasks),
// Gate (single-fire broadcast event).
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <deque>
#include <vector>

#include "sim/scheduler.h"
#include "sim/task.h"
#include "util/status.h"

namespace vde::sim {

// Counting semaphore with strict FIFO wakeup — a queue-depth-limited
// resource. Deterministic: waiters resume in arrival order.
class Semaphore {
 public:
  explicit Semaphore(size_t permits) : available_(permits) {}
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  struct [[nodiscard]] Awaiter {
    Semaphore& sem;
    bool await_ready() {
      if (sem.available_ > 0) {
        sem.available_--;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) { sem.waiters_.push_back(h); }
    void await_resume() {}
  };

  // co_await Acquire() takes one permit, waiting FIFO if none is free.
  Awaiter Acquire() { return Awaiter{*this}; }

  void Release() {
    if (!waiters_.empty()) {
      auto h = waiters_.front();
      waiters_.pop_front();
      // Hand the permit directly to the waiter (count unchanged).
      Scheduler::Current().ScheduleNow(h);
    } else {
      available_++;
    }
  }

  size_t available() const { return available_; }
  size_t waiting() const { return waiters_.size(); }

 private:
  size_t available_;
  std::deque<std::coroutine_handle<>> waiters_;
};

// RAII permit holder.
class SemGuard {
 public:
  explicit SemGuard(Semaphore& sem) : sem_(&sem) {}
  SemGuard(SemGuard&& o) noexcept : sem_(std::exchange(o.sem_, nullptr)) {}
  SemGuard(const SemGuard&) = delete;
  SemGuard& operator=(const SemGuard&) = delete;
  SemGuard& operator=(SemGuard&&) = delete;
  ~SemGuard() {
    if (sem_) sem_->Release();
  }

 private:
  Semaphore* sem_;
};

// Shared/exclusive (reader-writer) lock with FIFO admission: readers run
// concurrently, writers exclusively, and a queued writer blocks later
// readers (no writer starvation). Deterministic like Semaphore.
class SharedLock {
 public:
  SharedLock() = default;
  SharedLock(const SharedLock&) = delete;
  SharedLock& operator=(const SharedLock&) = delete;

  struct [[nodiscard]] Awaiter {
    SharedLock& lock;
    bool exclusive;
    bool await_ready() {
      if (lock.CanGrant(exclusive)) {
        lock.Grant(exclusive);
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      lock.waiters_.push_back({h, exclusive});
    }
    void await_resume() {}
  };

  Awaiter AcquireShared() { return Awaiter{*this, /*exclusive=*/false}; }
  Awaiter AcquireExclusive() { return Awaiter{*this, /*exclusive=*/true}; }

  void ReleaseShared() {
    assert(readers_ > 0);
    readers_--;
    Pump();
  }
  void ReleaseExclusive() {
    assert(writer_active_);
    writer_active_ = false;
    Pump();
  }

  bool idle() const {
    return !writer_active_ && readers_ == 0 && waiters_.empty();
  }

 private:
  struct Waiter {
    std::coroutine_handle<> handle;
    bool exclusive;
  };

  bool CanGrant(bool exclusive) const {
    if (exclusive) {
      return !writer_active_ && readers_ == 0 && waiters_.empty();
    }
    return !writer_active_ && waiters_.empty();
  }
  void Grant(bool exclusive) {
    if (exclusive) {
      writer_active_ = true;
    } else {
      readers_++;
    }
  }
  void Pump() {
    while (!waiters_.empty()) {
      Waiter& w = waiters_.front();
      if (w.exclusive) {
        if (writer_active_ || readers_ > 0) break;
        writer_active_ = true;
        Scheduler::Current().ScheduleNow(w.handle);
        waiters_.pop_front();
        break;
      }
      if (writer_active_) break;
      readers_++;
      Scheduler::Current().ScheduleNow(w.handle);
      waiters_.pop_front();
    }
  }

  bool writer_active_ = false;
  size_t readers_ = 0;
  std::deque<Waiter> waiters_;
};

// Join-counter for spawned tasks: Add() before spawn, Done() on completion,
// co_await Wait() resumes when the count reaches zero.
class WaitGroup {
 public:
  explicit WaitGroup(size_t count = 0) : count_(count) {}

  void Add(size_t n = 1) { count_ += n; }

  void Done() {
    assert(count_ > 0);
    if (--count_ == 0) {
      for (auto h : waiters_) Scheduler::Current().ScheduleNow(h);
      waiters_.clear();
    }
  }

  struct [[nodiscard]] Awaiter {
    WaitGroup& wg;
    bool await_ready() { return wg.count_ == 0; }
    void await_suspend(std::coroutine_handle<> h) {
      wg.waiters_.push_back(h);
    }
    void await_resume() {}
  };

  Awaiter Wait() { return Awaiter{*this}; }

  size_t count() const { return count_; }

 private:
  size_t count_;
  std::vector<std::coroutine_handle<>> waiters_;
};

// Single-fire broadcast: all waiters resume once Fire() is called; waiting
// on a fired gate completes immediately.
class Gate {
 public:
  void Fire() {
    if (fired_) return;
    fired_ = true;
    for (auto h : waiters_) Scheduler::Current().ScheduleNow(h);
    waiters_.clear();
  }

  bool fired() const { return fired_; }

  struct [[nodiscard]] Awaiter {
    Gate& gate;
    bool await_ready() { return gate.fired_; }
    void await_suspend(std::coroutine_handle<> h) {
      gate.waiters_.push_back(h);
    }
    void await_resume() {}
  };

  Awaiter Wait() { return Awaiter{*this}; }

 private:
  bool fired_ = false;
  std::vector<std::coroutine_handle<>> waiters_;
};

// Runs `inner` then signals `wg`. Building block for fork/join:
//   WaitGroup wg(tasks.size());
//   for (auto& t : tasks) Scheduler::Current().Spawn(RunAndSignal(std::move(t), wg));
//   co_await wg.Wait();
inline Task<void> RunAndSignal(Task<void> inner, WaitGroup& wg) {
  co_await std::move(inner);
  wg.Done();
}

// Spawns all tasks concurrently and waits for every one to finish.
inline Task<void> WhenAll(std::vector<Task<void>> tasks) {
  WaitGroup wg(tasks.size());
  for (auto& t : tasks) {
    Scheduler::Current().Spawn(RunAndSignal(std::move(t), wg));
  }
  co_await wg.Wait();
}

// Spawns all tasks concurrently, waits for every one, and returns the first
// error in task order (Ok when all succeeded).
inline Task<Status> WhenAllOk(std::vector<Task<Status>> tasks) {
  std::vector<Status> results(tasks.size());
  std::vector<Task<void>> runs;
  runs.reserve(tasks.size());
  for (size_t i = 0; i < tasks.size(); ++i) {
    runs.push_back([](Task<Status> task, Status* out) -> Task<void> {
      *out = co_await std::move(task);
    }(std::move(tasks[i]), &results[i]));
  }
  co_await WhenAll(std::move(runs));
  for (Status& s : results) {
    if (!s.ok()) co_return std::move(s);
  }
  co_return Status::Ok();
}

}  // namespace vde::sim
