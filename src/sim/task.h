// Lazy coroutine task for the discrete-event simulator.
//
// A Task<T> is a suspended computation in *simulated* time. Awaiting it
// starts it (symmetric transfer); completion resumes the awaiter. Detached
// tasks (Scheduler::Spawn) self-destroy at final suspend. Single-threaded by
// design — the whole simulation runs deterministically on one thread.
//
// Frames come from per-thread free lists, one per 64 B size class: a
// simulation creates and destroys millions of short-lived frames of a few
// sizes. Pooled frames are ASan-poisoned, so a use after free still faults.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <exception>
#include <optional>
#include <utility>

namespace vde::sim {

template <typename T>
class Task;

namespace detail {

// Coroutine frame memory (task.cc).
void* AllocFrame(std::size_t size);
void FreeFrame(void* frame, std::size_t size) noexcept;

struct PromiseBase {
  static void* operator new(std::size_t size) { return AllocFrame(size); }
  static void operator delete(void* frame, std::size_t size) noexcept {
    FreeFrame(frame, size);
  }

  std::coroutine_handle<> continuation;
  bool detached = false;
  std::exception_ptr exception;

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) noexcept {
      auto& promise = h.promise();
      if (promise.detached) {
        // Nobody awaits a detached task; reclaim the frame now.
        if (promise.exception) std::terminate();
        h.destroy();
        return std::noop_coroutine();
      }
      return promise.continuation ? promise.continuation
                                  : std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() { exception = std::current_exception(); }
};

template <typename T>
struct Promise : PromiseBase {
  std::optional<T> value;

  Task<T> get_return_object();
  void return_value(T v) { value.emplace(std::move(v)); }
};

template <>
struct Promise<void> : PromiseBase {
  Task<void> get_return_object();
  void return_void() {}
};

}  // namespace detail

template <typename T = void>
class [[nodiscard]] Task {
 public:
  using promise_type = detail::Promise<T>;
  using Handle = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(Handle h) : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      Destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { Destroy(); }

  bool valid() const { return static_cast<bool>(handle_); }

  // Transfers ownership of the raw handle (used by Scheduler::Spawn).
  Handle Release() { return std::exchange(handle_, {}); }

  auto operator co_await() && {
    struct Awaiter {
      Handle handle;
      bool await_ready() { return !handle || handle.done(); }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) {
        handle.promise().continuation = cont;
        return handle;  // start the child task now
      }
      T await_resume() {
        auto& p = handle.promise();
        if (p.exception) std::rethrow_exception(p.exception);
        if constexpr (!std::is_void_v<T>) {
          return std::move(*p.value);
        }
      }
    };
    return Awaiter{handle_};
  }

 private:
  void Destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  Handle handle_;
};

namespace detail {

template <typename T>
Task<T> Promise<T>::get_return_object() {
  return Task<T>(std::coroutine_handle<Promise<T>>::from_promise(*this));
}

inline Task<void> Promise<void>::get_return_object() {
  return Task<void>(std::coroutine_handle<Promise<void>>::from_promise(*this));
}

}  // namespace detail

}  // namespace vde::sim
