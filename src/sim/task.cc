#include "sim/task.h"

#include <new>

#include "util/asan.h"

namespace vde::sim::detail {

namespace {

constexpr std::size_t kGranule = 64;
constexpr std::size_t kClasses = 64;  // frames up to 4 KiB are pooled

// Free frames of class c (size (c + 1) * kGranule), linked through their
// first word.
thread_local void* free_frames[kClasses] = {};
thread_local bool pool_closed = false;

// Returns the pooled frames to the heap when the thread exits, before a
// leak checker looks at the process; frames freed later skip the pool.
struct PoolReaper {
  bool armed = false;
  ~PoolReaper() {
    pool_closed = true;
    for (std::size_t cls = 0; cls < kClasses; ++cls) {
      while (void* frame = free_frames[cls]) {
        UnpoisonMemory(frame, (cls + 1) * kGranule);
        free_frames[cls] = *static_cast<void**>(frame);
        ::operator delete(frame);
      }
    }
  }
};
thread_local PoolReaper reaper;

}  // namespace

void* AllocFrame(std::size_t size) {
  const std::size_t cls = (size - 1) / kGranule;
  if (cls >= kClasses) return ::operator new(size);
  void* frame = free_frames[cls];
  if (frame == nullptr) {
    reaper.armed = true;  // constructs it, so its destructor will run
    return ::operator new((cls + 1) * kGranule);
  }
  UnpoisonMemory(frame, (cls + 1) * kGranule);
  free_frames[cls] = *static_cast<void**>(frame);
  return frame;
}

void FreeFrame(void* frame, std::size_t size) noexcept {
  const std::size_t cls = (size - 1) / kGranule;
  if (cls >= kClasses || pool_closed) {
    ::operator delete(frame);
    return;
  }
  *static_cast<void**>(frame) = free_frames[cls];
  free_frames[cls] = frame;
  PoisonMemory(frame, (cls + 1) * kGranule);
}

}  // namespace vde::sim::detail
