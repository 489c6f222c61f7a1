// AddressSanitizer hooks for pooled memory. Memory a pool keeps for reuse is
// poisoned while it sits in the pool, so a use after free of a pooled object
// still faults under the sanitizer. Both calls are no-ops in other builds.
#pragma once

#include <cstddef>

#if defined(__SANITIZE_ADDRESS__)
#define VDE_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define VDE_ASAN 1
#endif
#endif

#ifdef VDE_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace vde {

inline void PoisonMemory([[maybe_unused]] const void* p,
                         [[maybe_unused]] size_t n) {
#ifdef VDE_ASAN
  ASAN_POISON_MEMORY_REGION(p, n);
#endif
}

inline void UnpoisonMemory([[maybe_unused]] const void* p,
                           [[maybe_unused]] size_t n) {
#ifdef VDE_ASAN
  ASAN_UNPOISON_MEMORY_REGION(p, n);
#endif
}

}  // namespace vde
