// Shared helpers for simulation-based tests.
//
// gtest's ASSERT_* macros issue a plain `return`, which is ill-formed inside
// a coroutine; CO_ASSERT_* below records the failure and `co_return`s.
// EXPECT_* macros work unchanged in coroutines.
#pragma once

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "rados/cluster.h"
#include "rbd/image.h"
#include "sim/scheduler.h"
#include "sim/task.h"

namespace vde::testutil {

// The cluster most tests run on: the default topology with an 8 MiB
// objstore journal and a 32 MiB kv region. Tests that need more start from
// it and set their extra fields.
inline rados::ClusterConfig TestCluster() {
  rados::ClusterConfig c;
  c.store.journal_size = 8ull << 20;
  c.store.kv_region_size = 32ull << 20;
  return c;
}

// Single-replica topology (1 node x 3 OSDs): store transaction counts map
// 1:1 to client transactions.
inline rados::ClusterConfig SingleReplicaCluster() {
  rados::ClusterConfig c = TestCluster();
  c.nodes = 1;
  c.osds_per_node = 3;
  c.replication = 1;
  return c;
}

// Runs an async test body to completion on a fresh scheduler.
inline void RunSim(std::function<sim::Task<void>()> body) {
  sim::Scheduler sched;
  bool finished = false;
  sched.Spawn([](std::function<sim::Task<void>()> b,
                 bool* done) -> sim::Task<void> {
    co_await b();
    *done = true;
  }(std::move(body), &finished));
  sched.Run();
  ASSERT_TRUE(finished) << "simulation did not run the body to completion "
                           "(deadlock or lost continuation)";
}

// Counter `name` of the registry's `image` node, read from a snapshot or a
// FioResult delta. A name the registry lacks fails the test instead of
// reading as 0.
inline uint64_t ImageCounter(const obs::Metrics& m, const std::string& name) {
  const uint64_t* v = m.FindCounter("image." + name);
  if (v == nullptr) {
    ADD_FAILURE() << "no counter image." << name << " in the registry";
    return 0;
  }
  return *v;
}

inline uint64_t ImageCounter(const rbd::Image& image,
                             const std::string& name) {
  return ImageCounter(image.MetricsSnapshot(), name);
}

// Encryption specs core::SpecError rejects, by broken rule: a random-IV
// mode without a layout; a length-preserving mode with a layout, an HMAC
// or a codec; GCM with an HMAC.
inline std::vector<core::EncryptionSpec> RejectedSpecs() {
  using core::CipherMode;
  using core::IvLayout;
  const auto spec = [](CipherMode mode, IvLayout layout, bool hmac,
                       bool lz) {
    core::EncryptionSpec s;
    s.mode = mode;
    s.layout = layout;
    if (hmac) s.integrity = core::Integrity::kHmac;
    if (lz) s.compression.codec = core::Compression::kLz;
    return s;
  };
  std::vector<core::EncryptionSpec> specs = {
      spec(CipherMode::kXtsRandom, IvLayout::kNone, false, false),
      spec(CipherMode::kGcmRandom, IvLayout::kNone, false, false),
      spec(CipherMode::kXtsRandom, IvLayout::kNone, true, true),
      spec(CipherMode::kGcmRandom, IvLayout::kObjectEnd, true, false),
      spec(CipherMode::kGcmRandom, IvLayout::kOmap, true, true),
  };
  for (const CipherMode mode : {CipherMode::kNone, CipherMode::kXtsLba,
                                CipherMode::kXtsEssiv, CipherMode::kWideLba}) {
    specs.push_back(spec(mode, IvLayout::kOmap, false, false));
    specs.push_back(spec(mode, IvLayout::kUnaligned, false, false));
    specs.push_back(spec(mode, IvLayout::kNone, true, false));
    specs.push_back(spec(mode, IvLayout::kNone, false, true));
    specs.push_back(spec(mode, IvLayout::kObjectEnd, true, true));
  }
  return specs;
}

}  // namespace vde::testutil

// Coroutine-safe fatal assertions.
#define CO_ASSERT_TRUE(cond)                          \
  do {                                                \
    if (!(cond)) {                                    \
      ADD_FAILURE() << "CO_ASSERT_TRUE(" #cond ")";   \
      co_return;                                      \
    }                                                 \
  } while (0)

#define CO_ASSERT_FALSE(cond)                         \
  do {                                                \
    if ((cond)) {                                     \
      ADD_FAILURE() << "CO_ASSERT_FALSE(" #cond ")";  \
      co_return;                                      \
    }                                                 \
  } while (0)

#define CO_ASSERT_EQ(a, b)                                              \
  do {                                                                  \
    if (!((a) == (b))) {                                                \
      ADD_FAILURE() << "CO_ASSERT_EQ(" #a ", " #b ") failed";           \
      co_return;                                                        \
    }                                                                   \
  } while (0)

#define CO_ASSERT_OK(expr)                                              \
  do {                                                                  \
    const auto& vde_co_status = (expr);                                 \
    if (!vde_co_status.ok()) {                                          \
      ADD_FAILURE() << "CO_ASSERT_OK(" #expr "): "                      \
                    << vde_co_status.ToString();                        \
      co_return;                                                        \
    }                                                                   \
  } while (0)
