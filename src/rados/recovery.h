// Background recovery: streams missing objects to the acting set after a
// map change, in parallel across PGs, throttled by a token bucket.
//
// Work discovery is pull-based: workers scan the PG logs for (pg, target,
// oid) triples where `target` is an acting member missing `oid`, primary
// slots first (a missing primary blocks client IO via inline pulls, so it
// drains before plain replica debt). Each push reads the object's head
// state (data + OMAP rows) from a survivor that has it, ships it over the
// node NICs, and applies it on the target; a client write that lands
// mid-push bumps the object generation, which the push detects at
// completion — the object stays missing and is pushed again.
//
// The token bucket throttles background pushes only. An inline pull (a
// client op arriving at a primary that is itself missing the object) that
// finds no push in flight pushes the object itself and skips the throttle.
// One that finds a background push already in flight waits for that push
// instead, and that push may be waiting in the token bucket: the client op
// then pays the throttle after all.
//
// Lifetime: workers are detached sim tasks holding a Cluster reference.
// Any scenario that calls MarkOsdDown/MarkOsdUp must co_await
// WaitForClean() (or Cluster::Drain, which includes it) before tearing the
// cluster down.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <tuple>

#include "qos/token_bucket.h"
#include "sim/scheduler.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "util/stats.h"
#include "util/status.h"

namespace vde::rados {

class Cluster;

struct RecoveryConfig {
  // Token-bucket throttle on background push bytes; <= 0 = unthrottled.
  double rate_bytes_per_sec = 256e6;
  double burst_bytes = 16.0 * (1 << 20);
  // Concurrent background pushes (across PGs).
  size_t parallelism = 4;
};

#define VDE_RECOVERY_STATS(C, G)                                      \
  C(objects_pushed)                                                   \
  C(bytes_pushed)                                                     \
  C(inline_pulls)                                                     \
  C(stale_pushes)          /* push raced a write; object re-queued */ \
  C(objects_unrecoverable) /* no surviving copy of the head */

struct RecoveryStats {
  VDE_STATS(RecoveryStats, VDE_RECOVERY_STATS)
};

class RecoveryManager {
 public:
  RecoveryManager(Cluster& cluster, const RecoveryConfig& config);

  // Ensures `parallelism` background workers are running if any PG is
  // degraded. Called after every map change; cheap no-op when clean.
  void Kick();

  // Recovers one object to `target` (or waits for the in-flight push doing
  // so). inline_pull marks a client-path pull: a push it starts itself is
  // unthrottled and counted in inline_pulls, but a background push it waits
  // for keeps its place in the token bucket. Returns once `target` is no
  // longer missing `oid`.
  sim::Task<Status> RecoverObject(uint32_t pg, size_t target,
                                  const std::string& oid, bool inline_pull);

  // Resolves when no PG is degraded and all workers have parked.
  sim::Task<void> WaitForClean();

  const RecoveryStats& stats() const { return stats_; }
  size_t active_workers() const { return workers_; }

 private:
  using Key = std::tuple<uint32_t, size_t, std::string>;

  sim::Task<void> Worker();
  // Picks the next not-in-flight missing object, primaries first.
  bool NextWork(uint32_t* pg, size_t* target, std::string* oid) const;
  // One push attempt; returns without clearing the missing entry when the
  // object generation moved underneath it.
  sim::Task<void> PushObject(uint32_t pg, size_t target, const std::string& oid,
                             bool throttled);
  sim::Task<void> ThrottleBytes(double bytes);
  // Fires the progress gate (push finished / worker parked) so waiters
  // (WaitForClean, duplicate RecoverObject callers) re-check state.
  void NotifyProgress();

  Cluster& cluster_;
  RecoveryConfig config_;
  qos::TokenBucket bucket_;
  size_t workers_ = 0;
  std::set<Key> inflight_;
  std::shared_ptr<sim::Gate> progress_ = std::make_shared<sim::Gate>();
  RecoveryStats stats_;
};

}  // namespace vde::rados
