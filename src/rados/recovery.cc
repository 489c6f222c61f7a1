#include "rados/recovery.h"

#include <algorithm>

#include "net/link.h"
#include "rados/cluster.h"

namespace vde::rados {

namespace {
// Target-side software cost of ingesting one push (decode + queue).
constexpr sim::SimTime kPushCost = 220 * sim::kUs;
}  // namespace

RecoveryManager::RecoveryManager(Cluster& cluster, const RecoveryConfig& config)
    : cluster_(cluster),
      config_(config),
      bucket_(config.rate_bytes_per_sec, config.burst_bytes) {}

void RecoveryManager::Kick() {
  if (cluster_.DegradedObjectCount() == 0) return;
  while (workers_ < config_.parallelism) {
    workers_++;
    sim::Scheduler::Current().Spawn(Worker());
  }
}

void RecoveryManager::NotifyProgress() {
  auto fired = progress_;
  progress_ = std::make_shared<sim::Gate>();
  fired->Fire();
}

sim::Task<void> RecoveryManager::WaitForClean() {
  while (cluster_.DegradedObjectCount() > 0 || workers_ > 0) {
    auto gate = progress_;
    co_await gate->Wait();
  }
}

bool RecoveryManager::NextWork(uint32_t* pg, size_t* target,
                               std::string* oid) const {
  const OsdMap& map = cluster_.placement().map();
  // Two passes: primary slots first — a missing primary turns every client
  // op on that object into an inline pull, so that debt hurts most.
  for (int pass = 0; pass < 2; ++pass) {
    for (uint32_t p = 0; p < map.pg_count(); ++p) {
      const PgLog& log = cluster_.pg_log(p);
      if (log.MissingCount() == 0) continue;
      const std::vector<size_t>& acting = map.ActingFor(p);
      for (size_t r = 0; r < acting.size(); ++r) {
        if ((pass == 0) != (r == 0)) continue;
        const size_t member = acting[r];
        auto it = log.missing().find(member);
        if (it == log.missing().end()) continue;
        for (const std::string& o : it->second) {
          if (inflight_.count(Key{p, member, o})) continue;
          *pg = p;
          *target = member;
          *oid = o;
          return true;
        }
      }
    }
  }
  return false;
}

sim::Task<void> RecoveryManager::Worker() {
  for (;;) {
    uint32_t pg = 0;
    size_t target = 0;
    std::string oid;
    if (NextWork(&pg, &target, &oid)) {
      co_await RecoverObject(pg, target, oid, /*inline_pull=*/false);
      continue;
    }
    if (cluster_.DegradedObjectCount() == 0) break;
    // Everything left is in flight elsewhere — wait for progress, rescan.
    auto gate = progress_;
    co_await gate->Wait();
    if (cluster_.DegradedObjectCount() == 0) break;
  }
  workers_--;
  NotifyProgress();
}

sim::Task<Status> RecoveryManager::RecoverObject(uint32_t pg, size_t target,
                                                 const std::string& oid,
                                                 bool inline_pull) {
  const Key key{pg, target, oid};
  while (cluster_.pg_log(pg).IsMissing(target, oid)) {
    if (inflight_.count(key)) {
      // Someone is already pushing this object; piggyback on completion.
      auto gate = progress_;
      co_await gate->Wait();
      continue;
    }
    inflight_.insert(key);
    if (inline_pull) stats_.inline_pulls++;
    co_await PushObject(pg, target, oid, /*throttled=*/!inline_pull);
    inflight_.erase(key);
    NotifyProgress();
  }
  co_return Status::Ok();
}

sim::Task<void> RecoveryManager::ThrottleBytes(double bytes) {
  if (bucket_.unlimited()) co_return;
  for (;;) {
    const sim::SimTime now = sim::Scheduler::Current().now();
    bucket_.Refill(now);
    if (bucket_.CanTake(bytes)) {
      bucket_.Take(bytes);
      co_return;
    }
    const sim::SimTime at = bucket_.WhenAdmissible(bytes, now);
    co_await sim::Sleep{at > now ? at - now : 1};
  }
}

sim::Task<void> RecoveryManager::PushObject(uint32_t pg, size_t target,
                                            const std::string& oid,
                                            bool throttled) {
  PgLog& log = cluster_.pg_log(pg);
  const uint64_t gen0 = log.gen(oid);
  const OsdMap& map = cluster_.placement().map();

  // Source: any up OSD whose applied generation matches the log head —
  // acting members first (they are up by construction).
  size_t src = static_cast<size_t>(-1);
  for (size_t member : map.ActingFor(pg)) {
    if (member != target && log.Has(member, oid)) {
      src = member;
      break;
    }
  }
  if (src == static_cast<size_t>(-1)) {
    for (size_t id = 0; id < map.osd_count(); ++id) {
      if (id != target && map.IsUp(id) && log.Has(id, oid)) {
        src = id;
        break;
      }
    }
  }
  if (src == static_cast<size_t>(-1)) {
    // No surviving copy of the head: the object is lost. Forget it so
    // recovery terminates; the count is the operator's signal.
    stats_.objects_unrecoverable++;
    log.Forget(target, oid);
    co_return;
  }

  Osd& source = cluster_.osd(src);
  Osd& dest = cluster_.osd(target);

  // Snapshot the head state (data + OMAP rows) from the source. The data
  // travels as references to the source's pages, not as a copy.
  objstore::Transaction push;
  push.oid = oid;
  size_t payload = 0;
  if (source.store().ObjectExists(oid)) {
    const uint64_t size = source.store().ObjectSize(oid);
    objstore::Transaction read;
    read.oid = oid;
    objstore::OsdOp data_op;
    data_op.type = objstore::OsdOp::Type::kRead;
    data_op.offset = 0;
    data_op.length = size;
    data_op.as_pages = true;
    read.ops.push_back(std::move(data_op));
    objstore::OsdOp omap_op;
    omap_op.type = objstore::OsdOp::Type::kOmapGetRange;
    read.ops.push_back(std::move(omap_op));
    auto state = co_await source.store().ExecuteRead(read, objstore::kHeadSnap);
    if (!state.ok()) {
      stats_.objects_unrecoverable++;
      log.Forget(target, oid);
      co_return;
    }
    objstore::OsdOp write_op;
    write_op.type = objstore::OsdOp::Type::kWriteFull;
    write_op.pages = std::move(state->pages);
    payload += write_op.payload_size();
    push.ops.push_back(std::move(write_op));
    if (!state->omap_values.empty()) {
      objstore::OsdOp omap_set;
      omap_set.type = objstore::OsdOp::Type::kOmapSet;
      omap_set.omap_kvs = std::move(state->omap_values);
      for (const auto& [k, v] : omap_set.omap_kvs) {
        payload += k.size() + v.size();
      }
      push.ops.push_back(std::move(omap_set));
    }
  } else {
    // Head state is "removed": propagate the delete (if the target has a
    // stale copy) or nothing at all.
    if (!dest.store().ObjectExists(oid)) {
      if (log.gen(oid) == gen0) log.NoteHave(target, oid, gen0);
      co_return;
    }
    objstore::OsdOp remove_op;
    remove_op.type = objstore::OsdOp::Type::kRemove;
    push.ops.push_back(std::move(remove_op));
  }

  if (throttled) {
    co_await ThrottleBytes(static_cast<double>(payload + kRequestHeaderBytes));
  }

  // Ship the push over the cluster network and ingest it on the target.
  co_await net::Send(cluster_.node_nic(source.node()),
                     cluster_.node_nic(dest.node()),
                     kRequestHeaderBytes + payload);
  co_await sim::Sleep{kPushCost};
  const Status applied = co_await dest.store().Apply(push, {});
  if (!applied.ok()) co_return;  // left missing; a worker will retry

  if (log.gen(oid) == gen0) {
    log.NoteHave(target, oid, gen0);
    stats_.objects_pushed++;
    stats_.bytes_pushed += payload;
  } else {
    // A write landed mid-push; the copy we shipped is already stale.
    stats_.stale_pushes++;
  }
}

}  // namespace vde::rados
