// Per-PG write log: object write generations, per-OSD applied state, and
// the derived missing sets that drive recovery.
//
// Mirrors the role of Ceph's pg_log + missing set at object granularity:
// every replicated write bumps the object's generation on the primary;
// every successful apply records "OSD o has generation g of oid". When the
// acting set changes (an OSD dies or returns), Peer() recomputes, for each
// acting member, the set of objects whose applied generation lags the log —
// exactly the objects recovery must stream to that member. Writes that land
// while a member is missing an object simply skip it (the generation gap
// keeps it missing), so degraded writes commit on the survivors without
// blocking on recovery.
//
// Pure bookkeeping: no coroutines, no sim events — maintaining the log on
// the healthy path cannot move the simulated clock.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace vde::rados {

class PgLog {
 public:
  // Records a new write to `oid`; returns the new generation (1-based).
  uint64_t NoteWrite(const std::string& oid) { return ++gens_[oid]; }

  // Latest logged generation of `oid` (0 = never written through this PG).
  uint64_t gen(const std::string& oid) const {
    auto it = gens_.find(oid);
    return it == gens_.end() ? 0 : it->second;
  }

  // Records that `osd` applied generation `g` of `oid`. Clears the missing
  // entry when that catches the OSD up to the log head. Generations only
  // move forward: a late ack for an older write cannot roll state back.
  void NoteHave(size_t osd, const std::string& oid, uint64_t g);

  // True when `osd`'s applied generation matches the log head for `oid`.
  bool Has(size_t osd, const std::string& oid) const;

  bool IsMissing(size_t osd, const std::string& oid) const;

  // Recomputes the missing sets for a new acting set: for each member,
  // every logged object whose applied generation lags the head. Members of
  // the previous acting set keep their applied state (they may return).
  void Peer(const std::vector<size_t>& acting);

  size_t MissingCount() const;
  bool Clean() const { return MissingCount() == 0; }

  // Missing objects per acting member (recovery work queue).
  const std::map<size_t, std::set<std::string>>& missing() const {
    return missing_;
  }

  // Drops `oid` from `osd`'s missing set without marking it applied — the
  // unrecoverable-object escape hatch (no surviving copy holds the head).
  void Forget(size_t osd, const std::string& oid);

 private:
  std::map<std::string, uint64_t> gens_;                 // oid -> head gen
  std::map<size_t, std::map<std::string, uint64_t>> have_;  // osd -> applied
  std::map<size_t, std::set<std::string>> missing_;      // acting members
};

}  // namespace vde::rados
