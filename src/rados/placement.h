// Object placement: PG mapping + rendezvous (HRW) hashing over a versioned
// OSD map.
//
// Mirrors Ceph's structure: object name -> placement group -> ordered set of
// OSDs, with node-level failure domains (replicas land on distinct nodes,
// like the default CRUSH host rule). Deterministic: the same map state and
// object name always produce the same acting set.
//
// Placement v2 adds the OsdMap: per-OSD up/down flags and weights behind a
// monotonically increasing epoch. The mapping is a stable hash, so a map
// mutation moves the minimum of data:
//   - marking an OSD down (or dropping its weight) remaps only the PG slots
//     that OSD held — ~pg_count * replication / osd_count of the total;
//   - adding an OSD to a node steals only the PG slots it now wins inside
//     that node; every other slot is untouched.
// Weights act within a node (an OSD's share of its node's PGs); node
// selection itself is weight-free so a weight change never causes
// cross-node movement. When every OSD is up at equal weight the mapping is
// bit-identical to the v1 placement function, which keeps a healthy
// cluster's behavior byte-for-byte stable across the upgrade.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace vde::rados {

// 64-bit mix (splitmix64 finalizer) — placement quality, not cryptography.
uint64_t HashMix(uint64_t x);

// Stable hash of an object name.
uint64_t HashName(const std::string& name);

struct PlacementConfig {
  uint32_t pg_count = 128;
  size_t nodes = 3;
  size_t osds_per_node = 9;
  size_t replication = 3;
};

// Global OSD ids are node * osds_per_node + local index at construction;
// OSDs added later take the next free global id.
struct PgMapping {
  uint32_t pg;
  std::vector<size_t> osds;  // [primary, replica1, ...]
};

// Versioned cluster map: which OSDs exist, where they live, whether they
// are up, and their intra-node weight. Every mutation bumps the epoch, so
// clients can detect a stale cached copy (EAGAIN from a mispointed primary
// carries the authoritative epoch past theirs).
class OsdMap {
 public:
  OsdMap() = default;
  explicit OsdMap(const PlacementConfig& config);

  uint64_t epoch() const { return epoch_; }
  uint32_t pg_count() const { return pg_count_; }
  size_t replication() const { return replication_; }
  size_t osd_count() const { return osds_.size(); }
  size_t node_count() const { return nodes_.size(); }

  bool IsUp(size_t osd) const { return osds_[osd].up; }
  double Weight(size_t osd) const { return osds_[osd].weight; }
  size_t NodeOf(size_t osd) const { return osds_[osd].node; }
  size_t UpCount() const;

  void MarkDown(size_t osd);
  void MarkUp(size_t osd);
  void SetWeight(size_t osd, double weight);
  // Adds one OSD to `node`; returns its new global id. The OSD gets a fresh
  // rendezvous key, so existing PG slots move only where the newcomer wins.
  size_t AddOsd(size_t node);

  uint32_t PgOf(const std::string& oid) const;

  // Acting set for a PG: up to `replication` up OSDs on distinct nodes,
  // primary first. Nodes with no up OSD are skipped, so during a whole-node
  // outage the set shrinks (degraded) rather than doubling up on a node.
  // Computed once per PG and map version: the reference stays valid until
  // the next mutation of this map, so a caller that suspends copies it.
  const std::vector<size_t>& ActingFor(uint32_t pg) const;

 private:
  struct OsdEntry {
    size_t node = 0;
    uint64_t key = 0;  // stable rendezvous key, unique within the node
    bool up = true;
    double weight = 1.0;
  };

  struct CachedActing {
    bool valid = false;
    std::vector<size_t> osds;
  };

  // The rendezvous computation behind ActingFor.
  std::vector<size_t> ComputeActing(uint32_t pg) const;
  // Every mutation that changes the map: bumps the epoch and drops the
  // cached acting sets.
  void Changed();

  std::vector<OsdEntry> osds_;               // index = global id
  std::vector<std::vector<size_t>> nodes_;   // node -> global ids, key order
  std::vector<uint64_t> next_key_;           // per-node key allocator
  uint32_t pg_count_ = 128;
  size_t replication_ = 3;
  uint64_t epoch_ = 1;
  mutable std::vector<CachedActing> acting_;  // by PG, filled on first use
};

// Thin wrapper owning the authoritative OsdMap; keeps the v1 call surface
// (PgOf/OsdsForPg/OsdsFor) used across the tree.
class Placement {
 public:
  explicit Placement(const PlacementConfig& config) : map_(config) {}

  uint32_t PgOf(const std::string& oid) const { return map_.PgOf(oid); }

  // Acting set for a PG, primary first (up OSDs only); valid until the
  // next map mutation, like OsdMap::ActingFor.
  const std::vector<size_t>& OsdsForPg(uint32_t pg) const {
    return map_.ActingFor(pg);
  }

  const std::vector<size_t>& OsdsFor(const std::string& oid) const {
    return OsdsForPg(PgOf(oid));
  }

  OsdMap& map() { return map_; }
  const OsdMap& map() const { return map_; }

 private:
  OsdMap map_;
};

}  // namespace vde::rados
