// RADOS-like cluster: nodes with NICs and OSDs, a monitor (versioned OSD
// map + snapshot-id allocation), and a client IoCtx issuing replicated,
// transactional object operations over the simulated network.
//
// Topology and defaults mirror the paper's testbed (§3.2): 3 nodes x 9 NVMe
// OSDs, 3-way replication, 4 MiB objects; bench/harness.h holds the
// testbed config (PaperCluster).
//
// Scale-out semantics (placement v2):
//   - The monitor owns the authoritative OsdMap; the client caches a copy.
//     An op that reaches an OSD that is not (or no longer) the PG's primary
//     bounces with EAGAIN (kBusy); the client refreshes its map from the
//     monitor over the NIC and retries. An op aimed at a dead primary pays
//     a connect timeout first.
//   - MarkOsdDown degrades the affected PGs: writes keep committing on the
//     surviving replicas, with the divergent objects tracked in per-PG
//     logs. RecoveryManager streams them back in the background; a primary
//     that is itself missing an object pulls it inline before serving.
//   - Every OSD admits ops to its op shards through a qos::Scheduler. With
//     qos.enabled it orders them by the op's tenant tag (mClock); with qos
//     off every op is tenant 0, which is a plain FIFO over the shards.
// All three features are pay-to-use: on a healthy cluster with qos off the
// event sequence is bit-identical to the pre-v2 data plane.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "device/nvme.h"
#include "net/link.h"
#include "objstore/object_store.h"
#include "qos/scheduler.h"
#include "rados/pg_log.h"
#include "rados/placement.h"
#include "rados/recovery.h"
#include "sim/sync.h"

namespace vde::obs {
class Metrics;
}  // namespace vde::obs

namespace vde::rados {

// One tenant's cluster-side mClock parameters. id 0 is the default,
// untagged tenant.
struct TenantSpec {
  uint64_t id = 0;
  double reservation_iops = 0;  // guaranteed minimum; 0 = none
  double weight = 1.0;          // share of surplus capacity
  double limit_iops = 0;        // hard cap; 0 = uncapped
};

struct OsdQosConfig {
  bool enabled = false;
  // Specs applied at cluster creation; tenants not listed get defaults
  // (no reservation, weight 1, no limit). SetTenantSpec can add/adjust
  // later.
  std::vector<TenantSpec> tenants;
};

// Software costs of the OSD op pipeline (queue, decode, PG lock, commit
// bookkeeping). Hand-set model constants, like objstore::CostModel: none is
// derived from a host measurement yet (ROADMAP item 11).
struct OsdCostModel {
  sim::SimTime read_op = 420 * sim::kUs;
  sim::SimTime write_op = 340 * sim::kUs;
  sim::SimTime replica_op = 220 * sim::kUs;
  sim::SimTime per_extra_op = 35 * sim::kUs;       // write txns, per extra op
  sim::SimTime per_extra_op_read = 15 * sim::kUs;  // read txns, per extra op
  size_t op_shards = 8;                       // concurrent primary ops
};

// Wire bytes every request and response carries on top of its payload
// (recovery pushes send a request header too).
inline constexpr size_t kRequestHeaderBytes = 256;
inline constexpr size_t kResponseHeaderBytes = 128;

struct ClusterConfig {
  size_t nodes = 3;
  size_t osds_per_node = 9;
  size_t replication = 3;
  uint32_t pg_count = 128;
  objstore::StoreConfig store{};
  OsdCostModel costs{};
  RecoveryConfig recovery{};
  OsdQosConfig qos{};
};

// Client-visible counters for the map/retry protocol and degraded writes.
struct ClusterStats {
  uint64_t map_refreshes = 0;     // monitor round-trips for a fresh map
  uint64_t eagain_redirects = 0;  // ops bounced by a non-primary OSD
  uint64_t osd_timeouts = 0;      // ops that waited out a dead primary
  uint64_t degraded_writes = 0;   // writes committed below full width
  uint64_t skipped_replicas = 0;  // replica sub-ops skipped (member missing
                                  // the object or down mid-wave)
};

class Cluster;

// One OSD daemon: device + object store + op scheduling.
class Osd {
 public:
  Osd(size_t id, size_t node, const ClusterConfig& config);

  sim::Task<Status> Start();

  size_t id() const { return id_; }
  size_t node() const { return node_; }
  dev::NvmeDevice& device() { return *device_; }
  const dev::NvmeDevice& device() const { return *device_; }
  objstore::ObjectStore& store() { return *store_; }
  const objstore::ObjectStore& store() const { return *store_; }
  // Op-shard admission. With qos off every op is tenant 0.
  const qos::Scheduler& qos() const { return qos_; }
  // Applies a tenant's reservation and weight; its limit becomes an ops
  // bucket with a burst of one op.
  void SetTenantSpec(const TenantSpec& spec);

  // Primary write: local apply + fan-out replication, ack when all
  // surviving acting members commit. Bounces with kBusy when this OSD is
  // not the PG's primary in the authoritative map (stale client).
  sim::Task<Status> HandlePrimaryWrite(Cluster& cluster,
                                       const objstore::Transaction& txn,
                                       const objstore::SnapContext& snapc);

  // Replica-side apply (already on the replica's node). `share` is the
  // primary's PageShare for this write.
  sim::Task<Status> HandleReplicaWrite(const objstore::Transaction& txn,
                                       const objstore::SnapContext& snapc,
                                       objstore::PageShare* share);

  sim::Task<Result<objstore::ReadResult>> HandleRead(
      Cluster& cluster, const objstore::Transaction& txn,
      objstore::SnapId snap);

 private:
  struct PrimaryWrite;

  // The admission step every primary op (write or read) takes on arrival:
  // bounces a stale-routed op with kBusy (EAGAIN) before it spends a
  // shard; holds an op shard for `software_cost`, admitted as the op's
  // tenant when qos is enabled and as tenant 0 otherwise; then, when this
  // OSD is itself missing the object, pulls its head inline under a
  // kRecovery span. Ok means the op may execute.
  sim::Task<Status> AdmitPrimaryOp(Cluster& cluster, uint32_t pg,
                                   const objstore::Transaction& txn,
                                   sim::SimTime software_cost);
  // A primary write's two kinds of participant: the local apply and one
  // replica sub-op (cluster network round-trip plus the replica's apply).
  // Each records the write's generation for its OSD once it commits.
  sim::Task<Status> ApplyLocal(PrimaryWrite& w);
  sim::Task<Status> Replicate(PrimaryWrite& w, size_t replica_id);

  size_t id_;
  size_t node_;
  const ClusterConfig& config_;
  std::shared_ptr<dev::NvmeDevice> device_;
  std::shared_ptr<objstore::ObjectStore> store_;
  qos::Scheduler qos_;
};

// Client handle: placement-aware replicated object IO (libRADOS IoCtx).
// Ops issued through it carry `tenant` for cluster-side mClock QoS.
class IoCtx {
 public:
  explicit IoCtx(Cluster& cluster, uint64_t tenant = 0)
      : cluster_(&cluster), tenant_(tenant) {}

  // Replicated write transaction; completes when every surviving acting
  // member committed.
  sim::Task<Status> Operate(const std::string& oid,
                            objstore::Transaction txn,
                            const objstore::SnapContext& snapc);

  // Read-class transaction against the primary.
  sim::Task<Result<objstore::ReadResult>> OperateRead(
      const std::string& oid, objstore::Transaction txn,
      objstore::SnapId snap = objstore::kHeadSnap);

  // Convenience wrappers.
  sim::Task<Status> WriteFull(const std::string& oid, Bytes data);
  sim::Task<Result<Bytes>> Read(const std::string& oid, uint64_t off,
                                uint64_t len,
                                objstore::SnapId snap = objstore::kHeadSnap);

 private:
  // Primary election per the client's cached map. Returns the primary's id,
  // paying the connect timeout and a map refresh for each dead primary the
  // cached map names; an error once the retries are used up.
  sim::Task<Result<size_t>> PickPrimary(uint32_t pg, size_t attempt);

  // The routed-op step behind Operate and OperateRead: the client's
  // software cost, the PG lookup in the cached map, primary election, the
  // request (`request_bytes` of payload past the header) to the primary,
  // `handle(primary, txn)` there, and the reply (`reply_bytes(reply)` past
  // the header) back. An EAGAIN bounce refreshes the map and retries.
  template <typename Reply, typename Handle, typename ReplyBytes>
  sim::Task<Reply> Route(const std::string& oid, objstore::Transaction txn,
                         size_t request_bytes, Handle handle,
                         ReplyBytes reply_bytes);

  Cluster* cluster_;
  uint64_t tenant_ = 0;
};

class Cluster {
 public:
  static sim::Task<Result<std::unique_ptr<Cluster>>> Create(
      ClusterConfig config);

  const ClusterConfig& config() const { return config_; }
  net::Nic& client_nic() { return *client_nic_; }
  net::Nic& mon_nic() { return *mon_nic_; }
  net::Nic& node_nic(size_t node) { return *node_nics_[node]; }
  Osd& osd(size_t id) { return *osds_[id]; }
  size_t osd_count() const { return osds_.size(); }
  const Placement& placement() const { return placement_; }

  IoCtx ioctx(uint64_t tenant = 0) { return IoCtx(*this, tenant); }

  // Monitor role: snapshot-id allocation (self-managed snaps).
  uint64_t AllocateSnapId() { return next_snap_id_++; }

  // --- Failure / recovery (monitor + OSD map) ---

  // Marks an OSD down: bumps the map epoch, re-peers the affected PGs
  // (divergence shows up in their logs), and kicks background recovery
  // toward the new acting sets. Callers must co_await WaitForClean() (or
  // Drain()) before destroying the cluster.
  void MarkOsdDown(size_t id);
  void MarkOsdUp(size_t id);
  void SetOsdWeight(size_t id, double weight);
  bool IsOsdUp(size_t id) const { return placement_.map().IsUp(id); }

  // The client's cached map (refreshed from the monitor on EAGAIN).
  const OsdMap& client_map() const { return client_map_; }
  // Monitor round-trip for a fresh map; concurrent callers share one
  // in-flight refresh. No-op when the cache already moved past seen_epoch.
  sim::Task<void> RefreshClientMap(uint64_t seen_epoch);

  PgLog& pg_log(uint32_t pg) { return pg_logs_[pg]; }
  const PgLog& pg_log(uint32_t pg) const { return pg_logs_[pg]; }
  // Objects still owed to some acting member, summed over all PGs.
  size_t DegradedObjectCount() const;

  RecoveryManager& recovery() { return *recovery_; }
  // Resolves when no PG is degraded and recovery workers have parked.
  sim::Task<void> WaitForClean();

  // Registers/updates a tenant's mClock spec on every OSD.
  void SetTenantSpec(const TenantSpec& spec);

  ClusterStats& stats() { return stats_; }
  const ClusterStats& stats() const { return stats_; }

  // Waits for all background work on every OSD (test determinism), then
  // for recovery to go clean.
  sim::Task<void> Drain();

  // Aggregate device stats across all OSDs (Manager role).
  dev::DeviceStats TotalDeviceStats() const;

  // Aggregate object-store counters and allocator capacity across all
  // OSDs (what `ceph df` reports): benches assert TRIM reclamation here.
  objstore::StoreStats TotalStoreStats() const;
  objstore::StoreSpace TotalStoreSpace() const;

  // Exports the aggregate store/space/device totals plus per-OSD children
  // (cluster.osd.<id>.{store,device,net,qos}), NIC byte gauges, the map /
  // retry counters, and recovery progress into the registry.
  void ExportMetrics(obs::Metrics& node) const;

 private:
  friend class Osd;
  friend class IoCtx;

  explicit Cluster(ClusterConfig config);

  // Recomputes every PG's missing set against the current acting sets.
  void PeerAll();

  ClusterConfig config_;
  Placement placement_;   // authoritative (monitor) map
  OsdMap client_map_;     // client's cached copy
  std::unique_ptr<net::Nic> client_nic_;
  std::unique_ptr<net::Nic> mon_nic_;
  std::vector<std::unique_ptr<net::Nic>> node_nics_;
  std::vector<std::unique_ptr<Osd>> osds_;
  std::vector<PgLog> pg_logs_;
  std::unique_ptr<RecoveryManager> recovery_;
  ClusterStats stats_;
  bool refresh_inflight_ = false;
  std::shared_ptr<sim::Gate> refresh_gate_;
  uint64_t next_snap_id_ = 1;
};

}  // namespace vde::rados
