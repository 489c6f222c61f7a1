#include "rados/cluster.h"

#include <cassert>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace vde::rados {

// --- Osd ---

Osd::Osd(size_t id, size_t node, const ClusterConfig& config)
    : id_(id),
      node_(node),
      config_(config),
      device_(std::make_shared<dev::NvmeDevice>(config.nvme)),
      qos_(config.costs.op_shards) {
  if (config.qos.enabled) {
    for (const TenantSpec& spec : config.qos.tenants) SetTenantSpec(spec);
  }
}

void Osd::SetTenantSpec(const TenantSpec& spec) {
  qos::QosPolicy limit;
  limit.max_iops = spec.limit_iops;
  limit.burst_ops = 1;
  qos_.Configure(spec.id, limit, spec.reservation_iops, spec.weight);
}

sim::Task<Status> Osd::Start() {
  auto store = co_await objstore::ObjectStore::Open(device_, config_.store);
  if (!store.ok()) co_return store.status();
  store_ = std::move(store).value();
  co_return Status::Ok();
}

namespace {

// The per-op software-cost rule: a base cost plus one increment per op
// beyond the first.
sim::SimTime OpCost(sim::SimTime base, sim::SimTime per_extra,
                    const objstore::Transaction& txn) {
  return base + per_extra * (txn.ops.empty() ? 0 : txn.ops.size() - 1);
}

bool IsBusy(const Status& s) { return s.code() == StatusCode::kBusy; }

template <typename T>
bool IsBusy(const Result<T>& r) {
  return !r.ok() && IsBusy(r.status());
}

}  // namespace

sim::Task<Status> Osd::AdmitPrimaryOp(Cluster& cluster, uint32_t pg,
                                      const objstore::Transaction& txn,
                                      sim::SimTime software_cost) {
  // Bounce stale-routed ops before spending a shard: the authoritative
  // map names the primary; a mismatch means the client's map is old.
  const std::vector<size_t>& routed = cluster.placement().OsdsForPg(pg);
  if (!cluster.IsOsdUp(id_) || routed.empty() || routed[0] != id_) {
    co_return Status::Busy("EAGAIN: not primary");
  }

  // Software cost under an op shard (mClock-ordered when enabled).
  const uint64_t tenant = config_.qos.enabled ? txn.tenant : 0;
  co_await qos_.Acquire(tenant);
  co_await sim::Sleep{software_cost};
  qos_.Release(tenant);

  // A primary that is itself missing this object (it took over the PG
  // mid-backfill) pulls the head from a survivor before serving: a read
  // would see zeros, a sub-object write would resurrect them.
  if (cluster.pg_log(pg).IsMissing(id_, txn.oid)) {
    obs::SpanScope pull_span(txn.trace, obs::Stage::kRecovery);
    co_await cluster.recovery().RecoverObject(pg, id_, txn.oid,
                                              /*inline_pull=*/true);
  }
  co_return Status::Ok();
}

sim::Task<Status> Osd::HandleReplicaWrite(const objstore::Transaction& txn,
                                          const objstore::SnapContext& snapc,
                                          objstore::PageShare* share) {
  // Replication requests run on a dedicated queue (no primary-shard
  // contention; also removes any chance of cross-OSD shard deadlock).
  // They bypass mClock too — the client op already paid its tenant's dues
  // at the primary, and Ceph likewise schedules sub-ops ahead of new work.
  co_await sim::Sleep{
      OpCost(config_.costs.replica_op, config_.costs.per_extra_op, txn)};
  co_return co_await store_->Apply(txn, snapc, share);
}

// One primary write past admission: what its local apply and its replica
// sub-ops share.
struct Osd::PrimaryWrite {
  Cluster& cluster;
  uint32_t pg;
  uint64_t gen;
  const objstore::Transaction& txn;
  const objstore::SnapContext& snapc;
  // Every participant stores the same payload, so they share its pages
  // (host memory only; see objstore::PageShare).
  objstore::PageShare share;
};

sim::Task<Status> Osd::ApplyLocal(PrimaryWrite& w) {
  Status s = co_await store_->Apply(w.txn, w.snapc, &w.share);
  if (s.ok()) w.cluster.pg_log(w.pg).NoteHave(id_, w.txn.oid, w.gen);
  co_return s;
}

sim::Task<Status> Osd::Replicate(PrimaryWrite& w, size_t replica_id) {
  obs::SpanScope span(w.txn.trace, obs::Stage::kReplicate);
  Cluster& cluster = w.cluster;
  if (!cluster.IsOsdUp(replica_id)) {
    // Member died between election and fan-out: the write commits on the
    // survivors; peering already logged the divergence.
    cluster.stats().skipped_replicas++;
    co_return Status::Ok();
  }
  Osd& replica = cluster.osd(replica_id);
  // Ship the sub-op over the cluster network.
  co_await net::Send(cluster.node_nic(node_), cluster.node_nic(replica.node()),
                     cluster.config().request_header_bytes +
                         w.txn.PayloadBytes());
  Status s = co_await replica.HandleReplicaWrite(w.txn, w.snapc, &w.share);
  // Commit ack back to the primary.
  co_await net::Send(cluster.node_nic(replica.node()), cluster.node_nic(node_),
                     cluster.config().response_header_bytes);
  if (s.ok()) cluster.pg_log(w.pg).NoteHave(replica_id, w.txn.oid, w.gen);
  co_return s;
}

sim::Task<Status> Osd::HandlePrimaryWrite(Cluster& cluster,
                                          const objstore::Transaction& txn,
                                          const objstore::SnapContext& snapc) {
  const uint32_t pg = cluster.placement().PgOf(txn.oid);
  Status admitted = co_await AdmitPrimaryOp(
      cluster, pg, txn,
      OpCost(config_.costs.write_op, config_.costs.per_extra_op, txn));
  if (!admitted.ok()) co_return admitted;

  // The acting set is re-read after admission: a map change while this op
  // queued must not resurrect a downed member.
  const std::vector<size_t> acting = cluster.placement().OsdsForPg(pg);
  PgLog& log = cluster.pg_log(pg);
  PrimaryWrite w{cluster, pg, log.NoteWrite(txn.oid), txn, snapc, {}};

  // Local apply and replica fan-out proceed concurrently; the op commits
  // when the slowest surviving participant commits (primary-copy
  // replication). Replica targets are the surviving acting members not
  // already missing this object: a member missing it stays missing — the
  // generation bump above keeps the divergence in the log for recovery.
  std::vector<sim::Task<Status>> waves;
  waves.reserve(acting.size());
  waves.push_back(ApplyLocal(w));
  for (size_t r = 1; r < acting.size(); ++r) {
    if (log.IsMissing(acting[r], txn.oid)) {
      cluster.stats().skipped_replicas++;
      continue;
    }
    waves.push_back(Replicate(w, acting[r]));
  }
  // Degraded = committing on fewer copies than the replication factor,
  // whether the acting set shrank (whole node down) or a member is still
  // owed the object by recovery.
  if (waves.size() < cluster.config().replication) {
    cluster.stats().degraded_writes++;
  }
  co_return co_await sim::WhenAllOk(std::move(waves));
}

sim::Task<Result<objstore::ReadResult>> Osd::HandleRead(
    Cluster& cluster, const objstore::Transaction& txn,
    objstore::SnapId snap) {
  const uint32_t pg = cluster.placement().PgOf(txn.oid);
  Status admitted = co_await AdmitPrimaryOp(
      cluster, pg, txn,
      OpCost(config_.costs.read_op, config_.costs.per_extra_op_read, txn));
  if (!admitted.ok()) co_return admitted;
  co_return co_await store_->ExecuteRead(txn, snap);
}

// --- IoCtx ---

sim::Task<Result<size_t>> IoCtx::PickPrimary(uint32_t pg, size_t attempt) {
  const auto& config = cluster_->config();
  for (; attempt <= config.max_op_retries; ++attempt) {
    const std::vector<size_t>& acting = cluster_->client_map().ActingFor(pg);
    if (!acting.empty() && cluster_->IsOsdUp(acting[0])) co_return acting[0];
    // The cached map points at a dead primary (or no primary at all): the
    // client pays a connect timeout, fetches a fresh map, and retries.
    cluster_->stats().osd_timeouts++;
    const uint64_t seen = cluster_->client_map().epoch();
    co_await sim::Sleep{config.osd_timeout};
    co_await cluster_->RefreshClientMap(seen);
  }
  co_return Status::IoError("no reachable primary for pg");
}

template <typename Reply, typename Handle, typename ReplyBytes>
sim::Task<Reply> IoCtx::Route(const std::string& oid,
                              objstore::Transaction txn, size_t request_bytes,
                              Handle handle, ReplyBytes reply_bytes) {
  txn.oid = oid;
  txn.tenant = tenant_;
  const auto& config = cluster_->config();
  co_await sim::Sleep{config.client_op_cost};
  const uint32_t pg = cluster_->client_map().PgOf(oid);

  for (size_t attempt = 0;; ++attempt) {
    auto primary_id = co_await PickPrimary(pg, attempt);
    if (!primary_id.ok()) co_return primary_id.status();
    Osd& primary = cluster_->osd(*primary_id);
    const uint64_t seen = cluster_->client_map().epoch();

    // Client -> primary: headers + request payload.
    co_await net::Send(cluster_->client_nic(),
                       cluster_->node_nic(primary.node()),
                       config.request_header_bytes + request_bytes);
    Reply reply = co_await handle(primary, txn);
    // Primary -> client: headers + reply payload (or the EAGAIN bounce).
    co_await net::Send(cluster_->node_nic(primary.node()),
                       cluster_->client_nic(),
                       config.response_header_bytes + reply_bytes(reply));
    if (IsBusy(reply) && attempt < config.max_op_retries) {
      cluster_->stats().eagain_redirects++;
      co_await cluster_->RefreshClientMap(seen);
      continue;
    }
    co_return reply;
  }
}

sim::Task<Status> IoCtx::Operate(const std::string& oid,
                                 objstore::Transaction txn,
                                 const objstore::SnapContext& snapc) {
  const size_t payload = txn.PayloadBytes();
  return Route<Status>(
      oid, std::move(txn), payload,
      [this, &snapc](Osd& primary, const objstore::Transaction& t) {
        return primary.HandlePrimaryWrite(*cluster_, t, snapc);
      },
      [](const Status&) { return size_t{0}; });
}

sim::Task<Result<objstore::ReadResult>> IoCtx::OperateRead(
    const std::string& oid, objstore::Transaction txn, objstore::SnapId snap) {
  return Route<Result<objstore::ReadResult>>(
      oid, std::move(txn), 0,
      [this, snap](Osd& primary, const objstore::Transaction& t) {
        return primary.HandleRead(*cluster_, t, snap);
      },
      [](const Result<objstore::ReadResult>& r) {
        if (!r.ok()) return size_t{0};
        size_t bytes = r->data.size();
        for (const auto& [k, v] : r->omap_values) bytes += k.size() + v.size();
        return bytes;
      });
}

sim::Task<Status> IoCtx::WriteFull(const std::string& oid, Bytes data) {
  objstore::Transaction txn;
  objstore::OsdOp op;
  op.type = objstore::OsdOp::Type::kWriteFull;
  op.data = std::move(data);
  txn.ops.push_back(std::move(op));
  co_return co_await Operate(oid, std::move(txn), {});
}

sim::Task<Result<Bytes>> IoCtx::Read(const std::string& oid, uint64_t off,
                                     uint64_t len, objstore::SnapId snap) {
  objstore::Transaction txn;
  objstore::OsdOp op;
  op.type = objstore::OsdOp::Type::kRead;
  op.offset = off;
  op.length = len;
  txn.ops.push_back(std::move(op));
  auto result = co_await OperateRead(oid, std::move(txn), snap);
  if (!result.ok()) co_return result.status();
  co_return std::move(result->data);
}

// --- Cluster ---

Cluster::Cluster(ClusterConfig config)
    : config_(config),
      placement_(PlacementConfig{config.pg_count, config.nodes,
                                 config.osds_per_node, config.replication}),
      client_map_(placement_.map()) {
  client_nic_ = std::make_unique<net::Nic>(config_.client_nic);
  mon_nic_ = std::make_unique<net::Nic>(config_.mon_nic);
  for (size_t n = 0; n < config_.nodes; ++n) {
    node_nics_.push_back(std::make_unique<net::Nic>(config_.node_nic));
  }
  for (size_t n = 0; n < config_.nodes; ++n) {
    for (size_t i = 0; i < config_.osds_per_node; ++i) {
      osds_.push_back(
          std::make_unique<Osd>(n * config_.osds_per_node + i, n, config_));
    }
  }
  pg_logs_.resize(config_.pg_count);
  recovery_ = std::make_unique<RecoveryManager>(*this, config_.recovery);
}

sim::Task<Result<std::unique_ptr<Cluster>>> Cluster::Create(
    ClusterConfig config) {
  std::unique_ptr<Cluster> cluster(new Cluster(std::move(config)));
  for (auto& osd : cluster->osds_) {
    Status s = co_await osd->Start();
    if (!s.ok()) co_return s;
  }
  co_return cluster;
}

void Cluster::PeerAll() {
  for (uint32_t pg = 0; pg < config_.pg_count; ++pg) {
    pg_logs_[pg].Peer(placement_.map().ActingFor(pg));
  }
}

void Cluster::MarkOsdDown(size_t id) {
  placement_.map().MarkDown(id);
  PeerAll();
  recovery_->Kick();
}

void Cluster::MarkOsdUp(size_t id) {
  placement_.map().MarkUp(id);
  PeerAll();
  recovery_->Kick();
}

void Cluster::SetOsdWeight(size_t id, double weight) {
  placement_.map().SetWeight(id, weight);
  PeerAll();
  recovery_->Kick();
}

sim::Task<void> Cluster::RefreshClientMap(uint64_t seen_epoch) {
  if (client_map_.epoch() > seen_epoch) co_return;  // already refreshed
  if (refresh_inflight_) {
    // Piggyback on the round-trip already in flight.
    auto gate = refresh_gate_;
    co_await gate->Wait();
    co_return;
  }
  refresh_inflight_ = true;
  refresh_gate_ = std::make_shared<sim::Gate>();
  auto gate = refresh_gate_;
  co_await net::Send(*client_nic_, *mon_nic_, config_.request_header_bytes);
  co_await net::Send(*mon_nic_, *client_nic_,
                     config_.map_bytes_base + 16 * osds_.size());
  client_map_ = placement_.map();
  stats_.map_refreshes++;
  refresh_inflight_ = false;
  gate->Fire();
}

size_t Cluster::DegradedObjectCount() const {
  size_t n = 0;
  for (const PgLog& log : pg_logs_) n += log.MissingCount();
  return n;
}

sim::Task<void> Cluster::WaitForClean() {
  recovery_->Kick();
  co_await recovery_->WaitForClean();
}

void Cluster::SetTenantSpec(const TenantSpec& spec) {
  if (!config_.qos.enabled) return;
  for (auto& osd : osds_) osd->SetTenantSpec(spec);
}

sim::Task<void> Cluster::Drain() {
  for (auto& osd : osds_) {
    co_await osd->store().Drain();
  }
  co_await WaitForClean();
}

objstore::StoreStats Cluster::TotalStoreStats() const {
  objstore::StoreStats total;
  for (const auto& osd : osds_) {
    const auto& s = osd->store().stats();
    total.transactions += s.transactions;
    total.journal_bytes += s.journal_bytes;
    total.rmw_sectors += s.rmw_sectors;
    total.sector_cache_hits += s.sector_cache_hits;
    total.apply_sectors_written += s.apply_sectors_written;
    total.clones += s.clones;
    total.objects_created += s.objects_created;
    total.trim_ops += s.trim_ops;
    total.bytes_trimmed += s.bytes_trimmed;
    total.bytes_restored += s.bytes_restored;
    total.trimmed_reads += s.trimmed_reads;
  }
  return total;
}

objstore::StoreSpace Cluster::TotalStoreSpace() const {
  objstore::StoreSpace total;
  for (const auto& osd : osds_) {
    const objstore::StoreSpace s = osd->store().space();
    total.total_bytes += s.total_bytes;
    total.free_bytes += s.free_bytes;
    total.punched_bytes += s.punched_bytes;
    total.fragments += s.fragments;
    total.punched_fragments += s.punched_fragments;
  }
  return total;
}

dev::DeviceStats Cluster::TotalDeviceStats() const {
  dev::DeviceStats total;
  for (const auto& osd : osds_) {
    const auto& s = osd->device().stats();
    total.read_ops += s.read_ops;
    total.write_ops += s.write_ops;
    total.sectors_read += s.sectors_read;
    total.sectors_written += s.sectors_written;
    total.bytes_read += s.bytes_read;
    total.bytes_written += s.bytes_written;
  }
  return total;
}

namespace {

void ExportStoreStats(obs::Metrics& store, const objstore::StoreStats& ss) {
  store.Counter("transactions", ss.transactions);
  store.Counter("journal_bytes", ss.journal_bytes);
  store.Counter("rmw_sectors", ss.rmw_sectors);
  store.Counter("sector_cache_hits", ss.sector_cache_hits);
  store.Counter("apply_sectors_written", ss.apply_sectors_written);
  store.Counter("clones", ss.clones);
  store.Counter("objects_created", ss.objects_created);
  store.Counter("trim_ops", ss.trim_ops);
  store.Counter("bytes_trimmed", ss.bytes_trimmed);
  store.Counter("bytes_restored", ss.bytes_restored);
  store.Counter("trimmed_reads", ss.trimmed_reads);
}

void ExportDeviceStats(obs::Metrics& device, const dev::DeviceStats& ds) {
  device.Counter("read_ops", ds.read_ops);
  device.Counter("write_ops", ds.write_ops);
  device.Counter("sectors_read", ds.sectors_read);
  device.Counter("sectors_written", ds.sectors_written);
  device.Counter("bytes_read", ds.bytes_read);
  device.Counter("bytes_written", ds.bytes_written);
}

void ExportNicGauges(obs::Metrics& m, net::Nic& nic) {
  m.Counter("egress_bytes", nic.egress().bytes_transferred());
  m.Counter("ingress_bytes", nic.ingress().bytes_transferred());
}

}  // namespace

void Cluster::ExportMetrics(obs::Metrics& node) const {
  ExportStoreStats(node.Child("store"), TotalStoreStats());
  obs::Metrics& space = node.Child("space");
  const objstore::StoreSpace sp = TotalStoreSpace();
  space.Gauge("total_bytes", static_cast<double>(sp.total_bytes));
  space.Gauge("free_bytes", static_cast<double>(sp.free_bytes));
  space.Gauge("punched_bytes", static_cast<double>(sp.punched_bytes));
  space.Gauge("fragments", static_cast<double>(sp.fragments));
  space.Gauge("punched_fragments", static_cast<double>(sp.punched_fragments));
  ExportDeviceStats(node.Child("device"), TotalDeviceStats());

  // Per-OSD children: the PR 8 follow-on. `net` is the node NIC serving
  // the OSD (OSDs on one node share it).
  obs::Metrics& per_osd = node.Child("osd");
  for (const auto& osd : osds_) {
    obs::Metrics& m = per_osd.Child(std::to_string(osd->id()));
    m.Gauge("up", IsOsdUp(osd->id()) ? 1 : 0);
    m.Gauge("weight", placement_.map().Weight(osd->id()));
    ExportStoreStats(m.Child("store"), osd->store().stats());
    ExportDeviceStats(m.Child("device"), osd->device().stats());
    ExportNicGauges(m.Child("net"), *node_nics_[osd->node()]);
    if (config_.qos.enabled) osd->qos().ExportMetrics(m.Child("qos"));
  }

  obs::Metrics& nets = node.Child("net");
  ExportNicGauges(nets.Child("client"), *client_nic_);
  ExportNicGauges(nets.Child("mon"), *mon_nic_);
  for (size_t n = 0; n < node_nics_.size(); ++n) {
    ExportNicGauges(nets.Child("node_" + std::to_string(n)), *node_nics_[n]);
  }

  obs::Metrics& mon = node.Child("mon");
  mon.Gauge("epoch", static_cast<double>(placement_.map().epoch()));
  mon.Gauge("client_epoch", static_cast<double>(client_map_.epoch()));
  mon.Gauge("osds_up", static_cast<double>(placement_.map().UpCount()));
  mon.Counter("map_refreshes", stats_.map_refreshes);
  mon.Counter("eagain_redirects", stats_.eagain_redirects);
  mon.Counter("osd_timeouts", stats_.osd_timeouts);
  mon.Counter("degraded_writes", stats_.degraded_writes);
  mon.Counter("skipped_replicas", stats_.skipped_replicas);

  obs::Metrics& rec = node.Child("recovery");
  const RecoveryStats& rs = recovery_->stats();
  rec.Gauge("degraded_objects", static_cast<double>(DegradedObjectCount()));
  rec.Counter("objects_pushed", rs.objects_pushed);
  rec.Counter("bytes_pushed", rs.bytes_pushed);
  rec.Counter("inline_pulls", rs.inline_pulls);
  rec.Counter("stale_pushes", rs.stale_pushes);
  rec.Counter("objects_unrecoverable", rs.objects_unrecoverable);
}

}  // namespace vde::rados
