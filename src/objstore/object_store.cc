#include "objstore/object_store.h"

#include <algorithm>
#include <cassert>

#include "objstore/txn_record.h"
#include "obs/trace.h"

namespace vde::objstore {

ObjectStore::ObjectStore(std::shared_ptr<dev::NvmeDevice> device,
                         StoreConfig config)
    : device_(std::move(device)),
      config_(config),
      sector_cache_(config.sector_cache_tags) {}

sim::Task<Result<std::shared_ptr<ObjectStore>>> ObjectStore::Open(
    std::shared_ptr<dev::NvmeDevice> device, StoreConfig config) {
  std::shared_ptr<ObjectStore> store(
      new ObjectStore(std::move(device), config));
  Status s = co_await store->Init();
  if (!s.ok()) co_return s;
  co_return store;
}

sim::Task<Status> ObjectStore::Init() {
  const uint64_t cap = device_->capacity_bytes();
  kv_base_ = config_.journal_size;
  data_base_ = kv_base_ + config_.kv_region_size;
  if (data_base_ >= cap) co_return Status::InvalidArgument("device too small");

  journal_region_ =
      std::make_unique<dev::RegionDevice>(*device_, 0, config_.journal_size);
  journal_ = std::make_unique<kv::Wal>(*journal_region_, 1);

  kv_region_ = std::make_unique<dev::RegionDevice>(*device_, kv_base_,
                                                   config_.kv_region_size);
  auto kv = co_await kv::KvStore::Open(*kv_region_, config_.kv);
  if (!kv.ok()) co_return kv.status();
  kv_ = std::move(kv).value();

  alloc_ = std::make_unique<dev::ExtentAllocator>(
      cap - data_base_, config_.alloc_unit != 0 ? config_.alloc_unit
                                                : device_->sector_size());
  co_return Status::Ok();
}

bool ObjectStore::ObjectExists(const std::string& oid) const {
  return objects_.contains(oid);
}

uint64_t ObjectStore::ObjectSize(const std::string& oid) const {
  const auto it = objects_.find(oid);
  return it == objects_.end() ? 0 : it->second.size;
}

size_t ObjectStore::CloneCount(const std::string& oid) const {
  const auto it = objects_.find(oid);
  return it == objects_.end() ? 0 : it->second.clones.size();
}

uint64_t ObjectStore::TrimmedBytes(const std::string& oid) const {
  const auto it = objects_.find(oid);
  if (it == objects_.end()) return 0;
  uint64_t total = 0;
  for (const auto& [off, len] : it->second.trimmed) total += len;
  return total;
}

std::vector<IntervalMap::Interval> ObjectStore::TrimmedRanges(
    const std::string& oid) const {
  const auto it = objects_.find(oid);
  if (it == objects_.end()) return {};
  return {it->second.trimmed.begin(), it->second.trimmed.end()};
}

StoreSpace ObjectStore::space() const {
  StoreSpace s;
  s.total_bytes = alloc_->total_bytes();
  s.free_bytes = alloc_->free_bytes();
  s.punched_bytes = alloc_->punched_bytes();
  s.fragments = alloc_->fragments();
  s.punched_fragments = alloc_->punched_fragments();
  return s;
}

Status ObjectStore::TamperObjectData(const std::string& oid, uint64_t offset,
                                     ByteSpan data) {
  const auto it = objects_.find(oid);
  if (it == objects_.end()) return Status::NotFound(oid);
  if (offset + data.size() > config_.max_object_size) {
    return Status::InvalidArgument("tamper beyond object extent");
  }
  // Raw tampering bypasses the transaction path on purpose: no journal,
  // no trimmed-map bookkeeping — the attacker reaches the bytes, not the
  // onode metadata.
  device_->PokeWrite(data_base_ + it->second.base + offset, data);
  return Status::Ok();
}

sim::Task<Status> ObjectStore::TamperOmapRow(const std::string& oid,
                                             ByteSpan key, Bytes value) {
  kv::WriteBatch batch;
  batch.Put(OmapKey(oid, kHeadSnap, key), std::move(value));
  co_return co_await KvCommit(std::move(batch), 0, nullptr);
}

Result<Bytes> ObjectStore::PeekObjectData(const std::string& oid,
                                          uint64_t offset,
                                          size_t length) const {
  const auto it = objects_.find(oid);
  if (it == objects_.end()) return Status::NotFound(oid);
  if (offset + length > config_.max_object_size) {
    return Status::InvalidArgument("peek beyond object extent");
  }
  Bytes out(length);
  device_->PeekRead(data_base_ + it->second.base + offset, out);
  return out;
}

Result<uint32_t> ObjectStore::PeekPageRefs(const std::string& oid,
                                           uint64_t offset) const {
  const auto it = objects_.find(oid);
  if (it == objects_.end()) return Status::NotFound(oid);
  if (offset >= config_.max_object_size) {
    return Status::InvalidArgument("peek beyond object extent");
  }
  return device_->PeekPageRefs(data_base_ + it->second.base + offset);
}

sim::Task<Result<Bytes>> ObjectStore::PeekOmapRow(const std::string& oid,
                                                  ByteSpan key) {
  auto row = co_await kv_->Get(OmapKey(oid, kHeadSnap, key));
  VDE_CO_RETURN_IF_ERROR(row.status());
  if (!row->has_value()) co_return Status::NotFound("omap row");
  co_return std::move(**row);
}

Result<ObjectStore::Onode*> ObjectStore::GetOrCreate(const std::string& oid) {
  auto it = objects_.find(oid);
  if (it != objects_.end()) return &it->second;
  auto extent = alloc_->Allocate(config_.max_object_size);
  if (!extent.ok()) return extent.status();
  Onode node;
  node.base = *extent;
  stats_.objects_created++;
  return &objects_.emplace(oid, node).first->second;
}

Bytes ObjectStore::OmapKey(const std::string& oid, SnapId snap,
                           ByteSpan user_key) const {
  Bytes key;
  key.reserve(oid.size() + 10 + user_key.size());
  AppendBytes(key, BytesOf(oid));
  AppendU8(key, 0);
  uint8_t snap_be[8];
  StoreU64Be(snap_be, snap);
  AppendBytes(key, ByteSpan(snap_be, 8));
  AppendBytes(key, user_key);
  return key;
}

void ObjectStore::SpawnApplyCharge(uint64_t abs_offset, uint64_t length) {
  // A partial head sector, and a partial tail sector unless the partial
  // head already is that sector, need a read-modify-write; the read is free
  // when the cache holds the sector. Probe both edges before caching
  // either, so one write never hits on its own edge.
  const uint32_t sector = device_->sector_size();
  const uint64_t end = abs_offset + length;
  const uint64_t head = abs_offset / sector;
  const uint64_t tail = end / sector;
  const bool head_partial = abs_offset % sector != 0;
  const bool tail_partial = end % sector != 0;
  const auto needs_read = [&](uint64_t s) {
    if (sector_cache_.Lookup(s)) {
      stats_.sector_cache_hits++;
      return false;
    }
    stats_.rmw_sectors++;
    return true;
  };
  const bool read_head = head_partial && needs_read(head);
  const bool read_tail =
      tail_partial && !(head_partial && tail == head) && needs_read(tail);
  CachePartialSectors(abs_offset, length);
  appliers_.Add(1);
  sim::Scheduler::Current().Spawn(ChargeApply(
      shared_from_this(), abs_offset, length, read_head, read_tail));
}

void ObjectStore::CachePartialSectors(uint64_t abs_offset, uint64_t length) {
  const uint32_t sector = device_->sector_size();
  const uint64_t end = abs_offset + length;
  if (abs_offset % sector != 0) sector_cache_.Insert(abs_offset / sector);
  if (end % sector != 0) sector_cache_.Insert(end / sector);
}

void ObjectStore::DropCachedSectors(uint64_t abs_offset, uint64_t length) {
  // Only sectors the range covers whole: a partly discarded sector keeps
  // its other bytes, and the discarded ones are known to read as zeros.
  const uint32_t sector = device_->sector_size();
  sector_cache_.Drop((abs_offset + sector - 1) / sector,
                     (abs_offset + length) / sector);
}

sim::Task<void> ObjectStore::ChargeApply(std::shared_ptr<ObjectStore> self,
                                         uint64_t abs_offset, uint64_t length,
                                         bool read_head, bool read_tail) {
  // Final-location write of the sectors covering [abs_offset, +length),
  // after the RMW reads of its uncached partial head/tail sectors.
  const uint32_t sector = self->device_->sector_size();
  const uint64_t first = abs_offset / sector * sector;
  const uint64_t last = (abs_offset + length + sector - 1) / sector * sector;
  if (read_head) (void)co_await self->device_->ChargeRead(first, sector);
  if (read_tail) {
    (void)co_await self->device_->ChargeRead(last - sector, sector);
  }
  (void)co_await self->device_->ChargeWrite(first, last - first);
  self->stats_.apply_sectors_written += (last - first) / sector;
  self->appliers_.Done();
}

sim::Task<void> ObjectStore::ChargeExtent(std::shared_ptr<ObjectStore> self,
                                          bool is_write, uint64_t abs_offset,
                                          uint64_t length) {
  const uint32_t sector = self->device_->sector_size();
  const uint64_t aligned = (length + sector - 1) / sector * sector;
  if (is_write) {
    (void)co_await self->device_->ChargeWrite(abs_offset, aligned);
  } else {
    (void)co_await self->device_->ChargeRead(abs_offset, aligned);
  }
  self->appliers_.Done();
}

sim::Task<void> ObjectStore::Drain() {
  co_await appliers_.Wait();
}

sim::Task<Status> ObjectStore::KvCommit(kv::WriteBatch batch,
                                        sim::SimTime cpu_cost,
                                        obs::TraceContext* trace) {
  // Store-wide work with no object affinity: charged on any core, the lane
  // never waits behind one object core's commit backlog.
  co_await kv_lane_.Acquire();
  sim::SemGuard lane(kv_lane_);
  co_await sim::ChargeAnyCpu{cpu_cost};
  obs::SpanScope kv_span(trace, obs::Stage::kDevice);
  co_return co_await kv_->Write(std::move(batch));
}

sim::Task<Status> ObjectStore::MaybeClone(const std::string& oid, Onode& node,
                                          const SnapContext& snapc,
                                          obs::TraceContext* trace) {
  if (snapc.seq == 0 || snapc.seq <= node.head_seq) co_return Status::Ok();
  const uint64_t old_seq = node.head_seq;
  node.head_seq = snapc.seq;
  if (node.size == 0 && old_seq == 0) {
    // Object born after the snapshot: nothing to preserve.
    co_return Status::Ok();
  }
  // Preserve current head data for snapshots in (old_seq, snapc.seq].
  auto extent = alloc_->Allocate(std::max<uint64_t>(node.size, 1));
  if (!extent.ok()) co_return extent.status();
  Clone clone{snapc.seq, *extent, node.size, node.trimmed};
  if (node.size > 0) {
    // Share only the live runs: trimmed ranges read zeros through the
    // clone's own trimmed map, so materializing zero pages for them would
    // waste the sparseness TRIM just bought. The clone adopts the head's
    // pages (copied where the extents sit at different in-page offsets);
    // the head copies a shared page before its next write to it.
    uint64_t pos = 0;
    for (auto it = node.trimmed.begin(); pos < node.size; ++it) {
      const uint64_t run_end =
          it == node.trimmed.end() ? node.size : std::min(it->first, node.size);
      if (pos < run_end) {
        dev::SparseRam::PageRun run;
        device_->PeekPages(data_base_ + node.base + pos, run_end - pos, run);
        device_->PokeWrite(data_base_ + clone.base + pos, run);
      }
      if (it == node.trimmed.end()) break;
      pos = it->first + it->second;
    }
    // Charge the copy in the background (Ceph clones lazily; we charge the
    // full copy up front in background time).
    appliers_.Add(2);
    sim::Scheduler::Current().Spawn(
        ChargeExtent(shared_from_this(), false, data_base_ + node.base,
                     node.size));
    sim::Scheduler::Current().Spawn(
        ChargeExtent(shared_from_this(), true, data_base_ + clone.base,
                     node.size));
  }
  // Clone the OMAP rows so per-snapshot IVs stay readable.
  const Bytes head_lo = OmapKey(oid, kHeadSnap, {});
  Bytes head_hi = OmapKey(oid, kHeadSnap, {});
  head_hi.insert(head_hi.end(), 17, 0xFF);
  auto rows = co_await kv_->Scan(head_lo, head_hi);
  if (!rows.ok()) co_return rows.status();
  if (!rows->empty()) {
    kv::WriteBatch batch;
    for (const auto& [k, v] : *rows) {
      // Re-prefix: strip the head prefix, re-attach the clone's snap id.
      const ByteSpan user_key(k.data() + head_lo.size(),
                              k.size() - head_lo.size());
      batch.Put(OmapKey(oid, clone.covers_up_to, user_key), v);
    }
    VDE_CO_RETURN_IF_ERROR(co_await KvCommit(std::move(batch), 0, trace));
  }
  node.clones.push_back(clone);
  stats_.clones++;
  co_return Status::Ok();
}

sim::SharedLock& ObjectStore::ObjectLock(const std::string& oid) {
  auto& lock = object_locks_[oid];
  if (!lock) lock = std::make_unique<sim::SharedLock>();
  return *lock;
}

void ObjectStore::MaybePruneLock(const std::string& oid) {
  if (objects_.find(oid) != objects_.end()) return;
  const auto it = object_locks_.find(oid);
  if (it != object_locks_.end() && it->second->idle()) {
    object_locks_.erase(it);
  }
}

sim::Task<Status> ObjectStore::Apply(const Transaction& txn,
                                     const SnapContext& snapc,
                                     PageShare* share) {
  for (const auto& op : txn.ops) {
    if (!IsWriteClass(op.type)) {
      co_return Status::InvalidArgument("read op in write transaction");
    }
  }
  // 1. Commit point: journal the transaction (objstore/txn_record.h; the
  // payload bytes a later discard of the same transaction covers are left
  // out). Journaling pipelines across transactions (like the OSD's
  // journal/WAL stage); only the apply stage below is ordered per object.
  const TxnRecord record(txn, snapc);
  const auto write_record = [&record](MutByteSpan out) { record.Write(out); };
  obs::SpanScope journal_span(txn.trace, obs::Stage::kDevice);
  auto frame = journal_unapplied_.insert(journal_->bytes_used());
  Status js = co_await journal_->Append(record.size(), write_record);
  // Checkpoint when full: applied state is durable by construction once the
  // background charges drain, so the journal can restart once no frame is
  // queued for the full generation. Of several appends that found it full,
  // the first to resume resets it and the rest retry in the fresh one; a
  // frame that does not fit a fresh journal fails.
  bool reset = false;
  while (js.code() == StatusCode::kOutOfSpace && !reset) {
    const uint64_t full_generation = journal_->generation();
    co_await Drain();
    co_await journal_->Idle();
    reset = journal_->generation() == full_generation;
    if (reset) {
      journal_->Reset(full_generation + 1);
      journal_released_ = 0;
    }
    journal_unapplied_.erase(frame);
    frame = journal_unapplied_.insert(journal_->bytes_used());
    js = co_await journal_->Append(record.size(), write_record);
  }
  journal_span.End();
  if (!js.ok()) {
    RetireJournalFrame(frame);
    co_return js;
  }
  stats_.transactions++;
  stats_.journal_bytes += record.size();

  // Pipelined apply (core model on): the prepare stage — payload staging
  // penalties for sub-sector and unaligned ops — runs BEFORE the
  // per-object exclusive lock, on a rotating core ("any core" stage work),
  // so it overlaps the previous transaction's commit stage. With the core
  // model off the penalties charge inside the lock, exactly as before.
  sim::Scheduler& sched = sim::Scheduler::Current();
  if (sched.core_model_enabled()) {
    const uint32_t sector = device_->sector_size();
    sim::SimTime prepare = 0;
    for (const auto& op : txn.ops) {
      if (op.type == OsdOp::Type::kWrite ||
          op.type == OsdOp::Type::kWriteFull ||
          op.type == OsdOp::Type::kZero || op.type == OsdOp::Type::kTrim) {
        const uint64_t len =
            op.type == OsdOp::Type::kWriteFull ? op.payload_size() : op.length;
        const uint64_t off =
            op.type == OsdOp::Type::kWriteFull ? 0 : op.offset;
        prepare += config_.costs.PreparePenalty(
            op.type == OsdOp::Type::kTrim, off, len, sector);
      }
    }
    if (prepare > 0) co_await sim::ChargeCpu{sched.NextShard(), prepare};
  }

  sim::SharedLock& lock = ObjectLock(txn.oid);
  co_await lock.AcquireExclusive();
  const Status status = co_await ApplyLocked(txn, snapc, share);
  lock.ReleaseExclusive();
  MaybePruneLock(txn.oid);
  RetireJournalFrame(frame);
  co_return status;
}

void ObjectStore::RetireJournalFrame(
    std::multiset<uint64_t>::iterator frame) {
  journal_unapplied_.erase(frame);
  // The next append rewrites the sector holding the journal's end, and an
  // unapplied frame's sectors are still live: release up to the sector
  // holding the nearer of the two. The journal region starts at offset 0.
  uint64_t head = journal_->bytes_used();
  if (!journal_unapplied_.empty()) {
    head = std::min(head, *journal_unapplied_.begin());
  }
  head -= head % device_->sector_size();
  if (head > journal_released_) {
    device_->PokeTrim(journal_released_, head - journal_released_);
    journal_released_ = head;
  }
}

sim::Task<Status> ObjectStore::ApplyLocked(const Transaction& txn,
                                           const SnapContext& snapc,
                                           PageShare* share) {
  // 2. Resolve the object and preserve snapshot state before mutating.
  const bool is_remove = txn.ops.size() == 1 &&
                         txn.ops[0].type == OsdOp::Type::kRemove;
  if (is_remove) {
    auto it = objects_.find(txn.oid);
    if (it == objects_.end()) co_return Status::NotFound(txn.oid);
    // Scrub the extent before recycling it: a later tenant of this
    // allocation must never read the removed object's (cipher)text.
    device_->PokeTrim(data_base_ + it->second.base, config_.max_object_size);
    DropCachedSectors(data_base_ + it->second.base, config_.max_object_size);
    alloc_->Free(it->second.base, config_.max_object_size);
    // Drop head OMAP rows (clone namespaces survive for snapshot reads).
    const Bytes lo = OmapKey(txn.oid, kHeadSnap, {});
    Bytes hi = lo;
    hi.insert(hi.end(), 17, 0xFF);
    auto rows = co_await kv_->Scan(lo, hi);
    if (!rows.ok()) co_return rows.status();
    if (!rows->empty()) {
      kv::WriteBatch batch;
      for (const auto& [k, v] : *rows) batch.Delete(k);
      VDE_CO_RETURN_IF_ERROR(
          co_await KvCommit(std::move(batch), 0, txn.trace));
    }
    objects_.erase(it);
    co_return Status::Ok();
  }

  // Discarding a never-written object is a no-op: materializing it would
  // permanently reserve a full extent for TRIMmed nothing.
  if (objects_.find(txn.oid) == objects_.end()) {
    bool discard_only = true;
    for (const auto& op : txn.ops) {
      if (op.type == OsdOp::Type::kZero || op.type == OsdOp::Type::kTrim) {
        continue;
      }
      if (op.type == OsdOp::Type::kOmapSet &&
          std::all_of(op.omap_kvs.begin(), op.omap_kvs.end(),
                      [](const auto& kv) { return kv.second.empty(); })) {
        continue;
      }
      discard_only = false;
      break;
    }
    if (discard_only) co_return Status::Ok();
  }

  auto node_or = GetOrCreate(txn.oid);
  if (!node_or.ok()) co_return node_or.status();
  Onode& node = **node_or;
  VDE_CO_RETURN_IF_ERROR(
      co_await MaybeClone(txn.oid, node, snapc, txn.trace));

  // 3. Apply ops: instant visibility, background device-cost charges.
  const uint32_t sector = device_->sector_size();
  sim::Scheduler& sched = sim::Scheduler::Current();
  // Per-object work pins to the object's core (deterministic FNV shard):
  // commits of independent objects run on independent cores, commits of
  // one object serialize — the RADOS per-object ordering made physical.
  const uint64_t obj_shard = sim::ShardOf(txn.oid);
  const bool pipelined = sched.core_model_enabled();
  if (share != nullptr && share->ops.empty()) share->ops.resize(txn.ops.size());
  assert(share == nullptr || share->ops.size() == txn.ops.size());
  // Makes a payload or a punch visible at `abs`; through a share, its pages
  // are stored once across the replicas of this write. A payload carried as
  // pages is adopted from them.
  const auto poke_payload = [&](size_t op_index, uint64_t abs) {
    const OsdOp& op = txn.ops[op_index];
    if (!op.pages.empty()) {
      device_->PokeWrite(abs, op.pages);
    } else if (share == nullptr) {
      device_->PokeWrite(abs, op.data);
    } else {
      device_->PokeWrite(abs, op.data, share->ops[op_index]);
    }
  };
  const auto poke_trim = [&](size_t op_index, uint64_t abs, uint64_t length) {
    if (share == nullptr) {
      device_->PokeTrim(abs, length);
    } else {
      device_->PokeTrim(abs, length, share->ops[op_index]);
    }
  };
  for (size_t op_index = 0; op_index < txn.ops.size(); ++op_index) {
    const OsdOp& op = txn.ops[op_index];
    // Software cost of the data-op apply path (sync; CostModel constants).
    if (op.type == OsdOp::Type::kWrite || op.type == OsdOp::Type::kWriteFull ||
        op.type == OsdOp::Type::kZero || op.type == OsdOp::Type::kTrim) {
      const uint64_t len =
          op.type == OsdOp::Type::kWriteFull ? op.payload_size() : op.length;
      const uint64_t off = op.type == OsdOp::Type::kWriteFull ? 0 : op.offset;
      // Commit-stage cost; the prepare-stage penalties were charged before
      // the lock when pipelining, and fold in here when not.
      sim::SimTime cost = config_.costs.write_op_apply_cost;
      if (!pipelined) {
        cost += config_.costs.PreparePenalty(op.type == OsdOp::Type::kTrim,
                                             off, len, sector);
      }
      co_await sim::ChargeCpu{obj_shard, cost};
    }
    switch (op.type) {
      case OsdOp::Type::kCreate:
        break;  // GetOrCreate already materialized the object
      case OsdOp::Type::kWrite: {
        const uint64_t size = op.payload_size();
        if (op.offset + size > config_.max_object_size) {
          co_return Status::InvalidArgument("write beyond max object size");
        }
        // Rewriting a trimmed range re-backs its punched sectors and takes
        // the range out of the trimmed-extent map (idempotent otherwise).
        stats_.bytes_restored += alloc_->Restore(node.base + op.offset, size);
        IntervalMapRemove(node.trimmed, op.offset, size);
        poke_payload(op_index, data_base_ + node.base + op.offset);
        node.size = std::max(node.size, op.offset + size);
        SpawnApplyCharge(data_base_ + node.base + op.offset, size);
        break;
      }
      case OsdOp::Type::kWriteFull: {
        const uint64_t size = op.payload_size();
        if (size > config_.max_object_size) {
          co_return Status::InvalidArgument("writefull beyond max size");
        }
        stats_.bytes_restored += alloc_->Restore(node.base, size);
        node.trimmed.clear();
        poke_payload(op_index, data_base_ + node.base);
        node.size = size;
        SpawnApplyCharge(data_base_ + node.base, size);
        break;
      }
      case OsdOp::Type::kZero: {
        if (op.offset + op.length > config_.max_object_size) {
          co_return Status::InvalidArgument("zero beyond max object size");
        }
        // Punch instead of writing zero pages: reads return zeros either
        // way and TRIMmed ranges actually release memory. Deallocation is
        // metadata-only — no final-location device write to charge (the
        // per-op software cost above still applies).
        poke_trim(op_index, data_base_ + node.base + op.offset, op.length);
        DropCachedSectors(data_base_ + node.base + op.offset, op.length);
        break;
      }
      case OsdOp::Type::kTrim: {
        if (op.offset + op.length > config_.max_object_size) {
          co_return Status::InvalidArgument("trim beyond max object size");
        }
        // Tracked discard: the range enters the trimmed-extent map (reads
        // inside it never touch the device), the data plane drops the
        // pages, and fully covered sectors return to the allocator — TRIM
        // actually grows free capacity instead of writing a zero pattern.
        poke_trim(op_index, data_base_ + node.base + op.offset, op.length);
        DropCachedSectors(data_base_ + node.base + op.offset, op.length);
        stats_.bytes_trimmed += IntervalMapAdd(node.trimmed, op.offset,
                                               op.length);
        alloc_->Punch(node.base + op.offset, op.length);
        stats_.trim_ops++;
        break;
      }
      case OsdOp::Type::kOmapSet: {
        kv::WriteBatch batch;
        for (const auto& [k, v] : op.omap_kvs) {
          batch.Put(OmapKey(txn.oid, kHeadSnap, k), v);
        }
        // Per-key software cost on the single kv lane is what makes the
        // OMAP layout collapse at large IO sizes (Fig. 3b/4).
        VDE_CO_RETURN_IF_ERROR(co_await KvCommit(
            std::move(batch),
            config_.costs.omap_key_write_cost * op.omap_kvs.size(),
            txn.trace));
        break;
      }
      case OsdOp::Type::kRemove:
        co_return Status::InvalidArgument("remove must be a lone op");
      case OsdOp::Type::kRead:
      case OsdOp::Type::kOmapGetRange:
        co_return Status::InvalidArgument("read op in write txn");
    }
  }
  co_return Status::Ok();
}

sim::Task<Result<ReadResult>> ObjectStore::ExecuteRead(const Transaction& txn,
                                                       SnapId snap) {
  sim::SharedLock& lock = ObjectLock(txn.oid);
  co_await lock.AcquireShared();
  auto result = co_await ExecuteReadLocked(txn, snap);
  lock.ReleaseShared();
  MaybePruneLock(txn.oid);
  co_return result;
}

sim::Task<Result<ReadResult>> ObjectStore::ExecuteReadLocked(
    const Transaction& txn, SnapId snap) {
  ReadResult result;
  const auto it = objects_.find(txn.oid);

  // Resolve which data extent / omap namespace / trimmed map serves `snap`.
  uint64_t base = 0;
  SnapId omap_ns = kHeadSnap;
  bool exists = false;
  const TrimmedMap* trimmed = nullptr;
  if (it != objects_.end()) {
    const Onode& node = it->second;
    if (snap == kHeadSnap) {
      base = node.base;
      trimmed = &node.trimmed;
      exists = true;
    } else {
      // Oldest clone that still covers `snap`; else the head.
      const Clone* chosen = nullptr;
      for (const auto& clone : node.clones) {
        if (clone.covers_up_to >= snap) {
          chosen = &clone;
          break;
        }
      }
      if (chosen != nullptr) {
        base = chosen->base;
        omap_ns = chosen->covers_up_to;
        trimmed = &chosen->trimmed;
      } else {
        base = node.base;
        trimmed = &node.trimmed;
      }
      exists = true;
    }
  }

  // Execute all read ops concurrently ("IV reads in parallel to data IO").
  struct OpOut {
    Bytes data;
    dev::SparseRam::PageRun pages;
    std::vector<std::pair<Bytes, Bytes>> omap;
    Status status;
  };
  std::vector<OpOut> outs(txn.ops.size());
  std::vector<sim::Task<void>> tasks;
  for (size_t i = 0; i < txn.ops.size(); ++i) {
    const OsdOp& op = txn.ops[i];
    if (op.type == OsdOp::Type::kRead) {
      if (!exists) {
        co_return Status::NotFound(txn.oid);
      }
      // Trimmed-read fast path: a range fully inside the trimmed-extent
      // map is zeros by definition — no device IO, no device-time charge.
      if (trimmed != nullptr &&
          IntervalMapCovers(*trimmed, op.offset, op.length)) {
        if (op.as_pages) {
          outs[i].pages = dev::SparseRam::ZeroRun(
              data_base_ + base + op.offset, op.length);
        } else {
          outs[i].data.assign(op.length, 0);
        }
        outs[i].status = Status::Ok();
        stats_.trimmed_reads++;
        continue;
      }
      tasks.push_back([](ObjectStore* self, const OsdOp* op, uint64_t base,
                         obs::TraceContext* trace,
                         OpOut* out) -> sim::Task<void> {
        const uint32_t sector = self->device_->sector_size();
        const uint64_t abs = self->data_base_ + base + op->offset;
        const uint64_t first = abs / sector * sector;
        const uint64_t last =
            (abs + op->length + sector - 1) / sector * sector;
        obs::SpanScope dev_span(trace, obs::Stage::kDevice);
        out->status = co_await self->device_->ChargeRead(first, last - first);
        dev_span.End();
        if (out->status.ok()) {
          // Buffered: the partial edge sectors just read stay known, so a
          // write that follows (the client's read-modify-write) need not
          // read them again.
          self->CachePartialSectors(abs, op->length);
          if (op->as_pages) {
            self->device_->PeekPages(abs, op->length, out->pages);
          } else {
            out->data.resize(op->length);
            self->device_->PeekRead(abs, out->data);
          }
        }
      }(this, &op, base, txn.trace, &outs[i]));
    } else if (op.type == OsdOp::Type::kOmapGetRange) {
      tasks.push_back([](ObjectStore* self, const std::string oid,
                         const OsdOp* op, SnapId ns,
                         obs::TraceContext* trace,
                         OpOut* out) -> sim::Task<void> {
        const Bytes lo = self->OmapKey(oid, ns, op->omap_start);
        Bytes hi;
        if (op->omap_end.empty()) {
          hi = self->OmapKey(oid, ns, {});
          hi.insert(hi.end(), 17, 0xFF);
        } else {
          hi = self->OmapKey(oid, ns, op->omap_end);
        }
        obs::SpanScope dev_span(trace, obs::Stage::kDevice);
        auto rows = co_await self->kv_->Scan(lo, hi, op->omap_max);
        dev_span.End();
        if (!rows.ok()) {
          out->status = rows.status();
          co_return;
        }
        const size_t prefix = self->OmapKey(oid, ns, {}).size();
        for (auto& [k, v] : *rows) {
          out->omap.emplace_back(Bytes(k.begin() + static_cast<long>(prefix),
                                       k.end()),
                                 std::move(v));
        }
      }(this, txn.oid, &op, omap_ns, txn.trace, &outs[i]));
    } else {
      co_return Status::InvalidArgument("write op in read txn");
    }
  }
  co_await sim::WhenAll(std::move(tasks));

  for (auto& out : outs) {
    if (!out.status.ok()) co_return out.status;
    if (result.data.empty()) {
      result.data = std::move(out.data);
    } else {
      AppendBytes(result.data, out.data);
    }
    if (!out.pages.empty()) result.pages = std::move(out.pages);
    for (auto& kv : out.omap) result.omap_values.push_back(std::move(kv));
  }
  co_return result;
}

}  // namespace vde::objstore
