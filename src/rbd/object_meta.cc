#include "rbd/object_meta.h"

#include <algorithm>
#include <cassert>

#include "rbd/image.h"
#include "util/bytes.h"

namespace vde::rbd {

namespace {

constexpr uint32_t kMetaMagic = 0x56444D31;  // "VDM1"

// Plane key space, one leading kind byte: single-row keys ('M' manifest,
// 'C' clean flag), per-object keys ('E' epoch floor, 'B' sealed bitmap),
// and per-block IV rows ('I' + object + block, both big-endian so prefix
// scans walk an object's rows in block order).
Bytes Key1(uint8_t kind) { return Bytes{kind}; }

Bytes ObjKey(uint8_t kind, uint64_t object_no) {
  Bytes key(9);
  key[0] = kind;
  StoreU64Be(key.data() + 1, object_no);
  return key;
}

Bytes RowKey(uint64_t object_no, uint64_t block) {
  Bytes key(17);
  key[0] = 'I';
  StoreU64Be(key.data() + 1, object_no);
  StoreU64Be(key.data() + 9, block);
  return key;
}

constexpr size_t kRowKeySize = 17;
constexpr size_t kRowStampSize = 8;  // LE epoch stamp preceding the row
constexpr size_t kDeleteBatch = 256;

}  // namespace

void ObjectMeta::ReleaseLane::operator()(Entry* e) const {
  e->lane.Release();
}

ObjectMeta::Entry& ObjectMeta::At(uint64_t object_no) {
  auto& slot = entries_[object_no];
  if (!slot) slot = std::make_unique<Entry>();
  return *slot;
}

// --- Per-object load ---

sim::Task<Result<const core::DiscardBitmap*>> ObjectMeta::Load(
    uint64_t object_no, obs::TraceContext* trace) {
  obs::SpanScope store_span(trace, obs::Stage::kStore);
  if (!bitmaps_enabled()) co_return nullptr;
  Entry& e = At(object_no);
  if (e.loaded) co_return &e.bits;
  co_await e.lane.Acquire();
  sim::SemGuard lane(e.lane);
  if (e.loaded) co_return &e.bits;  // a concurrent first touch loaded
  if (warm_) {
    VDE_CO_RETURN_IF_ERROR(co_await LoadWarm(object_no, e));
    if (e.loaded) co_return &e.bits;
  }

  objstore::Transaction txn;
  format_.MakeBitmapRead(txn);
  stats_.trim_state_loads++;
  auto io = image_.io();
  auto got = co_await io.OperateRead(image_.ObjectName(object_no),
                                     std::move(txn), objstore::kHeadSnap);
  Bytes record;  // the store's verified record; empty for a fresh object
  uint64_t record_epoch = 0;
  if (got.status().IsNotFound()) {
    // Fresh object: every block legitimately reads as zeros.
    e.bits = core::DiscardBitmap::AllSet(image_.blocks_per_object());
  } else {
    if (!got.ok()) co_return got.status();
    auto raw = format_.FinishBitmapRead(*got);
    if (!raw.ok()) co_return raw.status();
    if (raw->empty()) {
      // Every write through an AuthenticatedTrim format persists a bitmap,
      // so an existing data object without one had its record wiped: the
      // bitmap flavor of the erase channel. Refuse to guess.
      co_return Status::Corruption(
          "discard bitmap missing for existing object");
    }
    VDE_CO_RETURN_IF_ERROR(
        format_.OpenBitmap(object_no, *raw, &e.bits, &record_epoch));
    record = std::move(*raw);
  }
  e.epoch = record_epoch;
  if (has_plane()) {
    // A warm plane's LoadWarm fetched the floor already.
    if (!warm_) VDE_CO_RETURN_IF_ERROR(co_await FetchFloor(object_no, e));
    if (!record.empty() && record_epoch < e.floor_sealed) {
      // The store presented a record older than one this client already
      // sealed: a rolled-back bitmap. The MAC alone cannot catch this; the
      // epoch floor does.
      co_return Status::Corruption("discard bitmap rolled back");
    }
    // Resume the generation where the plane last saw the object: a removed
    // object's store record is gone, but its epoch never restarts.
    e.epoch = std::max({record_epoch, e.floor_sealed, e.floor_ceiling});
    if (record.empty()) {
      record_epoch = e.epoch;
      record = format_.SealBitmap(object_no, e.bits, e.epoch);
    }
    // The next clean reopen serves the record (or the fresh all-set
    // state) off the plane, without a store metadata read.
    JournalBitmap(object_no, e, record, record_epoch);
  }
  e.loaded = true;
  co_return &e.bits;
}

sim::Task<Status> ObjectMeta::LoadWarm(uint64_t object_no, Entry& e) {
  VDE_CO_RETURN_IF_ERROR(co_await FetchFloor(object_no, e));
  if (retains_rows()) {
    auto rows = co_await kv_->ScanPrefix(ObjKey('I', object_no));
    VDE_CO_RETURN_IF_ERROR(rows.status());
    const bool fresh = e.rows.empty();
    uint64_t installed = 0;
    for (const auto& [key, value] : *rows) {
      if (key.size() != kRowKeySize || value.size() < kRowStampSize) {
        co_return Status::Corruption("malformed persisted IV row");
      }
      if (LoadU64Le(value.data()) > e.floor_ceiling) {
        // Stamped beyond every generation this plane committed: a row
        // spliced in from a later copy of the state. The block stays cold.
        stats_.meta_epoch_rejections++;
        continue;
      }
      const uint64_t block = LoadU64Be(key.data() + 9);
      Bytes row(value.begin() + kRowStampSize, value.end());
      if (e.rows.insert_or_assign(block, std::move(row)).second) {
        cached_rows_++;
      }
      installed++;
    }
    stats_.meta_recovered_rows += installed;
    if (installed > 0) {
      TouchRows(object_no, e, fresh);
      stats_.meta_warm_hits++;
    }
  }
  auto raw = co_await kv_->Get(ObjKey('B', object_no));
  VDE_CO_RETURN_IF_ERROR(raw.status());
  if (!raw->has_value()) co_return Status::Ok();
  // The plane is untrusted local storage: re-verify the record's MAC and
  // its generation against the floor before serving it.
  uint64_t sealed_epoch = 0;
  VDE_CO_RETURN_IF_ERROR(
      format_.OpenBitmap(object_no, **raw, &e.bits, &sealed_epoch));
  if (sealed_epoch < e.floor_sealed) {
    co_return Status::Corruption("persisted discard bitmap rolled back");
  }
  e.epoch = std::max(sealed_epoch, e.floor_ceiling);
  e.loaded = true;
  stats_.meta_warm_hits++;
  co_return Status::Ok();
}

sim::Task<Status> ObjectMeta::FetchFloor(uint64_t object_no, Entry& e) {
  auto raw = co_await kv_->Get(ObjKey('E', object_no));
  VDE_CO_RETURN_IF_ERROR(raw.status());
  if (raw->has_value() && (*raw)->size() >= 16) {
    e.floor_sealed = LoadU64Le((*raw)->data());
    e.floor_ceiling = LoadU64Le((*raw)->data() + 8);
  }
  co_return Status::Ok();
}

// --- Bitmap updates ---

sim::Task<Result<ObjectMeta::Update>> ObjectMeta::StageBitmap(
    uint64_t object_no,
    const std::vector<std::pair<uint64_t, size_t>>& clear,
    const std::vector<std::pair<uint64_t, size_t>>& set,
    objstore::Transaction& txn) {
  Update update;
  if (!bitmaps_enabled()) co_return update;
  Entry& e = At(object_no);
  assert(e.loaded && "StageBitmap requires a prior successful Load");

  // Resolved synchronously, so a no-flip check cannot race a concurrent
  // commit: overwrites of live blocks and trims of already-trimmed ranges
  // append nothing and take no lane.
  auto flips = [&e, &clear, &set]() {
    for (const auto& [first, count] : clear) {
      if (e.bits.AnySetRange(first, count)) return true;
    }
    for (const auto& [first, count] : set) {
      if (!e.bits.AllSetRange(first, count)) return true;
    }
    return false;
  };
  if (!flips()) co_return update;

  co_await e.lane.Acquire();
  // Re-check under the lane: the bits may have flipped while waiting.
  if (!flips()) {
    e.lane.Release();
    co_return update;
  }
  update.entry_.reset(&e);
  update.object_no_ = object_no;
  update.pending_ = e.bits;
  for (const auto& [first, count] : clear) {
    update.pending_.ClearRange(first, count);
  }
  for (const auto& [first, count] : set) update.pending_.SetRange(first, count);
  // One generation per sealed record. e.epoch only advances at Commit, so
  // a failed transaction leaves the generation untouched; the lane is held
  // until then, so the +1 cannot be claimed twice.
  update.epoch_ = e.epoch + 1;
  update.sealed_ = format_.SealBitmap(object_no, update.pending_,
                                      update.epoch_);
  format_.MakeBitmapWrite(object_no, update.sealed_, txn);
  co_return update;
}

void ObjectMeta::Commit(Update&& update) {
  if (update.entry_ == nullptr) return;
  Entry& e = *update.entry_;
  e.bits = std::move(update.pending_);
  e.epoch = update.epoch_;
  if (has_plane()) {
    JournalBitmap(update.object_no_, e, update.sealed_, update.epoch_);
  }
  stats_.trim_bitmap_updates++;
  update.entry_.reset();  // releases the lane
}

void ObjectMeta::OnRemove(uint64_t object_no) {
  if (bitmaps_enabled()) {
    Entry& e = At(object_no);
    e.bits = core::DiscardBitmap::AllSet(image_.blocks_per_object());
    e.loaded = true;
    // A remove is a mutating generation like any other. (With a plane the
    // remove path Loads first, so e.epoch is the real generation here.)
    e.epoch++;
    if (has_plane()) {
      JournalBitmap(object_no, e,
                    format_.SealBitmap(object_no, e.bits, e.epoch), e.epoch);
    }
  }
  PutCleared(object_no, 0, image_.blocks_per_object());
  // After the cleared markers: they are the last rows the object journals,
  // and Close deletes them with the bitmap; only the floor survives.
  if (has_plane()) removed_.insert(object_no);
}

// --- IV rows ---

bool ObjectMeta::TryGetRange(uint64_t object_no, uint64_t first_block,
                             size_t count, core::IvRows* rows) {
  const auto it = entries_.find(object_no);
  if (it == entries_.end() || it->second->rows.empty()) return false;
  Entry& e = *it->second;
  auto row = e.rows.lower_bound(first_block);
  for (size_t b = 0; b < count; ++b, ++row) {
    if (row == e.rows.end() || row->first != first_block + b) return false;
  }
  row = e.rows.find(first_block);
  for (size_t b = 0; b < count; ++b, ++row) rows->push_back(row->second);
  TouchRows(object_no, e, /*fresh=*/false);
  return true;
}

void ObjectMeta::PutRange(uint64_t object_no, uint64_t first_block,
                          const core::IvRows& rows) {
  if (rows.empty()) return;
  Entry& e = At(object_no);
  // The plane journals before the retention check, so even a zero-capacity
  // cache feeds it.
  if (has_plane()) JournalRows(object_no, e, first_block, rows);
  if (!retains_rows()) return;
  const bool fresh = e.rows.empty();
  for (size_t i = 0; i < rows.size(); ++i) {
    if (e.rows.insert_or_assign(first_block + i, rows[i]).second) {
      cached_rows_++;
    }
  }
  TouchRows(object_no, e, fresh);
}

void ObjectMeta::PutCleared(uint64_t object_no, uint64_t first_block,
                            size_t count) {
  if (!records_rows() || count == 0) return;
  PutRange(object_no, first_block, core::IvRows(count));
}

void ObjectMeta::InvalidateRange(uint64_t object_no, uint64_t first_block,
                                 uint64_t last_block) {
  const auto it = entries_.find(object_no);
  if (it == entries_.end() || it->second->rows.empty()) return;
  Entry& e = *it->second;
  auto row = e.rows.lower_bound(first_block);
  while (row != e.rows.end() && row->first <= last_block) {
    row = e.rows.erase(row);
    cached_rows_--;
    stats_.iv_invalidations++;
  }
  if (e.rows.empty()) lru_.erase(e.lru_it);
}

void ObjectMeta::TouchRows(uint64_t object_no, Entry& e, bool fresh) {
  if (fresh) {
    lru_.push_front(object_no);
    e.lru_it = lru_.begin();
  } else {
    lru_.splice(lru_.begin(), lru_, e.lru_it);
  }
  while (lru_.size() > cache_.max_objects) {
    Entry& victim = *entries_.at(lru_.back());
    lru_.pop_back();
    cached_rows_ -= victim.rows.size();
    victim.rows.clear();
    stats_.iv_evictions++;
  }
}

// --- Plane journal ---

void ObjectMeta::JournalRows(uint64_t object_no, Entry& e,
                             uint64_t first_block, const core::IvRows& rows) {
  removed_.erase(object_no);  // rewritten after removal: rows live again
  if (e.epoch > e.floor_ceiling) {
    e.floor_ceiling = e.epoch;
    dirty_floors_.insert(object_no);
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    Bytes value(kRowStampSize + rows[i].size());
    StoreU64Le(value.data(), e.epoch);
    std::copy(rows[i].begin(), rows[i].end(), value.begin() + kRowStampSize);
    pending_.Put(RowKey(object_no, first_block + i), std::move(value));
  }
  stats_.meta_spills += rows.size();
}

void ObjectMeta::JournalBitmap(uint64_t object_no, Entry& e,
                               const Bytes& sealed, uint64_t epoch) {
  removed_.erase(object_no);
  pending_.Put(ObjKey('B', object_no), sealed);
  e.floor_sealed = std::max(e.floor_sealed, epoch);
  e.floor_ceiling = std::max(e.floor_ceiling, epoch);
  dirty_floors_.insert(object_no);
  stats_.meta_spills++;
}

sim::Task<Status> ObjectMeta::FlushPressuredJournal() {
  if (pending_.size() < plane_.journal_flush_rows) co_return Status::Ok();
  co_return co_await FlushJournal();  // a no-op without a plane
}

sim::Task<Status> ObjectMeta::FlushJournal() {
  if (!has_plane()) co_return Status::Ok();
  co_await flush_lane_.Acquire();
  sim::SemGuard guard(flush_lane_);
  if (pending_.empty() && dirty_floors_.empty()) co_return Status::Ok();
  kv::WriteBatch batch = std::move(pending_);
  pending_ = kv::WriteBatch{};
  // The floors ride the same atomic batch as the entries they cover, so a
  // committed row can never out-generation its object's ceiling.
  for (const uint64_t object_no : dirty_floors_) {
    const Entry& e = At(object_no);
    Bytes value(16);
    StoreU64Le(value.data(), e.floor_sealed);
    StoreU64Le(value.data() + 8, e.floor_ceiling);
    batch.Put(ObjKey('E', object_no), std::move(value));
  }
  dirty_floors_.clear();
  stats_.meta_journal_flushes++;
  co_return co_await kv_->Write(std::move(batch));
}

// --- Plane session ---

sim::Task<Status> ObjectMeta::OpenPlane(const MetaStoreConfig& config) {
  if (!config.enabled || config.device == nullptr ||
      !format_.AuthenticatedTrim() || !image_.spec().NeedsMetadata()) {
    co_return Status::Ok();
  }
  plane_ = config;
  auto opened = co_await kv::KvStore::Open(*plane_.device, kv::KvOptions{});
  if (opened.ok()) {
    kv_ = std::move(*opened);
  } else if (opened.status().code() == StatusCode::kCorruption) {
    // Torn plane (superblock CRC failure): wipe it and start cold.
    VDE_CO_RETURN_IF_ERROR(co_await ResetPlane());
  } else {
    co_return opened.status();
  }

  // The manifest binds the plane to one image identity and geometry: a
  // mismatch (device reused for another image, object size changed) wipes
  // the plane rather than serving another image's metadata.
  Bytes manifest;
  AppendU32Le(manifest, kMetaMagic);
  AppendU64Le(manifest, image_.object_size());
  AppendU8(manifest, static_cast<uint8_t>(image_.spec().mode));
  AppendU8(manifest, static_cast<uint8_t>(image_.spec().layout));
  AppendU8(manifest, static_cast<uint8_t>(image_.spec().integrity));
  AppendBytes(manifest, BytesOf(image_.name()));

  auto existing = co_await kv_->Get(Key1('M'));
  VDE_CO_RETURN_IF_ERROR(existing.status());
  const bool foreign = existing->has_value() && **existing != manifest;
  if (foreign) VDE_CO_RETURN_IF_ERROR(co_await ResetPlane());
  if (!existing->has_value() || foreign) {
    // A fresh plane: nothing persisted, cold by construction.
    co_return co_await kv_->Put(Key1('M'), std::move(manifest));
  }

  auto clean = co_await kv_->Get(Key1('C'));
  VDE_CO_RETURN_IF_ERROR(clean.status());
  warm_ = clean->has_value() && !(*clean)->empty() && (**clean)[0] == 1;
  if (!warm_) {
    // Crash: persisted bitmaps and rows may predate store transactions
    // that committed after the last journal flush.
    stats_.meta_cold_resets++;
    co_return co_await PurgeStaleState();
  }
  co_return Status::Ok();
}

sim::Task<Status> ObjectMeta::ResetPlane() {
  kv_.reset();
  // Superblock AND the whole WAL region: a fresh KvStore restarts at WAL
  // generation 1, the generation the previous instance began with.
  dev::BlockDevice& dev = *plane_.device;
  const uint32_t sector = dev.sector_size();
  Bytes zero(sector, 0);
  // The WAL follows the superblock in sector 0.
  const uint64_t end = sector + kv::KvOptions{}.wal_size;
  for (uint64_t off = 0; off < end; off += sector) {
    VDE_CO_RETURN_IF_ERROR(co_await dev.Write(off, zero));
  }
  auto opened = co_await kv::KvStore::Open(dev, kv::KvOptions{});
  VDE_CO_RETURN_IF_ERROR(opened.status());
  kv_ = std::move(*opened);
  stats_.meta_cold_resets++;
  co_return Status::Ok();
}

sim::Task<Status> ObjectMeta::WriteBatchOf(kv::WriteBatch& batch,
                                           size_t min) {
  if (batch.empty() || batch.size() < min) co_return Status::Ok();
  VDE_CO_RETURN_IF_ERROR(co_await kv_->Write(std::move(batch)));
  batch = kv::WriteBatch{};
  co_return Status::Ok();
}

sim::Task<Status> ObjectMeta::PurgeStaleState() {
  for (const uint8_t kind : {uint8_t{'B'}, uint8_t{'I'}}) {
    auto rows = co_await kv_->ScanPrefix(Key1(kind));
    VDE_CO_RETURN_IF_ERROR(rows.status());
    kv::WriteBatch batch;
    for (const auto& row : *rows) {
      batch.Delete(row.first);
      VDE_CO_RETURN_IF_ERROR(co_await WriteBatchOf(batch, kDeleteBatch));
    }
    VDE_CO_RETURN_IF_ERROR(co_await WriteBatchOf(batch, 1));
  }
  co_return Status::Ok();
}

sim::Task<Status> ObjectMeta::GcRemovedObjects() {
  kv::WriteBatch batch;
  for (const uint64_t object_no : removed_) {
    auto bitmap = co_await kv_->Get(ObjKey('B', object_no));
    VDE_CO_RETURN_IF_ERROR(bitmap.status());
    if (bitmap->has_value()) {
      batch.Delete(ObjKey('B', object_no));
      stats_.meta_gc_rows++;
    }
    auto rows = co_await kv_->ScanPrefix(ObjKey('I', object_no));
    VDE_CO_RETURN_IF_ERROR(rows.status());
    for (const auto& row : *rows) {
      batch.Delete(row.first);
      stats_.meta_gc_rows++;
    }
    // Deliberately NOT the 'E' floor: a dead object's floor still rejects
    // a replayed sealed bitmap if the object number is ever reused.
    VDE_CO_RETURN_IF_ERROR(co_await WriteBatchOf(batch, kDeleteBatch));
  }
  removed_.clear();
  co_return co_await WriteBatchOf(batch, 1);
}

sim::Task<Status> ObjectMeta::MarkDirty() {
  if (dirty_) co_return Status::Ok();
  co_await dirty_lane_.Acquire();
  sim::SemGuard guard(dirty_lane_);
  if (dirty_) co_return Status::Ok();
  // Write-through, BEFORE the first mutating store transaction: once the
  // store moves past the plane, a crash must cold-start the next open.
  VDE_CO_RETURN_IF_ERROR(co_await kv_->Put(Key1('C'), Bytes(1, 0)));
  dirty_ = true;
  co_return Status::Ok();
}

sim::Task<Status> ObjectMeta::Close() {
  if (!has_plane() || closed_) co_return Status::Ok();
  closed_ = true;
  VDE_CO_RETURN_IF_ERROR(co_await FlushJournal());
  // Journal first, then collect: removed_'s insert/erase bookkeeping makes
  // a rewrite after a remove survive, and a remove after the last journal
  // entry win.
  VDE_CO_RETURN_IF_ERROR(co_await GcRemovedObjects());
  // Set even when nothing was mutated: read-only sessions journal the rows
  // they read, which are consistent with the unchanged store.
  co_return co_await kv_->Put(Key1('C'), Bytes(1, 1));
}

void ObjectMeta::AccountRead(bool hit, bool zero_fill, size_t meta_bytes) {
  if (!hit) {
    stats_.iv_misses++;
    stats_.iv_meta_bytes_fetched += meta_bytes;
    return;
  }
  stats_.iv_hits++;
  stats_.iv_meta_bytes_saved += meta_bytes;
  if (zero_fill) stats_.trim_zero_reads++;
}

void ObjectMeta::ExportMetrics(obs::Metrics& n) const {
  stats_.ExportTo(n);
  // The plane's kv counters, renamed under `meta_kv_`.
  const kv::KvStats kv = has_plane() ? kv_->stats() : kv::KvStats{};
  n.Counter("meta_kv_wal_bytes", kv.wal_bytes);
  n.Counter("meta_kv_wal_commits", kv.wal_commits);
  n.Counter("meta_kv_flush_bytes", kv.bytes_flushed);
  n.Counter("meta_kv_compaction_bytes", kv.bytes_compacted);
}

// --- CachedExtentRead ---

CachedExtentRead::CachedExtentRead(ObjectMeta* meta,
                                   core::EncryptionFormat& fmt,
                                   const core::ObjectExtent& ext,
                                   const core::DiscardBitmap* zeros)
    : meta_(meta), fmt_(fmt), ext_(ext), zeros_(zeros) {
  if (meta_ == nullptr || !meta_->rows_enabled() ||
      !fmt_.spec().NeedsMetadata()) {
    meta_ = nullptr;
    return;
  }
  if (!meta_->TryGetRange(ext_.object_no, ext_.first_block, ext_.block_count,
                          &rows_)) {
    return;
  }
  const bool all_cleared = std::all_of(
      rows_.begin(), rows_.end(), [](const Bytes& row) { return row.empty(); });
  if (all_cleared &&
      (zeros_ == nullptr || !fmt_.AuthenticatedTrim() ||
       zeros_->AllSetRange(ext_.first_block, ext_.block_count))) {
    // Every block is a resident cleared marker (and, under an
    // authenticating format, the discard bitmap agrees): the extent is
    // zeros without any store round-trip. Geometry profitability is
    // irrelevant — skipping everything always profits.
    zero_fill_ = true;
    hit_ = true;
  } else if (!all_cleared && fmt_.DataOnlyReadProfitable(ext_)) {
    hit_ = true;
  } else {
    // Mixed markers on an unprofitable geometry, or markers the bitmap
    // no longer vouches for: fall back to the full fetch.
    rows_.clear();
  }
}

void CachedExtentRead::AppendOps(objstore::Transaction& txn) {
  if (zero_fill_) return;  // nothing to fetch
  read_bytes_ = fmt_.MakeRead(ext_, txn, /*data_only=*/hit_);
}

Status CachedExtentRead::Finish(const objstore::ReadResult& result,
                                MutByteSpan out) {
  // Accounting happens here, not at plan time: an extent whose object
  // turned out to be absent (NotFound reads as zeros, Finish never runs)
  // fetched no metadata and must not count.
  if (zero_fill_) {
    assert(result.data.empty());
    std::fill(out.begin(), out.end(), 0);
  } else if (hit_) {
    VDE_RETURN_IF_ERROR(
        fmt_.FinishReadWithIvs(ext_, result, rows_, out, zeros_));
  } else {
    // Capture the fetched rows only when the cache can retain them (a
    // zero-capacity cache still counts the fetch, but skips the copies).
    const bool keep = meta_ != nullptr && meta_->retains_rows();
    VDE_RETURN_IF_ERROR(
        fmt_.FinishRead(ext_, result, out, keep ? &rows_ : nullptr, zeros_));
    if (keep) meta_->PutRange(ext_.object_no, ext_.first_block, rows_);
  }
  if (meta_ != nullptr) {
    meta_->AccountRead(hit_, zero_fill_, fmt_.MetaReadBytes(ext_));
  }
  return Status::Ok();
}

}  // namespace vde::rbd
