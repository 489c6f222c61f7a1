#include "rbd/iv_cache.h"

#include <algorithm>
#include <cassert>

#include "rbd/meta_store.h"

namespace vde::rbd {

bool IvCache::TryGetRange(uint64_t object_no, uint64_t first_block,
                          size_t count, core::IvRows* rows) {
  const auto it = objects_.find(object_no);
  if (it == objects_.end()) return false;
  ObjectRows& obj = it->second;
  auto row = obj.rows.lower_bound(first_block);
  for (size_t b = 0; b < count; ++b, ++row) {
    if (row == obj.rows.end() || row->first != first_block + b) return false;
  }
  row = obj.rows.find(first_block);
  for (size_t b = 0; b < count; ++b, ++row) rows->push_back(row->second);
  Touch(obj);
  return true;
}

void IvCache::PutRange(uint64_t object_no, uint64_t first_block,
                       const core::IvRows& rows) {
  if (rows.empty()) return;
  if (spill_ != nullptr) spill_->JournalRows(object_no, first_block, rows);
  if (!retains()) return;  // zero capacity retains nothing
  auto [obj, created_obj] = objects_.try_emplace(object_no);
  if (created_obj) {
    lru_.push_front(object_no);
    obj->second.lru_it = lru_.begin();
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    // An empty row is the block's cleared marker and is cached as such
    // (negative entry): a reread of a fully-marked extent never reaches
    // the store.
    auto [row, created] =
        obj->second.rows.insert_or_assign(first_block + i, rows[i]);
    static_cast<void>(row);
    if (created) cached_rows_++;
  }
  Touch(obj->second);
  EvictToCapacity();
}

void IvCache::PutCleared(uint64_t object_no, uint64_t first_block,
                         size_t count) {
  if (!enabled() || count == 0) return;
  PutRange(object_no, first_block, core::IvRows(count));
}

void IvCache::InvalidateRange(uint64_t object_no, uint64_t first_block,
                              uint64_t last_block) {
  const auto it = objects_.find(object_no);
  if (it == objects_.end()) return;
  ObjectRows& obj = it->second;
  auto row = obj.rows.lower_bound(first_block);
  while (row != obj.rows.end() && row->first <= last_block) {
    row = obj.rows.erase(row);
    cached_rows_--;
    stats_.invalidations++;
  }
  if (obj.rows.empty()) {
    lru_.erase(obj.lru_it);
    objects_.erase(it);
  }
}

void IvCache::Clear() {
  objects_.clear();
  lru_.clear();
  cached_rows_ = 0;
}

void IvCache::Touch(ObjectRows& obj) {
  lru_.splice(lru_.begin(), lru_, obj.lru_it);
}

void IvCache::EvictToCapacity() {
  while (objects_.size() > config_.max_objects) {
    const uint64_t victim = lru_.back();
    lru_.pop_back();
    const auto it = objects_.find(victim);
    cached_rows_ -= it->second.rows.size();
    objects_.erase(it);
    stats_.evictions++;
  }
}

CachedExtentRead::CachedExtentRead(IvCache* cache,
                                   core::EncryptionFormat& fmt,
                                   const core::ObjectExtent& ext,
                                   const core::DiscardBitmap* zeros)
    : cache_(cache), fmt_(fmt), ext_(ext), zeros_(zeros) {
  if (cache_ != nullptr &&
      (!cache_->enabled() || !fmt_.spec().NeedsMetadata())) {
    cache_ = nullptr;
  }
  if (cache_ != nullptr &&
      cache_->TryGetRange(ext_.object_no, ext_.first_block, ext_.block_count,
                          &rows_)) {
    const bool all_cleared =
        std::all_of(rows_.begin(), rows_.end(),
                    [](const Bytes& row) { return row.empty(); });
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
    cache_->AccountHit(fmt_.MetaReadBytes(ext_));
    cache_->AccountTrimHit();
    return Status::Ok();
  }
  if (hit_) {
    VDE_RETURN_IF_ERROR(
        fmt_.FinishReadWithIvs(ext_, result, rows_, out, zeros_));
    cache_->AccountHit(fmt_.MetaReadBytes(ext_));
    return Status::Ok();
  }
  // Capture the fetched rows only when the cache can actually retain them
  // (a zero-capacity cache still counts the fetch, but skips the copies).
  const bool keep = cache_ != nullptr && cache_->retains();
  VDE_RETURN_IF_ERROR(
      fmt_.FinishRead(ext_, result, out, keep ? &rows_ : nullptr, zeros_));
  if (cache_ != nullptr) {
    cache_->AccountMiss(fmt_.MetaReadBytes(ext_));
    if (keep) cache_->PutRange(ext_.object_no, ext_.first_block, rows_);
  }
  return Status::Ok();
}

}  // namespace vde::rbd
