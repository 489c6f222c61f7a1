#include "rbd/writeback.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "rbd/image.h"
#include "rbd/iv_cache.h"

namespace vde::rbd {

using core::kBlockSize;

// --- Block-range guards ---

Writeback::Hold* Writeback::Register(uint64_t object_no, uint64_t first_block,
                                     uint64_t last_block, bool exclusive) {
  assert(first_block <= last_block);
  ObjectState& obj = objects_[object_no];
  auto hold = std::make_unique<Hold>();
  hold->seq = next_seq_++;
  hold->object_no = object_no;
  hold->first_block = first_block;
  hold->last_block = last_block;
  hold->exclusive = exclusive;
  hold->granted = Admissible(*hold, obj.holds);
  Hold* raw = hold.get();
  obj.holds.push_back(std::move(hold));
  return raw;
}

bool Writeback::Admissible(const Hold& hold,
                           const std::list<std::unique_ptr<Hold>>& holds) {
  // `holds` is registration-ordered; only earlier holds can block this one.
  // (At Register time the hold is not in the list yet: every entry is
  // earlier and the loop scans them all.)
  for (const auto& other : holds) {
    if (other.get() == &hold || other->seq > hold.seq) break;
    if (Overlaps(hold, *other) && (hold.exclusive || other->exclusive)) {
      return false;
    }
  }
  return true;
}

sim::Task<void> Writeback::Acquire(Hold* hold) {
  if (!hold->granted) co_await hold->gate.Wait();
  assert(hold->granted);
}

void Writeback::Release(Hold* hold) {
  auto it = objects_.find(hold->object_no);
  assert(it != objects_.end());
  ObjectState& obj = it->second;
  const uint64_t object_no = hold->object_no;
  obj.holds.remove_if(
      [hold](const std::unique_ptr<Hold>& h) { return h.get() == hold; });
  Pump(obj);
  MaybePrune(object_no);
}

void Writeback::Pump(ObjectState& obj) {
  // Admit in registration order; a still-blocked hold keeps blocking later
  // overlapping ones, but later disjoint holds may proceed.
  for (auto& hold : obj.holds) {
    if (hold->granted) continue;
    if (Admissible(*hold, obj.holds)) {
      hold->granted = true;
      hold->gate.Fire();
    }
  }
}

// --- Staging buffer ---

const Bytes* Writeback::Staged(uint64_t object_no, uint64_t block) const {
  const auto it = objects_.find(object_no);
  if (it == objects_.end()) return nullptr;
  const auto st = it->second.stages.find(block);
  return st == it->second.stages.end() ? nullptr : &st->second.data;
}

core::ObjectExtent Writeback::BlockExtent(uint64_t object_no,
                                          uint64_t block) const {
  core::ObjectExtent ext;
  ext.oid = image_.ObjectName(object_no);
  ext.object_no = object_no;
  ext.first_block = block;
  ext.block_count = 1;
  ext.image_block = object_no * image_.blocks_per_object() + block;
  return ext;
}

sim::Task<Status> Writeback::ReadBlock(uint64_t object_no, uint64_t block,
                                       MutByteSpan out) {
  core::EncryptionFormat& fmt = *image_.format_;
  const core::ObjectExtent ext = BlockExtent(object_no, block);
  const core::DiscardBitmap* zeros = nullptr;
  if (image_.trim_state_->enabled()) {
    VDE_CO_RETURN_IF_ERROR(co_await image_.trim_state_->Ensure(object_no));
    zeros = image_.trim_state_->Lookup(object_no);
  }
  objstore::Transaction txn;
  // Single-block RMW read: the IV-cache sweet spot — every layout profits
  // from skipping the metadata fetch here, including the interleaved one
  // (and a resident cleared marker skips the store outright).
  CachedExtentRead plan(image_.iv_cache_.get(), fmt, ext, zeros);
  plan.AppendOps(txn);
  image_.counters_.rmw_blocks++;
  if (plan.zero_fill()) {
    VDE_CO_RETURN_IF_ERROR(plan.Finish(objstore::ReadResult{}, out));
    co_return Status::Ok();
  }
  auto io = image_.io();
  auto got = co_await io.OperateRead(ext.oid, std::move(txn),
                                     objstore::kHeadSnap);
  if (got.status().IsNotFound()) {
    std::fill(out.begin(), out.end(), 0);  // never-written: reads zeros
    co_return Status::Ok();
  }
  if (!got.ok()) co_return got.status();
  const uint64_t expanded_before = fmt.compress_stats().decompressed_blocks;
  VDE_CO_RETURN_IF_ERROR(plan.Finish(*got, out));
  // Decrypt on the object's core (plain Sleep with the core model off).
  co_await sim::ChargeCpu{sim::ShardOf(ext.oid), fmt.CryptoCost(kBlockSize)};
  if (fmt.compress_stats().decompressed_blocks > expanded_before) {
    co_await sim::ChargeCpu{sim::ShardOf(ext.oid),
                            fmt.DecompressCost(kBlockSize)};
  }
  co_return Status::Ok();
}

sim::Task<Status> Writeback::StageWrite(uint64_t object_no, uint64_t block,
                                        uint64_t offset_in_block,
                                        ByteSpan bytes) {
  assert(offset_in_block + bytes.size() <= kBlockSize);
  {
    // References into objects_ stay valid across awaits (unordered_map and
    // map both guarantee element stability), and no one can drop THIS
    // stage concurrently — the caller holds the block's exclusive guard.
    ObjectState& obj = objects_[object_no];
    auto it = obj.stages.find(block);
    if (it != obj.stages.end()) {
      Stage& stage = it->second;
      const sim::SimTime now = sim::Scheduler::Current().now();
      if (now - stage.window_start > config_.flush_window) {
        // Merge window closed: write the accumulated content out (inline,
        // under the caller's guard), then keep merging into the retained
        // block — the next window coalesces on top of it with no re-read.
        VDE_CO_RETURN_IF_ERROR(co_await WriteOutStage(object_no, block,
                                                      stage));
        image_.counters_.wb_flushes++;
        stage.window_start = sim::Scheduler::Current().now();
      }
      std::memcpy(stage.data.data() + offset_in_block, bytes.data(),
                  bytes.size());
      image_.counters_.wb_hits++;
      co_return Status::Ok();
    }
  }
  Stage stage;
  stage.data.assign(kBlockSize, 0);
  if (bytes.size() < kBlockSize) {
    // The stage must hold the block's full logical content so merges and
    // read overlays are plain memcpys from here on.
    VDE_CO_RETURN_IF_ERROR(co_await ReadBlock(object_no, block, stage.data));
  }
  std::memcpy(stage.data.data() + offset_in_block, bytes.data(),
              bytes.size());
  stage.window_start = sim::Scheduler::Current().now();
  objects_[object_no].stages.emplace(block, std::move(stage));
  staged_count_++;
  image_.counters_.wb_stages++;
  stage_fifo_.emplace_back(object_no, block);
  // Entries whose stage was flushed or dropped linger in the fifo (lazy
  // pruning); compact before it can grow without bound.
  if (stage_fifo_.size() > 4 * config_.max_staged_blocks &&
      stage_fifo_.size() > 2 * staged_count_) {
    std::deque<std::pair<uint64_t, uint64_t>> live;
    for (const auto& [o, b] : stage_fifo_) {
      if (Staged(o, b) != nullptr) live.emplace_back(o, b);
    }
    stage_fifo_.swap(live);
  }
  if (staged_count_ > config_.max_staged_blocks) {
    // Pressure: evict the oldest staged block whose guard is free, inline,
    // so the eviction IO is covered by this write's completion. Eviction
    // must never WAIT for a guard — the caller already holds one, and a
    // blocked wait here deadlocks (against the caller's own multi-block
    // hold, or ABBA against a concurrent staging writer). If the oldest
    // candidate is busy, skip this round; the merge window and the next
    // barrier catch up.
    while (!stage_fifo_.empty()) {
      const auto [o, b] = stage_fifo_.front();
      if (Staged(o, b) == nullptr) {
        stage_fifo_.pop_front();  // stale entry
        continue;
      }
      if (o == object_no && b == block) break;  // only our own stage left
      Hold* hold = Register(o, b, b, /*exclusive=*/true);
      if (!hold->granted) {
        Release(hold);  // busy: do not wait while holding our own guard
        break;
      }
      stage_fifo_.pop_front();
      const Status flushed = co_await FlushLocked(o, b);
      Release(hold);
      if (!flushed.ok()) {
        // The stage survived the failed flush; put its fifo entry back so
        // it stays evictable (no yield between Release and here, so no
        // other eviction pass can have re-listed it).
        stage_fifo_.emplace_front(o, b);
        co_return flushed;
      }
      break;
    }
  }
  co_return Status::Ok();
}

void Writeback::DropRange(uint64_t object_no, uint64_t first_block,
                          uint64_t last_block) {
  // The store content of these blocks was superseded (overwrite) or
  // trimmed (discard/write-zeroes/remove): cached IV rows go stale with
  // the staged copies and ride the same invalidation. Overwrite paths put
  // their fresh rows back right after the transaction commits.
  image_.iv_cache_->InvalidateRange(object_no, first_block, last_block);
  auto it = objects_.find(object_no);
  if (it == objects_.end()) return;
  auto& stages = it->second.stages;
  auto st = stages.lower_bound(first_block);
  while (st != stages.end() && st->first <= last_block) {
    st = stages.erase(st);
    staged_count_--;
  }
  MaybePrune(object_no);
}

void Writeback::EraseStage(uint64_t object_no, uint64_t block) {
  auto it = objects_.find(object_no);
  if (it == objects_.end()) return;
  if (it->second.stages.erase(block) > 0) staged_count_--;
  MaybePrune(object_no);
}

void Writeback::MaybePrune(uint64_t object_no) {
  auto it = objects_.find(object_no);
  if (it != objects_.end() && it->second.holds.empty() &&
      it->second.stages.empty()) {
    objects_.erase(it);
  }
}

sim::Task<Status> Writeback::WriteOutStage(uint64_t object_no, uint64_t block,
                                           const Stage& stage) {
  core::EncryptionFormat& fmt = *image_.format_;
  VDE_CO_RETURN_IF_ERROR(co_await image_.EnsureObjectState(object_no));
  // Stage flushes are store mutations too: clear the plane's clean flag
  // before the first one of the session commits.
  if (image_.meta_store_ != nullptr &&
      image_.meta_store_->NeedsDirtyMark()) {
    VDE_CO_RETURN_IF_ERROR(co_await image_.meta_store_->MarkDirty());
  }
  objstore::Transaction txn;
  core::IvRows ivs;
  core::IvRows* const ivs_out = image_.IvCapture(&ivs);
  VDE_CO_RETURN_IF_ERROR(
      fmt.MakeWrite(BlockExtent(object_no, block), stage.data, txn, ivs_out));
  // First flush of a fresh or trimmed block flips its zero-legit bit: the
  // MAC'd bitmap update rides the same transaction.
  const std::vector<std::pair<uint64_t, size_t>> written_range{{block, 1}};
  auto update =
      co_await image_.trim_state_->Stage(object_no, written_range, {}, txn);
  VDE_CO_RETURN_IF_ERROR(update.status());
  // Flush-time encrypt charges the object's core (plain Sleep when off).
  co_await sim::ChargeCpu{sim::ShardOf(image_.ObjectName(object_no)),
                          fmt.CryptoCost(kBlockSize)};
  if (const sim::SimTime compress_cost = fmt.CompressCost(kBlockSize);
      compress_cost > 0) {
    co_await sim::ChargeCpu{sim::ShardOf(image_.ObjectName(object_no)),
                            compress_cost};
  }
  auto io = image_.io();
  Status applied = co_await io.Operate(image_.ObjectName(object_no),
                                       std::move(txn), image_.SnapContext());
  // Flush and snapshot drains funnel through here: the freshly persisted
  // IV replaces the stale cached row in the same breath, so a barrier
  // never leaves a row pointing at overwritten ciphertext.
  if (applied.ok()) {
    image_.trim_state_->Commit(std::move(*update));
    if (ivs_out != nullptr) {
      image_.iv_cache_->PutRange(object_no, block, ivs);
    }
    if (image_.meta_store_ != nullptr &&
        image_.meta_store_->JournalPressure()) {
      VDE_CO_RETURN_IF_ERROR(co_await image_.meta_store_->FlushJournal());
    }
  }
  co_return applied;
}

sim::Task<Status> Writeback::FlushLocked(uint64_t object_no, uint64_t block) {
  const auto it = objects_.find(object_no);
  if (it == objects_.end()) co_return Status::Ok();
  const auto st = it->second.stages.find(block);
  if (st == it->second.stages.end()) co_return Status::Ok();
  VDE_CO_RETURN_IF_ERROR(co_await WriteOutStage(object_no, block, st->second));
  EraseStage(object_no, block);
  image_.counters_.wb_flushes++;
  co_return Status::Ok();
}

sim::Task<Status> Writeback::FlushBlock(uint64_t object_no, uint64_t block) {
  Hold* hold = Register(object_no, block, block, /*exclusive=*/true);
  co_await Acquire(hold);
  Status status = co_await FlushLocked(object_no, block);
  Release(hold);
  co_return status;
}

sim::Task<Status> Writeback::Drain() {
  // Snapshot the staged set: blocks staged by writes issued after the
  // barrier belong to the next flush.
  std::vector<std::pair<uint64_t, uint64_t>> blocks;
  for (const auto& [object_no, obj] : objects_) {
    for (const auto& [block, stage] : obj.stages) {
      blocks.emplace_back(object_no, block);
    }
  }
  std::vector<Status> results(blocks.size());
  std::vector<sim::Task<void>> tasks;
  for (size_t i = 0; i < blocks.size(); ++i) {
    tasks.push_back([](Writeback* self, uint64_t object_no, uint64_t block,
                       Status* out) -> sim::Task<void> {
      *out = co_await self->FlushBlock(object_no, block);
    }(this, blocks[i].first, blocks[i].second, &results[i]));
  }
  co_await sim::WhenAll(std::move(tasks));
  for (auto& s : results) {
    if (!s.ok()) co_return s;
  }
  co_return Status::Ok();
}

}  // namespace vde::rbd
