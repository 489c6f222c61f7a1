#include "rbd/writeback.h"

#include <cassert>
#include <cstring>

#include "rbd/image.h"

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
  // Single-block RMW read: the IV-cache sweet spot — every layout profits
  // from skipping the metadata fetch here, including the interleaved one
  // (and a resident cleared marker skips the store outright).
  image_.counters_.rmw_blocks++;
  const Image::BlockRead read{BlockExtent(object_no, block), out};
  auto counts = co_await image_.ReadObject({&read, 1}, objstore::kHeadSnap,
                                           /*trace=*/nullptr);
  VDE_CO_RETURN_IF_ERROR(counts.status());
  // Decrypt on the least-busy core (plain Sleep with the core model off).
  co_await image_.ChargeRead(*counts, /*trace=*/nullptr);
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
  // Miss. Under pressure the oldest stage makes room, and its write-out
  // runs while this block's RMW read is in flight: two independent round
  // trips overlap, and both finish inside this awaited write.
  Status evicted;
  sim::WaitGroup evicting;
  if (Hold* victim = PickVictim()) {
    evicting.Add();
    sim::Scheduler::Current().Spawn(Evict(victim, evicted, evicting));
  }
  Stage stage{Bytes(kBlockSize, 0)};
  Status read;
  if (bytes.size() < kBlockSize) {
    // The stage must hold the block's full logical content so merges and
    // read overlays are plain memcpys from here on.
    read = co_await ReadBlock(object_no, block, stage.data);
  }
  co_await evicting.Wait();
  VDE_CO_RETURN_IF_ERROR(evicted);
  VDE_CO_RETURN_IF_ERROR(read);
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
    std::erase_if(stage_fifo_, [this](const auto& entry) {
      return Staged(entry.first, entry.second) == nullptr;
    });
  }
  co_return Status::Ok();
}

Writeback::Hold* Writeback::PickVictim() {
  if (staged_count_ < config_.max_staged_blocks) return nullptr;
  // The oldest live stage whose guard is free, under an exclusive hold
  // registered now. Never WAIT for a guard: the caller already holds one,
  // and a blocked wait deadlocks (against the caller's own multi-block
  // hold, or ABBA against a concurrent staging writer). Busy stages stay
  // queued where they are, so the buffer never grows past the limit by
  // more than the stages in-flight requests hold.
  for (auto it = stage_fifo_.begin(); it != stage_fifo_.end();) {
    const auto [o, b] = *it;
    if (Staged(o, b) == nullptr) {
      it = stage_fifo_.erase(it);  // stale entry
      continue;
    }
    Hold* hold = Register(o, b, b, /*exclusive=*/true);
    if (hold->granted) {
      stage_fifo_.erase(it);
      return hold;
    }
    Release(hold);
    ++it;
  }
  return nullptr;
}

sim::Task<void> Writeback::Evict(Hold* hold, Status& status,
                                 sim::WaitGroup& done) {
  const uint64_t o = hold->object_no, b = hold->first_block;
  status = co_await FlushLocked(o, b);
  Release(hold);
  if (status.ok()) {
    image_.counters_.wb_evictions++;
  } else {
    stage_fifo_.emplace_front(o, b);  // the stage survived: keep it evictable
  }
  done.Done();
}

void Writeback::DropRange(uint64_t object_no, uint64_t first_block,
                          uint64_t last_block) {
  // The store content of these blocks was superseded (overwrite) or
  // trimmed (discard/write-zeroes/remove): cached IV rows go stale with
  // the staged copies and ride the same invalidation. Overwrite paths put
  // their fresh rows back right after the transaction commits.
  image_.meta_->InvalidateRange(object_no, first_block, last_block);
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
  VDE_CO_RETURN_IF_ERROR(
      co_await image_.PrepareMutation(object_no, /*trace=*/nullptr));
  core::EncryptionFormat& fmt = *image_.format_;
  const core::ObjectExtent ext = BlockExtent(object_no, block);
  // First flush of a fresh or trimmed block flips its zero-legit bit (the
  // bitmap update rides the same transaction); the flush-time encrypt
  // charges the object's core. The stage entry itself is the caller's.
  Image::Mutation m;
  VDE_CO_RETURN_IF_ERROR(
      fmt.MakeWrite(ext, stage.data, m.txn, image_.IvCapture(m, block)));
  m.written.emplace_back(block, 1);
  m.drop_stages = false;
  m.crypto_cost = fmt.CryptoCost(kBlockSize);
  m.compress_cost = fmt.CompressCost(kBlockSize);
  co_return co_await image_.CommitMutation(object_no, ext.oid, std::move(m),
                                           /*trace=*/nullptr);
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
  std::vector<sim::Task<Status>> tasks;
  tasks.reserve(blocks.size());
  for (const auto& [object_no, block] : blocks) {
    tasks.push_back(FlushBlock(object_no, block));
  }
  co_return co_await sim::WhenAllOk(std::move(tasks));
}

}  // namespace vde::rbd
