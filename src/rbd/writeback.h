// Per-image write-back coalescing layer between ImageRequest and the
// encryption format.
//
// Two jobs, one table:
//
//  1. Block-range guards. Every data request registers a hold over the
//     object blocks it touches, synchronously at submission time, and the
//     table admits overlapping holds strictly in registration order (shared
//     holds — reads — overlap each other freely). This serializes the
//     read-modify-write window that used to race: two concurrent sub-block
//     writes to different byte ranges of the same 4 KiB block both read the
//     old block, each overlaid only its own bytes, and the last transaction
//     won — losing the other update. Under the guard table the second
//     writer waits (or merges into the first writer's staged block), so
//     overlapping mutations apply in submission order.
//
//  2. A staging buffer. Sub-block writes park their bytes in a per-block
//     plaintext stage instead of issuing one RMW read + one encrypt +
//     one transaction each; writes to an already-staged block merge in
//     place (no store IO at all), and the stage is encrypted and written
//     out once per merge window — when a write lands on a stage older
//     than the window, under buffer pressure, or when a flush / snapshot /
//     overlapping discard forces it. N adjacent 512 B database-style
//     writes thus cost one RMW read and one transaction instead of N each
//     (the paper's worst case for length-preserving-plus-metadata
//     encryption, §3.1). Under pressure a staging miss evicts the oldest
//     stage, and that write-out runs concurrently with the miss's own RMW
//     read — a random sub-block stream, which cannot coalesce, pays one
//     round trip per write instead of two back to back. Every byte of
//     flush IO runs inside an awaited request (staging write, AioFlush,
//     SnapCreate): the eviction is joined before the staging write
//     completes, and the layer issues no detached background IO, so
//     nothing outlives its owners.
//
// Semantics: a staged write is complete in the disk-write-cache sense —
// reads of the head snapshot observe staged bytes (ImageRequest overlays
// them), AioFlush and SnapCreate are the durability barriers that drain
// the buffer. The buffer is volatile: dropping the Image loses staged
// bytes that were never flushed, exactly like powering off a disk with a
// volatile write cache.
#pragma once

#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>

#include "core/format.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "util/status.h"

namespace vde::rbd {

class Image;

struct WritebackConfig {
  // Stage sub-block writes for coalescing. Off = every write goes straight
  // through (the guard table still serializes overlapping ranges — that
  // part is correctness, not policy).
  bool coalesce = true;
  // Merge window: a write landing on a stage older than this first writes
  // the stage out (inline, under the writer's guard), then keeps merging
  // into the retained content — bounding how long a hot block's bytes stay
  // volatile while still coalescing each window into one transaction.
  sim::SimTime flush_window = 500 * sim::kUs;
  // Staged blocks per image before a staging miss must evict (flush) the
  // oldest stage. The eviction runs alongside the miss's RMW read and is
  // joined before the staging write completes; the new block is staged
  // only if both succeed. No eviction IO is detached, so request
  // completions and AioFlush cover every transaction the buffer makes.
  size_t max_staged_blocks = 256;
};

class Writeback {
 public:
  // One registered block-range hold. Opaque to callers: obtain from
  // Register(), pass to Acquire()/Release() exactly once each.
  struct Hold {
    uint64_t seq = 0;
    uint64_t object_no = 0;
    uint64_t first_block = 0;  // inclusive, object-relative
    uint64_t last_block = 0;   // inclusive
    bool exclusive = false;
    bool granted = false;
    sim::Gate gate;
  };

  Writeback(Image& image, WritebackConfig config)
      : image_(image), config_(config) {}
  Writeback(const Writeback&) = delete;
  Writeback& operator=(const Writeback&) = delete;

  // Registers a hold over [first_block, last_block] of `object_no`.
  // Admission order is registration order: call this synchronously at
  // request submission so overlapping IO serializes as the guest issued it.
  Hold* Register(uint64_t object_no, uint64_t first_block,
                 uint64_t last_block, bool exclusive);

  // Waits until the hold is admitted: no earlier live hold overlaps it,
  // unless both are shared.
  sim::Task<void> Acquire(Hold* hold);

  // Releases the hold and admits whoever it was blocking.
  void Release(Hold* hold);

  bool coalescing() const { return config_.coalesce; }
  size_t staged_blocks() const { return staged_count_; }

  // The staged plaintext for `block` (full kBlockSize bytes, current
  // logical content), or nullptr. Caller must hold a guard covering the
  // block — staged data is stable only under a hold.
  const Bytes* Staged(uint64_t object_no, uint64_t block) const;

  // Absorbs `bytes` at [offset_in_block, offset_in_block + bytes.size())
  // into the staged block, creating the stage on miss (one RMW block read
  // unless the write covers the whole block). A miss on a full buffer also
  // evicts the oldest stage, concurrently with that read; if either fails,
  // nothing is staged. Caller must hold an exclusive guard covering the
  // block.
  sim::Task<Status> StageWrite(uint64_t object_no, uint64_t block,
                               uint64_t offset_in_block, ByteSpan bytes);

  // Discards stages in [first_block, last_block]: their content was
  // either superseded (write-through overwrite) or trimmed. Caller must
  // hold an exclusive guard covering the range.
  void DropRange(uint64_t object_no, uint64_t first_block,
                 uint64_t last_block);

  // Encrypts and writes out one staged block under its own exclusive
  // hold; a no-op if the stage is already gone (someone else flushed or
  // dropped it).
  sim::Task<Status> FlushBlock(uint64_t object_no, uint64_t block);
  // Same, but the caller already holds an exclusive guard for the block.
  sim::Task<Status> FlushLocked(uint64_t object_no, uint64_t block);

  // Flushes every block staged at the time of the call (AioFlush,
  // SnapCreate). Returns the first error.
  sim::Task<Status> Drain();

 private:
  struct Stage {
    Bytes data;  // full plaintext block, current logical content
    sim::SimTime window_start = 0;  // when the current merge window opened
  };
  struct ObjectState {
    std::list<std::unique_ptr<Hold>> holds;  // registration (= seq) order
    std::map<uint64_t, Stage> stages;        // by object-relative block
  };

  static bool Overlaps(const Hold& a, const Hold& b) {
    return a.first_block <= b.last_block && b.first_block <= a.last_block;
  }
  // Admissible = no earlier-registered live hold conflicts with it.
  static bool Admissible(const Hold& hold,
                         const std::list<std::unique_ptr<Hold>>& holds);
  static void Pump(ObjectState& obj);

  // Reads + decrypts one block through Image::ReadObject (zeros for a
  // never-written object) — the single RMW read a new stage pays.
  sim::Task<Status> ReadBlock(uint64_t object_no, uint64_t block,
                              MutByteSpan out);
  // Encrypts and writes out `stage`'s content through
  // Image::CommitMutation. The caller must hold an exclusive guard
  // covering the block (its own, or a registered flush hold); the stage
  // entry itself is left to the caller.
  sim::Task<Status> WriteOutStage(uint64_t object_no, uint64_t block,
                                  const Stage& stage);
  // Pressure: when the buffer is full, registers an exclusive hold over the
  // oldest stage whose guard is free and returns it (busy stages stay
  // queued). nullptr when the buffer is not full or every stage is busy.
  Hold* PickVictim();
  // Flushes the victim under `hold`, releases it, stores the outcome in
  // `status` and signals `done`.
  sim::Task<void> Evict(Hold* hold, Status& status, sim::WaitGroup& done);
  core::ObjectExtent BlockExtent(uint64_t object_no, uint64_t block) const;
  void EraseStage(uint64_t object_no, uint64_t block);
  void MaybePrune(uint64_t object_no);

  Image& image_;
  WritebackConfig config_;
  std::unordered_map<uint64_t, ObjectState> objects_;
  // Stage creation order, for pressure eviction. Lazily pruned: entries
  // whose stage is gone are skipped.
  std::deque<std::pair<uint64_t, uint64_t>> stage_fifo_;
  size_t staged_count_ = 0;
  uint64_t next_seq_ = 0;
};

}  // namespace vde::rbd
