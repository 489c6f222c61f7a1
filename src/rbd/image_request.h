// One in-flight image I/O request (librbd's io::ImageRequest).
//
// A request maps an arbitrary byte range onto per-object block extents and
// runs every object's work concurrently. Each chunk registers a block-range
// hold with the image's write-back layer at submission time — overlapping
// ranges are admitted in submission order (serializing the read-modify-write
// window), disjoint ranges run concurrently. Sub-block writes coalesce in
// the write-back staging buffer instead of paying one RMW read + one
// transaction each; reads overlay staged bytes; discard/write-zeroes drop
// or absorb overlapping stages. The request resolves its Completion when
// everything finished (for staged writes: when the bytes are buffered —
// AioFlush is the durability barrier).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/format.h"
#include "objstore/types.h"
#include "obs/trace.h"
#include "rbd/completion.h"
#include "rbd/writeback.h"
#include "sim/task.h"

namespace vde::rbd {

class Image;

class ImageRequest {
 public:
  // Validates the request and spawns it on the sim scheduler; the
  // completion is resolved either way (immediately on validation failure).
  // `src` feeds writes, `dst` receives reads; `length` is the byte count
  // (a read's or write's buffer is `length` bytes); `snap` applies to
  // reads only.
  static void Submit(Image& image, obs::OpKind kind, uint64_t offset,
                     uint64_t length, ByteSpan src, MutByteSpan dst,
                     objstore::SnapId snap, CompletionPtr completion);

 private:
  // A byte range within one object plus the block-aligned extent covering
  // it. `byte_off` is relative to the cover's first block.
  struct Chunk {
    core::ObjectExtent cover;
    uint64_t byte_off = 0;
    uint64_t byte_len = 0;
    uint64_t buf_off = 0;  // offset into the user buffer
  };

  ImageRequest(Image& image, obs::OpKind kind, uint64_t offset, uint64_t length,
               ByteSpan src, MutByteSpan dst, objstore::SnapId snap,
               CompletionPtr completion);

  Status Validate() const;
  bool IsWriteClass() const {
    return kind_ == obs::OpKind::kWrite || kind_ == obs::OpKind::kDiscard ||
           kind_ == obs::OpKind::kWriteZeroes;
  }

  // Registers each chunk's block-range hold with the write-back layer, in
  // submission order (called synchronously from Submit). Reads take shared
  // holds; write-class ops take exclusive holds over the blocks they
  // mutate (a sub-block discard mutates nothing and holds nothing).
  void RegisterHolds();

  // Small sub-block writes park their bytes in the write-back staging
  // buffer (one RMW read + one flush transaction per block instead of one
  // per write); everything else writes through.
  bool StageEligible(const Chunk& chunk) const;

  static sim::Task<void> Run(std::unique_ptr<ImageRequest> self);
  sim::Task<Status> Execute();
  sim::Task<Status> ExecuteReadOp();
  sim::Task<Status> ExecuteWriteOp();
  sim::Task<Status> ExecuteFlushOp();
  // Runs `step` on every chunk concurrently; returns the first error.
  sim::Task<Status> ForEachChunk(
      sim::Task<Status> (ImageRequest::*step)(size_t));

  // Per-chunk work. Mutations go through Image::PrepareMutation and
  // Image::CommitMutation, block reads through Image::ReadObject.
  sim::Task<Status> ReadChunk(size_t idx);
  sim::Task<Status> WriteChunk(size_t idx);
  sim::Task<Status> DiscardChunk(size_t idx);  // kDiscard and kWriteZeroes
  sim::Task<Status> StageChunk(const Chunk& chunk);
  // Whole-object discard with no snapshot pinning it: removes the object.
  sim::Task<Status> RemoveObject(const Chunk& chunk);

  // Reads + decrypts the partial edge blocks of `chunk` — the cover's
  // first block into `head_block`, its last into `tail_block` (either may
  // be empty = not needed; pass only `head_block` when the cover is a
  // single block). Staged blocks are served from the write-back buffer;
  // the rest ride ONE read transaction per object. The caller then
  // overlays the new bytes.
  sim::Task<Status> RmwReadEdges(const Chunk& chunk, MutByteSpan head_block,
                                 MutByteSpan tail_block);

  // Splits the image byte range [offset_, offset_+length_) by object.
  std::vector<Chunk> Chunks() const;

  // Request trace, shared with the completion and the image's op tracker
  // (null with observability disabled — every use is null-safe).
  obs::TraceContext* ctx() const { return trace_.get(); }

  Image& image_;
  obs::OpKind kind_;
  uint64_t offset_;
  uint64_t length_;
  ByteSpan src_;     // write payload (empty for other kinds)
  MutByteSpan dst_;  // read destination (empty for other kinds)
  objstore::SnapId snap_;
  CompletionPtr completion_;
  std::vector<Chunk> chunks_;
  std::vector<Writeback::Hold*> holds_;  // parallel to chunks_; may be null
  uint64_t read_decrypted_blocks_ = 0;  // covers that really hit the cipher
  uint64_t read_expanded_blocks_ = 0;  // blocks decompressed for this read
  uint64_t write_seq_ = 0;  // flush-ordering ticket (write-class ops)
  bool seq_assigned_ = false;
  sim::Gate flush_gate_;
  std::shared_ptr<obs::TraceContext> trace_;
};

}  // namespace vde::rbd
