#include "rbd/image_request.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "rbd/image.h"
#include "rbd/iv_cache.h"
#include "sim/sync.h"

namespace vde::rbd {

namespace {

using core::kBlockSize;

// IoKind and obs::OpKind mirror each other so the obs module stays
// rbd-independent; keep the numeric mapping in lockstep.
static_assert(static_cast<uint8_t>(IoKind::kRead) ==
              static_cast<uint8_t>(obs::OpKind::kRead));
static_assert(static_cast<uint8_t>(IoKind::kWrite) ==
              static_cast<uint8_t>(obs::OpKind::kWrite));
static_assert(static_cast<uint8_t>(IoKind::kDiscard) ==
              static_cast<uint8_t>(obs::OpKind::kDiscard));
static_assert(static_cast<uint8_t>(IoKind::kWriteZeroes) ==
              static_cast<uint8_t>(obs::OpKind::kWriteZeroes));
static_assert(static_cast<uint8_t>(IoKind::kFlush) ==
              static_cast<uint8_t>(obs::OpKind::kFlush));

obs::OpKind ToOpKind(IoKind kind) {
  return static_cast<obs::OpKind>(static_cast<uint8_t>(kind));
}

// A one-or-few-block sub-extent of a covering extent.
core::ObjectExtent SubExtent(const core::ObjectExtent& cover, size_t blk,
                             size_t count) {
  core::ObjectExtent e = cover;
  e.first_block = cover.first_block + blk;
  e.block_count = count;
  e.image_block = cover.image_block + blk;
  return e;
}

// Walks the iovec segments overlapping [buf_off, buf_off+len), invoking
// `fn(segment_slice, offset_in_range)` per piece.
template <typename SpanT, typename Fn>
void ForEachSegment(const std::vector<SpanT>& iov, uint64_t buf_off,
                    uint64_t len, Fn&& fn) {
  uint64_t skip = buf_off;
  uint64_t done = 0;
  for (const auto& seg : iov) {
    if (done == len) break;
    if (skip >= seg.size()) {
      skip -= seg.size();
      continue;
    }
    const size_t take = std::min<size_t>(seg.size() - skip, len - done);
    fn(seg.subspan(skip, take), done);
    done += take;
    skip = 0;
  }
  assert(done == len);
}

// The single segment slice holding [buf_off, buf_off+len), or empty if the
// range spans segments.
template <typename SpanT>
SpanT ContiguousAt(const std::vector<SpanT>& iov, uint64_t buf_off,
                   uint64_t len) {
  uint64_t pos = 0;
  for (const auto& seg : iov) {
    if (buf_off < pos + seg.size()) {
      const uint64_t in_seg = buf_off - pos;
      if (in_seg + len <= seg.size()) return seg.subspan(in_seg, len);
      return {};
    }
    pos += seg.size();
  }
  return {};
}

// Partially-covered edge blocks of a write range: each pays the format's
// sub-block merge surcharge on top of streaming the payload bytes.
size_t PartialEdges(uint64_t byte_off, uint64_t byte_len, size_t block_count) {
  const bool head = byte_off % kBlockSize != 0;
  const bool tail = (byte_off + byte_len) % kBlockSize != 0;
  if (head && tail && block_count == 1) return 1;  // same block twice
  return (head ? 1 : 0) + (tail ? 1 : 0);
}

// Releases a write-back hold when the owning chunk task finishes.
class HoldGuard {
 public:
  HoldGuard(Writeback& wb, Writeback::Hold* hold) : wb_(wb), hold_(hold) {}
  HoldGuard(const HoldGuard&) = delete;
  HoldGuard& operator=(const HoldGuard&) = delete;
  ~HoldGuard() {
    if (hold_ != nullptr) wb_.Release(hold_);
  }

 private:
  Writeback& wb_;
  Writeback::Hold* hold_;
};

}  // namespace

ImageRequest::ImageRequest(Image& image, IoKind kind, uint64_t offset,
                           uint64_t length, std::vector<ByteSpan> src,
                           std::vector<MutByteSpan> dst, objstore::SnapId snap,
                           CompletionPtr completion)
    : image_(image),
      kind_(kind),
      offset_(offset),
      length_(length),
      src_(std::move(src)),
      dst_(std::move(dst)),
      snap_(snap),
      completion_(std::move(completion)) {}

Status ImageRequest::Validate() const {
  if (kind_ == IoKind::kFlush) return Status::Ok();
  if (length_ == 0) return Status::InvalidArgument("zero-length IO");
  if (offset_ + length_ < offset_ || offset_ + length_ > image_.size()) {
    return Status::InvalidArgument("IO past end of image");
  }
  uint64_t iov_len = 0;
  if (kind_ == IoKind::kRead) {
    for (const auto& seg : dst_) iov_len += seg.size();
    if (iov_len != length_) {
      return Status::InvalidArgument("read iovec size mismatch");
    }
  } else if (kind_ == IoKind::kWrite) {
    for (const auto& seg : src_) iov_len += seg.size();
    if (iov_len != length_) {
      return Status::InvalidArgument("write iovec size mismatch");
    }
  }
  return Status::Ok();
}

void ImageRequest::RegisterHolds() {
  Writeback& wb = *image_.writeback_;
  holds_.assign(chunks_.size(), nullptr);
  for (size_t i = 0; i < chunks_.size(); ++i) {
    const Chunk& c = chunks_[i];
    const uint64_t first = c.cover.first_block;
    const uint64_t last = first + c.cover.block_count - 1;
    switch (kind_) {
      case IoKind::kRead:
        holds_[i] = wb.Register(c.cover.object_no, first, last,
                                /*exclusive=*/false);
        break;
      case IoKind::kWrite:
      case IoKind::kWriteZeroes:
        holds_[i] = wb.Register(c.cover.object_no, first, last,
                                /*exclusive=*/true);
        break;
      case IoKind::kDiscard: {
        // TRIM mutates only whole blocks inside the range; a sub-block
        // discard is a no-op and must not serialize against anything.
        const uint64_t first_full =
            first + (c.byte_off + kBlockSize - 1) / kBlockSize;
        const uint64_t end_full = first + (c.byte_off + c.byte_len) / kBlockSize;
        if (first_full < end_full) {
          holds_[i] = wb.Register(c.cover.object_no, first_full, end_full - 1,
                                  /*exclusive=*/true);
        }
        break;
      }
      case IoKind::kFlush:
        break;
    }
  }
}

bool ImageRequest::StageEligible(const Chunk& chunk) const {
  if (kind_ != IoKind::kWrite || !image_.writeback_->coalescing()) {
    return false;
  }
  // Small writes with a partial edge: these are the RMW-paying chunks the
  // staging buffer absorbs. Aligned or multi-block bulk writes go straight
  // through (staging them would only copy bytes twice — and would let a
  // bulk write linger in the volatile buffer for no RMW savings).
  if (chunk.cover.block_count > 2) return false;
  const bool head_partial = chunk.byte_off % kBlockSize != 0;
  const bool tail_partial =
      (chunk.byte_off + chunk.byte_len) % kBlockSize != 0;
  return head_partial || tail_partial;
}

void ImageRequest::Submit(Image& image, IoKind kind, uint64_t offset,
                          uint64_t length, std::vector<ByteSpan> src,
                          std::vector<MutByteSpan> dst, objstore::SnapId snap,
                          CompletionPtr completion) {
  assert(completion != nullptr);
  std::unique_ptr<ImageRequest> req(
      new ImageRequest(image, kind, offset, length, std::move(src),
                       std::move(dst), snap, std::move(completion)));
  Status valid = req->Validate();
  if (!valid.ok()) {
    req->completion_->Finish(std::move(valid), 0);
    return;
  }
  // Flush ordering tickets and block-range holds are both taken in ISSUE
  // order, synchronously, before the request coroutine first runs: flush
  // barriers cover "everything issued before", and overlapping block
  // ranges are admitted in the order the guest submitted them even when
  // many requests are submitted back to back.
  if (req->kind_ != IoKind::kFlush) {
    req->chunks_ = req->Chunks();
    req->RegisterHolds();
  }
  if (req->IsWriteClass()) {
    req->write_seq_ = image.BeginWriteIo();
    req->seq_assigned_ = true;
  } else if (kind == IoKind::kFlush) {
    req->write_seq_ = image.next_write_seq_;  // barrier
  }
  // Observability: the trace context is born here (queue stage open) and
  // shared with the completion; Run() closes the queue stage when the
  // request coroutine actually starts. Null when disabled.
  req->trace_ = image.obs().BeginOp(ToOpKind(kind), offset, length);
  req->completion_->set_trace(req->trace_);
  if (req->trace_ != nullptr) req->trace_->Enter(obs::Stage::kQueue);
  // Admission: an enabled QoS tenant rides the shared dispatch queue (FIFO
  // per image, so holds and flush tickets — both taken above, in submission
  // order — are owned only by requests dispatched no later than ours); a
  // disabled one, or no scheduler, spawns directly. Flushes move no data
  // and pay no tokens, but still queue FIFO behind the writes they fence.
  if (qos::Scheduler* qsched = image.qos_scheduler()) {
    const uint64_t cost = req->length_;
    const bool charge = kind != IoKind::kFlush;
    qsched->Submit(image.qos_tenant(), cost, charge, Run(std::move(req)));
  } else {
    sim::Scheduler::Current().Spawn(Run(std::move(req)));
  }
}

sim::Task<void> ImageRequest::Run(std::unique_ptr<ImageRequest> self) {
  if (obs::TraceContext* t = self->ctx()) {
    // The queue stage spans submit -> coroutine start (zero on the
    // direct-spawn path, the qos dispatch wait otherwise).
    const sim::SimTime now = sim::Scheduler::Current().now();
    t->Exit(obs::Stage::kQueue);
    if (now > t->submit_ns()) {
      t->RecordSpan(obs::Stage::kQueue, t->submit_ns(), now - t->submit_ns());
    }
  }
  Status status = co_await self->Execute();
  if (self->seq_assigned_) self->image_.EndWriteIo(self->write_seq_);
  if (status.ok()) {
    Image::Counters& stats = self->image_.counters_;
    switch (self->kind_) {
      case IoKind::kRead:
        stats.reads++;
        stats.bytes_read += self->length_;
        break;
      case IoKind::kWrite:
        stats.writes++;
        stats.bytes_written += self->length_;
        break;
      case IoKind::kDiscard:
      case IoKind::kWriteZeroes:
        stats.discards++;
        stats.bytes_discarded += self->length_;
        break;
      case IoKind::kFlush:
        stats.flushes++;
        break;
    }
  }
  const uint64_t bytes = status.ok() ? self->length_ : 0;
  self->image_.obs().EndOp(self->trace_, sim::Scheduler::Current().now(),
                           status.ok());
  self->completion_->Finish(std::move(status), bytes);
}

sim::Task<Status> ImageRequest::Execute() {
  switch (kind_) {
    case IoKind::kRead:
      co_return co_await ExecuteReadOp();
    case IoKind::kWrite:
      co_return co_await ExecuteWriteOp();
    case IoKind::kDiscard:
    case IoKind::kWriteZeroes:
      co_return co_await ExecuteDiscardOp();
    case IoKind::kFlush:
      co_return co_await ExecuteFlushOp();
  }
  co_return Status::InvalidArgument("unknown IO kind");
}

std::vector<ImageRequest::Chunk> ImageRequest::Chunks() const {
  // Walk the striping map: each iteration takes the contiguous run the
  // layout offers at `pos`. With the default geometry (stripe_count 1) the
  // run reaches the object end and this degenerates to the legacy
  // object-per-chunk split; with striping, consecutive stripe units land
  // on different objects and fan the request out across them.
  std::vector<Chunk> chunks;
  uint64_t pos = offset_;
  const uint64_t end = offset_ + length_;
  while (pos < end) {
    const Image::StripeRun at = image_.MapOffset(pos);
    const uint64_t take = std::min(end - pos, at.run);
    const uint64_t first_block = at.in_obj / kBlockSize;
    const uint64_t block_end =
        (at.in_obj + take + kBlockSize - 1) / kBlockSize;
    Chunk c;
    c.cover.oid = image_.ObjectName(at.object_no);
    c.cover.object_no = at.object_no;
    c.cover.first_block = first_block;
    c.cover.block_count = block_end - first_block;
    // Physical block numbering: IV/tweak binding keys off the block's home
    // in the object space, independent of the guest-side stripe order.
    c.cover.image_block =
        at.object_no * image_.blocks_per_object() + first_block;
    c.byte_off = at.in_obj - first_block * kBlockSize;
    c.byte_len = take;
    c.buf_off = pos - offset_;
    chunks.push_back(std::move(c));
    pos += take;
  }
  return chunks;
}

void ImageRequest::GatherFrom(uint64_t buf_off, MutByteSpan out) const {
  ForEachSegment(src_, buf_off, out.size(),
                 [&](ByteSpan piece, uint64_t at) {
                   std::memcpy(out.data() + at, piece.data(), piece.size());
                 });
}

void ImageRequest::ScatterTo(uint64_t buf_off, ByteSpan in) {
  ForEachSegment(dst_, buf_off, in.size(),
                 [&](MutByteSpan piece, uint64_t at) {
                   std::memcpy(piece.data(), in.data() + at, piece.size());
                 });
}

// --- Read ---

sim::Task<Status> ImageRequest::ExecuteReadOp() {
  std::vector<Status> results(chunks_.size());
  std::vector<sim::Task<void>> tasks;
  for (size_t i = 0; i < chunks_.size(); ++i) {
    tasks.push_back([](ImageRequest* self, size_t idx,
                       Status* out) -> sim::Task<void> {
      *out = co_await self->ReadChunk(idx);
    }(this, i, &results[i]));
  }
  co_await sim::WhenAll(std::move(tasks));
  for (const auto& s : results) {
    if (!s.ok()) co_return s;
  }
  // Client-side decryption cost over the covers that actually decrypted
  // ciphertext (partial blocks are decrypted whole even if the guest asked
  // for 512 B of them); covers served from the plaintext staging buffer
  // cost nothing here. Under the core model each chunk already charged its
  // own core inside ReadChunk, overlapping across objects.
  if (read_decrypted_bytes_ > 0 &&
      !sim::Scheduler::Current().core_model_enabled()) {
    obs::SpanScope crypto_span(ctx(), obs::Stage::kCrypto);
    co_await sim::Sleep{image_.format_->CryptoCost(read_decrypted_bytes_)};
  }
  // Expansion of compressed blocks (only those actually stored compressed;
  // zero with compression off, so the event stream is untouched then).
  if (read_expanded_blocks_ > 0 &&
      !sim::Scheduler::Current().core_model_enabled()) {
    obs::SpanScope compress_span(ctx(), obs::Stage::kCompress);
    co_await sim::Sleep{image_.format_->DecompressCost(read_expanded_blocks_ *
                                                       kBlockSize)};
  }
  co_return Status::Ok();
}

MutByteSpan ImageRequest::ContiguousDst(uint64_t buf_off, uint64_t len) const {
  return ContiguousAt(dst_, buf_off, len);
}

sim::Task<Status> ImageRequest::ReadChunk(size_t idx) {
  const Chunk& chunk = chunks_[idx];
  Writeback& wb = *image_.writeback_;
  {
    obs::SpanScope wb_span(ctx(), obs::Stage::kWb);
    co_await wb.Acquire(holds_[idx]);
  }
  HoldGuard held(wb, holds_[idx]);

  core::EncryptionFormat& fmt = *image_.format_;
  const size_t cover_bytes = chunk.cover.block_count * kBlockSize;
  // Block-aligned chunks landing in one iovec segment decrypt straight
  // into the caller's buffer; otherwise go through a scratch cover.
  MutByteSpan out;
  Bytes scratch;
  if (chunk.byte_off == 0 && chunk.byte_len == cover_bytes) {
    out = ContiguousDst(chunk.buf_off, chunk.byte_len);
  }
  if (out.empty()) {
    scratch.resize(cover_bytes);
    out = scratch;
  }
  // Completed-but-unflushed writes live in the staging buffer; the head
  // snapshot must observe them (read-your-writes under a shared hold —
  // the stage cannot change while we hold it). A cover whose every block
  // is staged needs no store read at all: the stages ARE the content —
  // the hot read-after-write path of the db workload.
  const bool overlay = snap_ == objstore::kHeadSnap;
  bool fully_staged = overlay;
  if (overlay) {
    for (size_t b = 0; fully_staged && b < chunk.cover.block_count; ++b) {
      fully_staged = wb.Staged(chunk.cover.object_no,
                               chunk.cover.first_block + b) != nullptr;
    }
  }
  if (!fully_staged) {
    // Head reads on an authenticating format carry the object's verified
    // discard bitmap into FinishRead (the erase-channel check); snapshot
    // reads carry none — a clone's cleared blocks keep legacy semantics.
    const bool head = snap_ == objstore::kHeadSnap;
    const core::DiscardBitmap* zeros = nullptr;
    if (head && image_.trim_state_->enabled()) {
      VDE_CO_RETURN_IF_ERROR(
          co_await image_.EnsureObjectState(chunk.cover.object_no, ctx()));
      zeros = image_.trim_state_->Lookup(chunk.cover.object_no);
    }
    objstore::Transaction txn;
    // A fully-cached extent reads data-only and decrypts with the resident
    // IV rows; snapshot reads bypass the cache (rows describe the head).
    CachedExtentRead plan(head ? image_.iv_cache_.get() : nullptr, fmt,
                          chunk.cover, zeros);
    plan.AppendOps(txn);
    if (plan.zero_fill()) {
      // Every block is a resident cleared marker: the extent is TRIMmed
      // end to end and reads zeros without any store round-trip.
      VDE_CO_RETURN_IF_ERROR(plan.Finish(objstore::ReadResult{}, out));
    } else {
      auto io = image_.io();
      txn.trace = ctx();
      obs::SpanScope store_span(ctx(), obs::Stage::kStore);
      auto got =
          co_await io.OperateRead(chunk.cover.oid, std::move(txn), snap_);
      store_span.End();
      if (got.status().IsNotFound()) {
        // Never-written object: virtual disks read zeros.
        std::fill(out.begin(), out.end(), 0);
      } else if (!got.ok()) {
        co_return got.status();
      } else {
        // Finish is synchronous, so the decompressed-blocks delta around it
        // is exactly this cover's expansions (no interleaving).
        const uint64_t expanded_before =
            fmt.compress_stats().decompressed_blocks;
        VDE_CO_RETURN_IF_ERROR(plan.Finish(*got, out));
        const uint64_t expanded =
            fmt.compress_stats().decompressed_blocks - expanded_before;
        read_decrypted_bytes_ += cover_bytes;
        read_expanded_blocks_ += expanded;
        // Pipelined decrypt: charge this chunk's covers on the object's
        // core so chunks of different objects decrypt in parallel.
        sim::Scheduler& sched = sim::Scheduler::Current();
        if (sched.core_model_enabled()) {
          obs::SpanScope crypto_span(ctx(), obs::Stage::kCrypto);
          co_await sim::ChargeCpu{sim::ShardOf(chunk.cover.oid),
                                  fmt.CryptoCost(cover_bytes)};
          crypto_span.End();
          if (expanded > 0) {
            obs::SpanScope compress_span(ctx(), obs::Stage::kCompress);
            co_await sim::ChargeCpu{
                sim::ShardOf(chunk.cover.oid),
                fmt.DecompressCost(expanded * kBlockSize)};
          }
        }
      }
    }
  }
  if (overlay) {
    for (size_t b = 0; b < chunk.cover.block_count; ++b) {
      if (const Bytes* staged =
              wb.Staged(chunk.cover.object_no, chunk.cover.first_block + b)) {
        std::memcpy(out.data() + b * kBlockSize, staged->data(), kBlockSize);
      }
    }
  }
  if (!scratch.empty()) {
    ScatterTo(chunk.buf_off, ByteSpan(scratch.data() + chunk.byte_off,
                                      chunk.byte_len));
  }
  // Read-populated IV rows spill into the meta journal; commit a batch at
  // request end once enough pend (write-behind, one WAL frame per batch).
  if (image_.meta_store_ != nullptr &&
      image_.meta_store_->JournalPressure()) {
    VDE_CO_RETURN_IF_ERROR(co_await image_.meta_store_->FlushJournal());
  }
  co_return Status::Ok();
}

// --- Write ---

sim::Task<Status> ImageRequest::ExecuteWriteOp() {
  // Client-side encryption cost for the write-through chunks (modeled; the
  // bytes below are really encrypted too, which tests verify end to end).
  // Staged chunks pay their crypto at stage-creation (RMW decrypt) and
  // flush (encrypt) instead — that deferral is the coalescing win.
  // Calibrated basis: the payload bytes stream once plus a merge surcharge
  // per partial edge block — NOT every covering block in full. Under the
  // core model the charge instead happens per chunk inside WriteChunk, on
  // the target object's core, so chunks encrypt in parallel.
  if (!sim::Scheduler::Current().core_model_enabled()) {
    uint64_t through_bytes = 0;
    uint64_t cover_bytes = 0;
    size_t edge_blocks = 0;
    for (const auto& c : chunks_) {
      if (StageEligible(c)) continue;
      through_bytes += c.byte_len;
      cover_bytes += c.cover.block_count * uint64_t{kBlockSize};
      edge_blocks += PartialEdges(c.byte_off, c.byte_len,
                                  c.cover.block_count);
    }
    if (through_bytes > 0) {
      obs::SpanScope crypto_span(ctx(), obs::Stage::kCrypto);
      co_await sim::Sleep{
          image_.format_->IoCryptoCost(through_bytes, edge_blocks)};
    }
    // Pay-to-try compression: MakeWrite feeds every covering block through
    // the codec, shrunk or not. Zero cost (and zero events) with no codec.
    const sim::SimTime compress_cost =
        image_.format_->CompressCost(cover_bytes);
    if (compress_cost > 0) {
      obs::SpanScope compress_span(ctx(), obs::Stage::kCompress);
      co_await sim::Sleep{compress_cost};
    }
  }

  std::vector<Status> results(chunks_.size());
  std::vector<sim::Task<void>> tasks;
  for (size_t i = 0; i < chunks_.size(); ++i) {
    tasks.push_back([](ImageRequest* self, size_t idx,
                       Status* out) -> sim::Task<void> {
      *out = co_await self->WriteChunk(idx);
    }(this, i, &results[i]));
  }
  co_await sim::WhenAll(std::move(tasks));
  for (const auto& s : results) {
    if (!s.ok()) co_return s;
  }
  co_return Status::Ok();
}

sim::Task<Status> ImageRequest::RmwReadEdges(const Chunk& chunk,
                                             MutByteSpan head_block,
                                             MutByteSpan tail_block) {
  struct Edge {
    core::ObjectExtent ext;
    MutByteSpan out;
  };
  std::vector<Edge> edges;
  if (!head_block.empty()) {
    edges.push_back({SubExtent(chunk.cover, 0, 1), head_block});
  }
  if (!tail_block.empty()) {
    edges.push_back(
        {SubExtent(chunk.cover, chunk.cover.block_count - 1, 1), tail_block});
  }
  if (edges.empty()) co_return Status::Ok();

  // Edges whose block sits in the write-back buffer read from the stage —
  // that IS the current block content, and the store copy may be stale.
  Writeback& wb = *image_.writeback_;
  std::vector<Edge> from_store;
  for (auto& e : edges) {
    if (const Bytes* staged =
            wb.Staged(chunk.cover.object_no, e.ext.first_block)) {
      std::memcpy(e.out.data(), staged->data(), kBlockSize);
      image_.counters_.rmw_merged++;
    } else {
      from_store.push_back(e);
    }
  }
  if (from_store.empty()) co_return Status::Ok();
  image_.counters_.rmw_blocks += from_store.size();

  core::EncryptionFormat& fmt = *image_.format_;
  // RMW reads merge into the head: load + thread the discard bitmap.
  const core::DiscardBitmap* zeros = nullptr;
  if (image_.trim_state_->enabled()) {
    VDE_CO_RETURN_IF_ERROR(
        co_await image_.EnsureObjectState(chunk.cover.object_no, ctx()));
    zeros = image_.trim_state_->Lookup(chunk.cover.object_no);
  }
  // All RMW sub-reads of this object ride ONE read transaction; each edge
  // plans against the IV cache independently (RMW edges are the hot
  // single-block case where even the interleaved layout profits), and the
  // format decides what a block read needs for its layout (data+IV range,
  // IV region slice, OMAP rows). Edges resting on cleared markers plan a
  // zero-fill and consume nothing from the result — when EVERY edge does,
  // the store round-trip is skipped outright.
  objstore::Transaction txn;
  std::vector<CachedExtentRead> plans;
  plans.reserve(from_store.size());
  for (const auto& e : from_store) {
    plans.emplace_back(image_.iv_cache_.get(), fmt, e.ext, zeros);
    plans.back().AppendOps(txn);
  }
  objstore::ReadResult fetched;
  if (!txn.ops.empty()) {
    auto io = image_.io();
    txn.trace = ctx();
    obs::SpanScope store_span(ctx(), obs::Stage::kStore);
    auto got =
        co_await io.OperateRead(chunk.cover.oid, std::move(txn),
                                objstore::kHeadSnap);
    store_span.End();
    if (got.status().IsNotFound()) co_return Status::Ok();  // reads as zeros
    if (!got.ok()) co_return got.status();
    fetched = std::move(*got);
  }

  size_t data_off = 0;
  size_t decrypted_blocks = 0;
  const uint64_t expanded_before = fmt.compress_stats().decompressed_blocks;
  for (size_t i = 0; i < from_store.size(); ++i) {
    const size_t nbytes = plans[i].read_bytes();
    if (data_off + nbytes > fetched.data.size()) {
      co_return Status::IoError("short RMW read");
    }
    objstore::ReadResult slice;
    slice.data.assign(
        fetched.data.begin() + static_cast<long>(data_off),
        fetched.data.begin() + static_cast<long>(data_off + nbytes));
    slice.omap_values = fetched.omap_values;  // formats match rows by key
    data_off += nbytes;
    VDE_CO_RETURN_IF_ERROR(plans[i].Finish(slice, from_store[i].out));
    if (!plans[i].zero_fill()) decrypted_blocks++;
  }
  if (decrypted_blocks > 0) {
    // ChargeCpu degrades to Sleep with the core model off; enabled, the
    // RMW edge decrypt serializes with the object's other crypto work.
    obs::SpanScope crypto_span(ctx(), obs::Stage::kCrypto);
    co_await sim::ChargeCpu{sim::ShardOf(chunk.cover.oid),
                            fmt.CryptoCost(decrypted_blocks * kBlockSize)};
  }
  const uint64_t expanded =
      fmt.compress_stats().decompressed_blocks - expanded_before;
  if (expanded > 0) {
    obs::SpanScope compress_span(ctx(), obs::Stage::kCompress);
    co_await sim::ChargeCpu{sim::ShardOf(chunk.cover.oid),
                            fmt.DecompressCost(expanded * kBlockSize)};
  }
  co_return Status::Ok();
}

ByteSpan ImageRequest::ContiguousSrc(uint64_t buf_off, uint64_t len) const {
  return ContiguousAt(src_, buf_off, len);
}

sim::Task<Status> ImageRequest::StageChunk(const Chunk& chunk) {
  // The chunk covers one or two blocks (StageEligible); park each block's
  // slice in the write-back buffer. byte_off is always < kBlockSize by
  // construction, so the first touched block is cover-relative block 0.
  Writeback& wb = *image_.writeback_;
  const uint64_t end = chunk.byte_off + chunk.byte_len;
  Bytes tmp;
  for (size_t b = 0; b * kBlockSize < end; ++b) {
    const uint64_t slice_start = std::max<uint64_t>(chunk.byte_off,
                                                    b * kBlockSize);
    const uint64_t slice_end = std::min<uint64_t>(end, (b + 1) * kBlockSize);
    tmp.resize(slice_end - slice_start);
    GatherFrom(chunk.buf_off + (slice_start - chunk.byte_off), tmp);
    VDE_CO_RETURN_IF_ERROR(co_await wb.StageWrite(
        chunk.cover.object_no, chunk.cover.first_block + b,
        slice_start - b * kBlockSize, tmp));
  }
  co_return Status::Ok();
}

sim::Task<Status> ImageRequest::WriteChunk(size_t idx) {
  const Chunk& chunk = chunks_[idx];
  Writeback& wb = *image_.writeback_;
  {
    obs::SpanScope wb_span(ctx(), obs::Stage::kWb);
    co_await wb.Acquire(holds_[idx]);
  }
  HoldGuard held(wb, holds_[idx]);

  if (StageEligible(chunk)) {
    // Staging (and any eviction IO it triggers) is write-back work.
    obs::SpanScope wb_span(ctx(), obs::Stage::kWb);
    co_return co_await StageChunk(chunk);
  }

  // Pipelined encrypt: this chunk's payload charges the target object's
  // core before the store transaction — chunks bound for different objects
  // (striped sequential writes in particular) encrypt concurrently. With
  // the core model off, ExecuteWriteOp charged one aggregate pass already.
  {
    sim::Scheduler& sched = sim::Scheduler::Current();
    if (sched.core_model_enabled()) {
      obs::SpanScope crypto_span(ctx(), obs::Stage::kCrypto);
      co_await sim::ChargeCpu{
          sim::ShardOf(chunk.cover.oid),
          image_.format_->IoCryptoCost(
              chunk.byte_len, PartialEdges(chunk.byte_off, chunk.byte_len,
                                           chunk.cover.block_count))};
      crypto_span.End();
      const sim::SimTime compress_cost = image_.format_->CompressCost(
          chunk.cover.block_count * size_t{kBlockSize});
      if (compress_cost > 0) {
        obs::SpanScope compress_span(ctx(), obs::Stage::kCompress);
        co_await sim::ChargeCpu{sim::ShardOf(chunk.cover.oid), compress_cost};
      }
    }
  }

  core::EncryptionFormat& fmt = *image_.format_;
  TrimState& ts = *image_.trim_state_;
  const uint64_t last_block =
      chunk.cover.first_block + chunk.cover.block_count - 1;
  const size_t cover_bytes = chunk.cover.block_count * kBlockSize;
  const bool head_partial = chunk.byte_off % kBlockSize != 0;
  const bool tail_partial = (chunk.byte_off + chunk.byte_len) % kBlockSize != 0;
  // Writing makes these blocks live: if any was marked zero-legit in the
  // discard bitmap, the SAME transaction carries the updated MAC'd bitmap
  // (steady-state overwrites of live blocks stage nothing).
  const std::vector<std::pair<uint64_t, size_t>> written_range{
      {chunk.cover.first_block, chunk.cover.block_count}};
  VDE_CO_RETURN_IF_ERROR(
      co_await image_.EnsureObjectState(chunk.cover.object_no, ctx()));
  // First store mutation of the session clears the plane's clean flag
  // (write-through) so a crash cold-starts the next open.
  if (image_.meta_store_ != nullptr &&
      image_.meta_store_->NeedsDirtyMark()) {
    VDE_CO_RETURN_IF_ERROR(co_await image_.meta_store_->MarkDirty());
  }
  objstore::Transaction txn;
  core::IvRows ivs;
  core::IvRows* const ivs_out = image_.IvCapture(&ivs);
  if (!head_partial && !tail_partial) {
    // Block-aligned chunk from one iovec segment: encrypt straight from
    // the caller's buffer, no staging copy.
    const ByteSpan direct = ContiguousSrc(chunk.buf_off, chunk.byte_len);
    if (!direct.empty()) {
      VDE_CO_RETURN_IF_ERROR(fmt.MakeWrite(chunk.cover, direct, txn, ivs_out));
      auto update =
          co_await ts.Stage(chunk.cover.object_no, written_range, {}, txn);
      VDE_CO_RETURN_IF_ERROR(update.status());
      auto io = image_.io();
      txn.trace = ctx();
      obs::SpanScope store_span(ctx(), obs::Stage::kStore);
      VDE_CO_RETURN_IF_ERROR(co_await io.Operate(
          chunk.cover.oid, std::move(txn), image_.SnapContext()));
      store_span.End();
      ts.Commit(std::move(*update));
      // Any staged blocks under this cover are fully superseded.
      wb.DropRange(chunk.cover.object_no, chunk.cover.first_block, last_block);
      if (ivs_out != nullptr) {
        image_.iv_cache_->PutRange(chunk.cover.object_no,
                                   chunk.cover.first_block, ivs);
      }
      if (image_.meta_store_ != nullptr &&
          image_.meta_store_->JournalPressure()) {
        VDE_CO_RETURN_IF_ERROR(co_await image_.meta_store_->FlushJournal());
      }
      co_return Status::Ok();
    }
  }
  Bytes scratch(cover_bytes, 0);
  if (head_partial || tail_partial) {
    const size_t last = chunk.cover.block_count - 1;
    MutByteSpan head, tail;
    if (head_partial) head = MutByteSpan(scratch.data(), kBlockSize);
    if (tail_partial && !(head_partial && last == 0)) {
      tail = MutByteSpan(scratch.data() + last * kBlockSize, kBlockSize);
    }
    VDE_CO_RETURN_IF_ERROR(co_await RmwReadEdges(chunk, head, tail));
  }
  GatherFrom(chunk.buf_off,
             MutByteSpan(scratch.data() + chunk.byte_off, chunk.byte_len));
  // Re-encrypt only the touched blocks; data + IV metadata (and the
  // bitmap update, when bits flip) ride one atomic per-object transaction
  // (§3.1).
  VDE_CO_RETURN_IF_ERROR(fmt.MakeWrite(chunk.cover, scratch, txn, ivs_out));
  auto update =
      co_await ts.Stage(chunk.cover.object_no, written_range, {}, txn);
  VDE_CO_RETURN_IF_ERROR(update.status());
  auto io = image_.io();
  txn.trace = ctx();
  obs::SpanScope store_span(ctx(), obs::Stage::kStore);
  VDE_CO_RETURN_IF_ERROR(co_await io.Operate(chunk.cover.oid, std::move(txn),
                                             image_.SnapContext()));
  store_span.End();
  ts.Commit(std::move(*update));
  // Staged edge content was folded in via RmwReadEdges; interior stages
  // are overwritten outright. Either way the buffer copy is superseded.
  wb.DropRange(chunk.cover.object_no, chunk.cover.first_block, last_block);
  if (ivs_out != nullptr) {
    image_.iv_cache_->PutRange(chunk.cover.object_no, chunk.cover.first_block,
                               ivs);
  }
  if (image_.meta_store_ != nullptr &&
      image_.meta_store_->JournalPressure()) {
    VDE_CO_RETURN_IF_ERROR(co_await image_.meta_store_->FlushJournal());
  }
  co_return Status::Ok();
}

// --- Discard / WriteZeroes ---

sim::Task<Status> ImageRequest::ExecuteDiscardOp() {
  std::vector<Status> results(chunks_.size());
  std::vector<sim::Task<void>> tasks;
  for (size_t i = 0; i < chunks_.size(); ++i) {
    tasks.push_back([](ImageRequest* self, size_t idx,
                       Status* out) -> sim::Task<void> {
      *out = co_await self->DiscardChunk(idx);
    }(this, i, &results[i]));
  }
  co_await sim::WhenAll(std::move(tasks));
  for (const auto& s : results) {
    if (!s.ok()) co_return s;
  }
  co_return Status::Ok();
}

sim::Task<Status> ImageRequest::DiscardChunk(size_t idx) {
  const Chunk& chunk = chunks_[idx];
  Writeback& wb = *image_.writeback_;
  core::EncryptionFormat& fmt = *image_.format_;
  auto io = image_.io();
  const uint64_t start = chunk.byte_off;
  const uint64_t end = chunk.byte_off + chunk.byte_len;
  // Whole blocks inside the range, as cover-relative block indices.
  const uint64_t first_full = (start + kBlockSize - 1) / kBlockSize;
  const uint64_t end_full = end / kBlockSize;

  if (kind_ == IoKind::kDiscard) {
    // TRIM granularity: round inward; a sub-block discard is a no-op (and
    // registered no hold).
    if (first_full >= end_full) co_return Status::Ok();
    {
      obs::SpanScope wb_span(ctx(), obs::Stage::kWb);
      co_await wb.Acquire(holds_[idx]);
    }
    HoldGuard held(wb, holds_[idx]);
    const auto ext =
        SubExtent(chunk.cover, first_full, end_full - first_full);
    // A discard of the entire object drops it outright — unless snapshots
    // pin it (the clone machinery only runs on write-class data ops).
    if (ext.first_block == 0 &&
        ext.block_count == image_.blocks_per_object() &&
        image_.snaps_.empty()) {
      if (image_.meta_store_ != nullptr) {
        // OnRemove bumps the object's epoch; with the plane journaling
        // that generation it must be the REAL one — load the current
        // record first (a reset-to-zero epoch would let an old sealed
        // bitmap replay through the floor check).
        VDE_CO_RETURN_IF_ERROR(
            co_await image_.EnsureObjectState(chunk.cover.object_no, ctx()));
        if (image_.meta_store_->NeedsDirtyMark()) {
          VDE_CO_RETURN_IF_ERROR(co_await image_.meta_store_->MarkDirty());
        }
      }
      objstore::Transaction txn;
      objstore::OsdOp op;
      op.type = objstore::OsdOp::Type::kRemove;
      txn.ops.push_back(std::move(op));
      txn.trace = ctx();
      obs::SpanScope store_span(ctx(), obs::Stage::kStore);
      Status s = co_await io.Operate(chunk.cover.oid, std::move(txn),
                                     image_.SnapContext());
      store_span.End();
      if (!s.ok() && !s.IsNotFound()) co_return s;
      wb.DropRange(chunk.cover.object_no, ext.first_block,
                   ext.first_block + ext.block_count - 1);
      // The object (and its persisted bitmap) is gone: every block reads
      // zeros again, and rereads can zero-fill from cleared markers.
      image_.trim_state_->OnRemove(chunk.cover.object_no);
      image_.iv_cache_->PutCleared(chunk.cover.object_no, 0,
                                   image_.blocks_per_object());
      // AFTER PutCleared: the cleared markers it spilled are the last rows
      // this object journals, and the plane GCs them (with the sealed
      // bitmap) at Close — only the epoch floor survives a removed object.
      if (image_.meta_store_ != nullptr) {
        image_.meta_store_->OnObjectRemoved(chunk.cover.object_no);
      }
      if (image_.meta_store_ != nullptr &&
          image_.meta_store_->JournalPressure()) {
        VDE_CO_RETURN_IF_ERROR(co_await image_.meta_store_->FlushJournal());
      }
      co_return Status::Ok();
    }
    VDE_CO_RETURN_IF_ERROR(
        co_await image_.EnsureObjectState(chunk.cover.object_no, ctx()));
    if (image_.meta_store_ != nullptr &&
        image_.meta_store_->NeedsDirtyMark()) {
      VDE_CO_RETURN_IF_ERROR(co_await image_.meta_store_->MarkDirty());
    }
    objstore::Transaction txn;
    fmt.MakeDiscard(ext, txn);
    // The trimmed blocks become zero-legit: the MAC'd bitmap update rides
    // the same atomic transaction as the trim itself.
    const std::vector<std::pair<uint64_t, size_t>> trimmed_range{
        {ext.first_block, ext.block_count}};
    auto update = co_await image_.trim_state_->Stage(chunk.cover.object_no,
                                                     {}, trimmed_range, txn);
    VDE_CO_RETURN_IF_ERROR(update.status());
    txn.trace = ctx();
    obs::SpanScope store_span(ctx(), obs::Stage::kStore);
    VDE_CO_RETURN_IF_ERROR(co_await io.Operate(chunk.cover.oid,
                                               std::move(txn),
                                               image_.SnapContext()));
    store_span.End();
    image_.trim_state_->Commit(std::move(*update));
    // Trimmed blocks read zeros from now on; drop their staged copies so
    // a later flush cannot resurrect the data, then cache cleared markers
    // so warmed rereads of the range never reach the store.
    wb.DropRange(chunk.cover.object_no, ext.first_block,
                 ext.first_block + ext.block_count - 1);
    image_.iv_cache_->PutCleared(chunk.cover.object_no, ext.first_block,
                                 ext.block_count);
    if (image_.meta_store_ != nullptr &&
        image_.meta_store_->JournalPressure()) {
      VDE_CO_RETURN_IF_ERROR(co_await image_.meta_store_->FlushJournal());
    }
    co_return Status::Ok();
  }

  // Write-zeroes: exact byte semantics. Whole blocks are cleared with kZero
  // ops; partial edge blocks merge zeros via RMW (served from the staging
  // buffer when the block is parked there) and are re-encrypted. All of it
  // rides ONE per-object transaction. Only the edge blocks are buffered —
  // the interior needs no staging at all.
  {
    obs::SpanScope wb_span(ctx(), obs::Stage::kWb);
    co_await wb.Acquire(holds_[idx]);
  }
  HoldGuard held(wb, holds_[idx]);
  VDE_CO_RETURN_IF_ERROR(
      co_await image_.EnsureObjectState(chunk.cover.object_no, ctx()));
  if (image_.meta_store_ != nullptr &&
      image_.meta_store_->NeedsDirtyMark()) {
    VDE_CO_RETURN_IF_ERROR(co_await image_.meta_store_->MarkDirty());
  }
  const bool head_partial = start % kBlockSize != 0;
  const bool tail_partial = end % kBlockSize != 0;
  const size_t last = chunk.cover.block_count - 1;
  Bytes head_buf, tail_buf;
  if (head_partial) head_buf.assign(kBlockSize, 0);
  if (tail_partial && !(head_partial && last == 0)) {
    tail_buf.assign(kBlockSize, 0);
  }
  objstore::Transaction txn;
  size_t edge_blocks = 0;
  std::vector<std::pair<uint64_t, size_t>> edge_written;
  core::IvRows head_ivs, tail_ivs;
  if (!head_buf.empty() || !tail_buf.empty()) {
    VDE_CO_RETURN_IF_ERROR(co_await RmwReadEdges(
        chunk, MutByteSpan(head_buf), MutByteSpan(tail_buf)));
    if (!head_buf.empty()) {
      // The head block covers cover-relative bytes [0, kBlockSize).
      std::fill(head_buf.begin() + static_cast<long>(start),
                head_buf.begin() +
                    static_cast<long>(std::min<uint64_t>(end, kBlockSize)),
                0);
      VDE_CO_RETURN_IF_ERROR(fmt.MakeWrite(SubExtent(chunk.cover, 0, 1),
                                           ByteSpan(head_buf), txn,
                                           image_.IvCapture(&head_ivs)));
      edge_written.emplace_back(chunk.cover.first_block, 1);
      edge_blocks++;
    }
    if (!tail_buf.empty()) {
      // The tail block covers [last*kBlockSize, end of cover); the zero
      // range reaches from its start to `end`.
      std::fill(tail_buf.begin(),
                tail_buf.begin() +
                    static_cast<long>(end - last * uint64_t{kBlockSize}),
                0);
      VDE_CO_RETURN_IF_ERROR(fmt.MakeWrite(SubExtent(chunk.cover, last, 1),
                                           ByteSpan(tail_buf), txn,
                                           image_.IvCapture(&tail_ivs)));
      edge_written.emplace_back(chunk.cover.first_block + last, 1);
      edge_blocks++;
    }
  }
  if (first_full < end_full) {
    fmt.MakeDiscard(SubExtent(chunk.cover, first_full, end_full - first_full),
                    txn);
  }
  // One bitmap update covers both motions — edges become live (written
  // zeros), the interior becomes zero-legit (trimmed) — and rides the same
  // atomic transaction.
  std::vector<std::pair<uint64_t, size_t>> trimmed_range;
  if (first_full < end_full) {
    trimmed_range.emplace_back(chunk.cover.first_block + first_full,
                               end_full - first_full);
  }
  auto update = co_await image_.trim_state_->Stage(
      chunk.cover.object_no, edge_written, trimmed_range, txn);
  VDE_CO_RETURN_IF_ERROR(update.status());
  if (edge_blocks > 0) {
    obs::SpanScope crypto_span(ctx(), obs::Stage::kCrypto);
    co_await sim::ChargeCpu{sim::ShardOf(chunk.cover.oid),
                            fmt.CryptoCost(edge_blocks * kBlockSize)};
    crypto_span.End();
    const sim::SimTime compress_cost =
        fmt.CompressCost(edge_blocks * size_t{kBlockSize});
    if (compress_cost > 0) {
      obs::SpanScope compress_span(ctx(), obs::Stage::kCompress);
      co_await sim::ChargeCpu{sim::ShardOf(chunk.cover.oid), compress_cost};
    }
  }
  txn.trace = ctx();
  obs::SpanScope store_span(ctx(), obs::Stage::kStore);
  VDE_CO_RETURN_IF_ERROR(co_await io.Operate(chunk.cover.oid, std::move(txn),
                                             image_.SnapContext()));
  store_span.End();
  image_.trim_state_->Commit(std::move(*update));
  // Edge stages were folded into the zeroed blocks, interior stages are
  // cleared in the store: every staged copy under the cover is superseded
  // (DropRange also invalidates the cleared blocks' cached IV rows — the
  // re-encrypted edges get their fresh rows back right after, and the
  // trimmed interior gets cleared markers).
  wb.DropRange(chunk.cover.object_no, chunk.cover.first_block,
               chunk.cover.first_block + chunk.cover.block_count - 1);
  if (first_full < end_full) {
    image_.iv_cache_->PutCleared(chunk.cover.object_no,
                                 chunk.cover.first_block + first_full,
                                 end_full - first_full);
  }
  if (!head_ivs.empty()) {
    image_.iv_cache_->PutRange(chunk.cover.object_no, chunk.cover.first_block,
                               head_ivs);
  }
  if (!tail_ivs.empty()) {
    image_.iv_cache_->PutRange(chunk.cover.object_no,
                               chunk.cover.first_block + last, tail_ivs);
  }
  if (image_.meta_store_ != nullptr &&
      image_.meta_store_->JournalPressure()) {
    VDE_CO_RETURN_IF_ERROR(co_await image_.meta_store_->FlushJournal());
  }
  co_return Status::Ok();
}

// --- Flush ---

sim::Task<Status> ImageRequest::ExecuteFlushOp() {
  // The whole barrier — waiting out earlier writes, draining the staging
  // buffer, committing the meta journal — is write-back work.
  obs::SpanScope wb_span(ctx(), obs::Stage::kWb);
  // write_seq_ holds the barrier: every write-class ticket below it must
  // retire before the flush resolves. A retired staged write may still sit
  // in the volatile write-back buffer — drain it; flush is the durability
  // barrier.
  if (!image_.WritesRetiredBelow(write_seq_)) {
    image_.AddFlushWaiter(write_seq_, &flush_gate_);
    co_await flush_gate_.Wait();
  }
  VDE_CO_RETURN_IF_ERROR(co_await image_.writeback_->Drain());
  // A flush is also the metadata plane's durability point: pending journal
  // rows commit regardless of pressure.
  if (image_.meta_store_ != nullptr) {
    VDE_CO_RETURN_IF_ERROR(co_await image_.meta_store_->FlushJournal());
  }
  co_return Status::Ok();
}

}  // namespace vde::rbd
