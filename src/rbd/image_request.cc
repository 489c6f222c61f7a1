#include "rbd/image_request.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "rbd/image.h"
#include "sim/sync.h"

namespace vde::rbd {

namespace {

using core::kBlockSize;

// A one-or-few-block sub-extent of a covering extent.
core::ObjectExtent SubExtent(const core::ObjectExtent& cover, size_t blk,
                             size_t count) {
  core::ObjectExtent e = cover;
  e.first_block = cover.first_block + blk;
  e.block_count = count;
  e.image_block = cover.image_block + blk;
  return e;
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

ImageRequest::ImageRequest(Image& image, obs::OpKind kind, uint64_t offset,
                           uint64_t length, ByteSpan src, MutByteSpan dst,
                           objstore::SnapId snap, CompletionPtr completion)
    : image_(image),
      kind_(kind),
      offset_(offset),
      length_(length),
      src_(src),
      dst_(dst),
      snap_(snap),
      completion_(std::move(completion)) {}

Status ImageRequest::Validate() const {
  if (kind_ == obs::OpKind::kFlush) return Status::Ok();
  if (length_ == 0) return Status::InvalidArgument("zero-length IO");
  if (offset_ + length_ < offset_ || offset_ + length_ > image_.size()) {
    return Status::InvalidArgument("IO past end of image");
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
      case obs::OpKind::kRead:
        holds_[i] = wb.Register(c.cover.object_no, first, last,
                                /*exclusive=*/false);
        break;
      case obs::OpKind::kWrite:
      case obs::OpKind::kWriteZeroes:
        holds_[i] = wb.Register(c.cover.object_no, first, last,
                                /*exclusive=*/true);
        break;
      case obs::OpKind::kDiscard: {
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
      case obs::OpKind::kFlush:
        break;
    }
  }
}

bool ImageRequest::StageEligible(const Chunk& chunk) const {
  if (kind_ != obs::OpKind::kWrite || !image_.writeback_->coalescing()) {
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

void ImageRequest::Submit(Image& image, obs::OpKind kind, uint64_t offset,
                          uint64_t length, ByteSpan src, MutByteSpan dst,
                          objstore::SnapId snap, CompletionPtr completion) {
  assert(completion != nullptr);
  std::unique_ptr<ImageRequest> req(new ImageRequest(
      image, kind, offset, length, src, dst, snap, std::move(completion)));
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
  if (req->kind_ != obs::OpKind::kFlush) {
    req->chunks_ = req->Chunks();
    req->RegisterHolds();
  }
  if (req->IsWriteClass()) {
    req->write_seq_ = image.BeginWriteIo();
    req->seq_assigned_ = true;
  } else if (kind == obs::OpKind::kFlush) {
    req->write_seq_ = image.next_write_seq_;  // barrier
  }
  // Observability: the trace context is born here (queue stage open) and
  // shared with the completion; Run() closes the queue stage when the
  // request coroutine actually starts. Null when disabled.
  req->trace_ = image.obs().BeginOp(kind, offset, length);
  req->completion_->set_trace(req->trace_);
  if (req->trace_ != nullptr) req->trace_->Enter(obs::Stage::kQueue);
  // Admission: an enabled QoS tenant rides the shared dispatch queue (FIFO
  // per image, so holds and flush tickets — both taken above, in submission
  // order — are owned only by requests dispatched no later than ours); a
  // disabled one, or no scheduler, spawns directly. Flushes move no data
  // and pay no tokens, but still queue FIFO behind the writes they fence.
  if (qos::Scheduler* qsched = image.qos_scheduler()) {
    const uint64_t cost = req->length_;
    const bool charge = kind != obs::OpKind::kFlush;
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
      case obs::OpKind::kRead:
        stats.reads++;
        stats.bytes_read += self->length_;
        break;
      case obs::OpKind::kWrite:
        stats.writes++;
        stats.bytes_written += self->length_;
        break;
      case obs::OpKind::kDiscard:
      case obs::OpKind::kWriteZeroes:
        stats.discards++;
        stats.bytes_discarded += self->length_;
        break;
      case obs::OpKind::kFlush:
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
    case obs::OpKind::kRead:
      co_return co_await ExecuteReadOp();
    case obs::OpKind::kWrite:
      co_return co_await ExecuteWriteOp();
    case obs::OpKind::kDiscard:
    case obs::OpKind::kWriteZeroes:
      co_return co_await ForEachChunk(&ImageRequest::DiscardChunk);
    case obs::OpKind::kFlush:
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

// Runs `step` on every chunk concurrently; the first error in chunk order
// wins.
sim::Task<Status> ImageRequest::ForEachChunk(
    sim::Task<Status> (ImageRequest::*step)(size_t)) {
  std::vector<sim::Task<Status>> tasks;
  tasks.reserve(chunks_.size());
  for (size_t i = 0; i < chunks_.size(); ++i) tasks.push_back((this->*step)(i));
  return sim::WhenAllOk(std::move(tasks));
}

// --- Read ---

sim::Task<Status> ImageRequest::ExecuteReadOp() {
  VDE_CO_RETURN_IF_ERROR(co_await ForEachChunk(&ImageRequest::ReadChunk));
  // Client-side decryption cost over the covers that actually decrypted
  // ciphertext (partial blocks are decrypted whole even if the guest asked
  // for 512 B of them); covers served from the plaintext staging buffer
  // cost nothing here, and expansion covers only blocks stored compressed.
  // Under the core model each chunk already charged a core inside
  // ReadChunk, overlapping across objects.
  if (!sim::Scheduler::Current().core_model_enabled()) {
    co_await image_.ChargeRead(
        {read_decrypted_blocks_, read_expanded_blocks_}, ctx());
  }
  co_return Status::Ok();
}

sim::Task<Status> ImageRequest::ReadChunk(size_t idx) {
  const Chunk& chunk = chunks_[idx];
  Writeback& wb = *image_.writeback_;
  {
    obs::SpanScope wb_span(ctx(), obs::Stage::kWb);
    co_await wb.Acquire(holds_[idx]);
  }
  HoldGuard held(wb, holds_[idx]);

  const size_t cover_bytes = chunk.cover.block_count * kBlockSize;
  // Block-aligned chunks decrypt straight into the caller's buffer;
  // otherwise go through a scratch cover.
  MutByteSpan out;
  Bytes scratch;
  if (chunk.byte_off == 0 && chunk.byte_len == cover_bytes) {
    out = dst_.subspan(chunk.buf_off, chunk.byte_len);
  } else {
    scratch.resize(cover_bytes);
    out = scratch;
  }
  // Completed-but-unflushed writes live in the staging buffer; the head
  // snapshot must observe them (read-your-writes under a shared hold —
  // the stage cannot change while we hold it). A cover whose every block
  // is staged needs no store read at all: the stages ARE the content —
  // the hot read-after-write path of the db workload.
  const bool head = snap_ == objstore::kHeadSnap;
  bool fully_staged = head;
  for (size_t b = 0; fully_staged && b < chunk.cover.block_count; ++b) {
    fully_staged = wb.Staged(chunk.cover.object_no,
                             chunk.cover.first_block + b) != nullptr;
  }
  if (!fully_staged) {
    const Image::BlockRead read{chunk.cover, out};
    auto counts = co_await image_.ReadObject({&read, 1}, snap_, ctx());
    VDE_CO_RETURN_IF_ERROR(counts.status());
    read_decrypted_blocks_ += counts->decrypted_blocks;
    read_expanded_blocks_ += counts->expanded_blocks;
    // Pipelined decrypt: charge this chunk's covers on the least-busy core
    // so chunks decrypt in parallel, never behind commits.
    if (sim::Scheduler::Current().core_model_enabled()) {
      co_await image_.ChargeRead(*counts, ctx());
    }
  }
  if (head) {
    for (size_t b = 0; b < chunk.cover.block_count; ++b) {
      if (const Bytes* staged =
              wb.Staged(chunk.cover.object_no, chunk.cover.first_block + b)) {
        std::memcpy(out.data() + b * kBlockSize, staged->data(), kBlockSize);
      }
    }
  }
  if (!scratch.empty()) {
    std::memcpy(dst_.data() + chunk.buf_off, scratch.data() + chunk.byte_off,
                chunk.byte_len);
  }
  // Read-populated IV rows spill into the meta journal.
  co_return co_await image_.meta_->FlushPressuredJournal();
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
    // Pay-to-try compression: MakeWrite feeds every covering block through
    // the codec, shrunk or not. Zero cost (and zero events) with no codec.
    co_await image_.ChargeStep(
        std::nullopt,
        through_bytes > 0
            ? image_.format_->IoCryptoCost(through_bytes, edge_blocks)
            : 0,
        image_.format_->CompressCost(cover_bytes), ctx());
  }
  co_return co_await ForEachChunk(&ImageRequest::WriteChunk);
}

sim::Task<Status> ImageRequest::RmwReadEdges(const Chunk& chunk,
                                             MutByteSpan head_block,
                                             MutByteSpan tail_block) {
  // Edges whose block sits in the write-back buffer read from the stage —
  // that IS the current block content, and the store copy may be stale.
  Writeback& wb = *image_.writeback_;
  std::vector<Image::BlockRead> from_store;
  auto edge = [&](size_t blk, MutByteSpan out) {
    if (out.empty()) return;
    if (const Bytes* staged =
            wb.Staged(chunk.cover.object_no, chunk.cover.first_block + blk)) {
      std::memcpy(out.data(), staged->data(), kBlockSize);
      image_.counters_.rmw_merged++;
    } else {
      from_store.push_back({SubExtent(chunk.cover, blk, 1), out});
    }
  };
  edge(0, head_block);
  edge(chunk.cover.block_count - 1, tail_block);
  if (from_store.empty()) co_return Status::Ok();
  image_.counters_.rmw_blocks += from_store.size();

  // RMW reads merge into the head, so the read step checks cleared
  // markers against the discard bitmap. Both edges ride ONE read
  // transaction, each planned against the IV rows on its own (RMW edges
  // are the hot single-block case where even the interleaved layout
  // profits).
  auto counts =
      co_await image_.ReadObject(from_store, objstore::kHeadSnap, ctx());
  VDE_CO_RETURN_IF_ERROR(counts.status());
  // A plain Sleep with the core model off; enabled, the edge decrypt takes
  // the least-busy core.
  co_await image_.ChargeRead(*counts, ctx());
  co_return Status::Ok();
}

sim::Task<Status> ImageRequest::StageChunk(const Chunk& chunk) {
  // The chunk covers one or two blocks (StageEligible); park each block's
  // slice in the write-back buffer. byte_off is always < kBlockSize by
  // construction, so the first touched block is cover-relative block 0.
  Writeback& wb = *image_.writeback_;
  const uint64_t end = chunk.byte_off + chunk.byte_len;
  for (size_t b = 0; b * kBlockSize < end; ++b) {
    const uint64_t slice_start = std::max<uint64_t>(chunk.byte_off,
                                                    b * kBlockSize);
    const uint64_t slice_end = std::min<uint64_t>(end, (b + 1) * kBlockSize);
    VDE_CO_RETURN_IF_ERROR(co_await wb.StageWrite(
        chunk.cover.object_no, chunk.cover.first_block + b,
        slice_start - b * kBlockSize,
        src_.subspan(chunk.buf_off + (slice_start - chunk.byte_off),
                     slice_end - slice_start)));
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
  if (sim::Scheduler::Current().core_model_enabled()) {
    co_await image_.ChargeStep(
        sim::ShardOf(chunk.cover.oid),
        image_.format_->IoCryptoCost(
            chunk.byte_len, PartialEdges(chunk.byte_off, chunk.byte_len,
                                         chunk.cover.block_count)),
        image_.format_->CompressCost(chunk.cover.block_count *
                                     size_t{kBlockSize}),
        ctx());
  }

  VDE_CO_RETURN_IF_ERROR(
      co_await image_.PrepareMutation(chunk.cover.object_no, ctx()));
  const bool head_partial = chunk.byte_off % kBlockSize != 0;
  const bool tail_partial = (chunk.byte_off + chunk.byte_len) % kBlockSize != 0;
  // A block-aligned chunk encrypts straight from the caller's buffer;
  // otherwise the cover is assembled in scratch, partial edges merged over
  // their current content (RMW).
  ByteSpan plain;
  Bytes scratch;
  if (!head_partial && !tail_partial) {
    plain = src_.subspan(chunk.buf_off, chunk.byte_len);
  } else {
    scratch.assign(chunk.cover.block_count * kBlockSize, 0);
    const size_t last = chunk.cover.block_count - 1;
    MutByteSpan head, tail;
    if (head_partial) head = MutByteSpan(scratch.data(), kBlockSize);
    if (tail_partial && !(head_partial && last == 0)) {
      tail = MutByteSpan(scratch.data() + last * kBlockSize, kBlockSize);
    }
    VDE_CO_RETURN_IF_ERROR(co_await RmwReadEdges(chunk, head, tail));
    std::memcpy(scratch.data() + chunk.byte_off, src_.data() + chunk.buf_off,
                chunk.byte_len);
    plain = scratch;
  }
  // Data + IV metadata (and the bitmap update, when bits flip) ride one
  // atomic per-object transaction (§3.1). Staged edge content was folded
  // in via RmwReadEdges and interior stages are overwritten outright:
  // every staged copy under the cover is superseded.
  Image::Mutation m;
  VDE_CO_RETURN_IF_ERROR(image_.format_->MakeWrite(
      chunk.cover, plain, m.txn,
      image_.IvCapture(m, chunk.cover.first_block)));
  m.written.emplace_back(chunk.cover.first_block, chunk.cover.block_count);
  co_return co_await image_.CommitMutation(
      chunk.cover.object_no, chunk.cover.oid, std::move(m), ctx());
}

// --- Discard / WriteZeroes ---

sim::Task<Status> ImageRequest::DiscardChunk(size_t idx) {
  const Chunk& chunk = chunks_[idx];
  const bool zeroes = kind_ == obs::OpKind::kWriteZeroes;
  const uint64_t start = chunk.byte_off;
  const uint64_t end = chunk.byte_off + chunk.byte_len;
  // Whole blocks inside the range, as cover-relative block indices.
  const uint64_t first_full = (start + kBlockSize - 1) / kBlockSize;
  const uint64_t end_full = end / kBlockSize;
  // TRIM granularity: discard rounds inward; a sub-block discard is a
  // no-op (and registered no hold).
  if (!zeroes && first_full >= end_full) co_return Status::Ok();
  Writeback& wb = *image_.writeback_;
  {
    obs::SpanScope wb_span(ctx(), obs::Stage::kWb);
    co_await wb.Acquire(holds_[idx]);
  }
  HoldGuard held(wb, holds_[idx]);
  // A discard of the entire object drops it outright — unless snapshots
  // pin it (the clone machinery only runs on write-class data ops).
  if (!zeroes && chunk.cover.first_block + first_full == 0 &&
      end_full - first_full == image_.blocks_per_object() &&
      image_.snaps_.empty()) {
    co_return co_await RemoveObject(chunk);
  }
  VDE_CO_RETURN_IF_ERROR(
      co_await image_.PrepareMutation(chunk.cover.object_no, ctx()));

  // Write-zeroes keeps exact byte semantics: partial edge blocks merge
  // zeros via RMW (served from the staging buffer when the block is parked
  // there) and are re-encrypted; only they are buffered. Whole blocks are
  // cleared with kZero ops. All of it rides ONE per-object transaction.
  core::EncryptionFormat& fmt = *image_.format_;
  const size_t last = chunk.cover.block_count - 1;
  Bytes head_buf, tail_buf;
  if (zeroes && start % kBlockSize != 0) head_buf.assign(kBlockSize, 0);
  if (zeroes && end % kBlockSize != 0 && !(!head_buf.empty() && last == 0)) {
    tail_buf.assign(kBlockSize, 0);
  }
  if (!head_buf.empty() || !tail_buf.empty()) {
    VDE_CO_RETURN_IF_ERROR(co_await RmwReadEdges(
        chunk, MutByteSpan(head_buf), MutByteSpan(tail_buf)));
  }
  Image::Mutation m;
  if (!head_buf.empty()) {
    // The head block covers cover-relative bytes [0, kBlockSize).
    std::fill(head_buf.begin() + static_cast<long>(start),
              head_buf.begin() +
                  static_cast<long>(std::min<uint64_t>(end, kBlockSize)),
              0);
    VDE_CO_RETURN_IF_ERROR(fmt.MakeWrite(
        SubExtent(chunk.cover, 0, 1), head_buf, m.txn,
        image_.IvCapture(m, chunk.cover.first_block)));
    m.written.emplace_back(chunk.cover.first_block, 1);
  }
  if (!tail_buf.empty()) {
    // The tail block covers [last*kBlockSize, end of cover); the zero
    // range reaches from its start to `end`.
    std::fill(tail_buf.begin(),
              tail_buf.begin() +
                  static_cast<long>(end - last * uint64_t{kBlockSize}),
              0);
    VDE_CO_RETURN_IF_ERROR(fmt.MakeWrite(
        SubExtent(chunk.cover, last, 1), tail_buf, m.txn,
        image_.IvCapture(m, chunk.cover.first_block + last)));
    m.written.emplace_back(chunk.cover.first_block + last, 1);
  }
  if (first_full < end_full) {
    fmt.MakeDiscard(SubExtent(chunk.cover, first_full, end_full - first_full),
                    m.txn);
    m.trimmed.emplace_back(chunk.cover.first_block + first_full,
                           end_full - first_full);
  }
  // One bitmap update covers both motions — edges become live (written
  // zeros), the interior becomes zero-legit (trimmed). Re-encrypted edges
  // pay their crypto on the object's core.
  if (const size_t edge_bytes = m.written.size() * kBlockSize;
      edge_bytes > 0) {
    m.crypto_cost = fmt.CryptoCost(edge_bytes);
    m.compress_cost = fmt.CompressCost(edge_bytes);
  }
  co_return co_await image_.CommitMutation(
      chunk.cover.object_no, chunk.cover.oid, std::move(m), ctx());
}

sim::Task<Status> ImageRequest::RemoveObject(const Chunk& chunk) {
  const uint64_t object_no = chunk.cover.object_no;
  if (image_.meta_->has_plane()) {
    // OnRemove bumps the object's epoch; with the plane journaling that
    // generation it must be the REAL one — load the current record first
    // (a reset-to-zero epoch would let an old sealed bitmap replay through
    // the floor check).
    VDE_CO_RETURN_IF_ERROR(co_await image_.PrepareMutation(object_no, ctx()));
  }
  objstore::Transaction txn;
  objstore::OsdOp op;
  op.type = objstore::OsdOp::Type::kRemove;
  txn.ops.push_back(std::move(op));
  txn.trace = ctx();
  auto io = image_.io();
  obs::SpanScope store_span(ctx(), obs::Stage::kStore);
  Status s = co_await io.Operate(chunk.cover.oid, std::move(txn),
                                 image_.SnapContext());
  store_span.End();
  if (!s.ok() && !s.IsNotFound()) co_return s;
  // The object (and its persisted bitmap) is gone: every block reads zeros
  // again, and rereads can zero-fill from cleared markers.
  image_.writeback_->DropRange(object_no, 0, image_.blocks_per_object() - 1);
  image_.meta_->OnRemove(object_no);
  co_return co_await image_.meta_->FlushPressuredJournal();
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
  co_return co_await image_.meta_->FlushJournal();
}

}  // namespace vde::rbd
