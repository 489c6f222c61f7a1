#include "kv/wal.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "util/crc32.h"

namespace vde::kv {

Wal::Wal(dev::BlockDevice& device, uint64_t generation)
    : device_(device), generation_(generation), tail_(device.sector_size(), 0) {}

void Wal::Reset(uint64_t new_generation) {
  assert(new_generation > generation_);
  assert(open_ == nullptr && writing_ == nullptr);
  generation_ = new_generation;
  append_off_ = 0;
  std::fill(tail_.begin(), tail_.end(), 0);
}

sim::Task<Status> Wal::Append(ByteSpan payload) {
  return Append(payload.size(), [payload](MutByteSpan out) {
    if (!payload.empty()) std::memcpy(out.data(), payload.data(), out.size());
  });
}

sim::Task<Status> Wal::Append(size_t payload_size,
                              std::function<void(MutByteSpan)> write) {
  const uint32_t sector = device_.sector_size();
  const uint64_t frame_size = kHeaderSize + payload_size;
  if (append_off_ + frame_size > capacity()) {
    co_return Status::OutOfSpace("wal full");
  }

  // Reserve the frame's offset and build it into the open batch before the
  // first suspension: a concurrent append can neither take the same offset
  // nor see a half-built frame.
  if (open_ == nullptr) {
    open_ = std::make_shared<Batch>();
    open_->start = append_off_;
    open_->used = append_off_ % sector;
  }
  const std::shared_ptr<Batch> batch = open_;
  const size_t at = batch->used;
  // Room for the frame and the padding of its last sector: a lone append's
  // first buffer is its whole sector run, and later frames grow it by
  // doubling.
  const size_t need = (at + frame_size + sector - 1) / sector * sector;
  if (need > batch->capacity) {
    const size_t capacity = std::max(need, 2 * batch->capacity);
    auto grown = std::make_unique_for_overwrite<uint8_t[]>(capacity);
    if (batch->run != nullptr) std::memcpy(grown.get(), batch->run.get(), at);
    batch->run = std::move(grown);
    batch->capacity = capacity;
  }
  batch->used = at + frame_size;
  uint8_t* frame = batch->run.get() + at;
  StoreU32Le(frame + 4, static_cast<uint32_t>(payload_size));
  StoreU64Le(frame + 8, generation_);
  write(MutByteSpan(frame + kHeaderSize, payload_size));
  StoreU32Le(frame, Crc32c(ByteSpan(frame + 8, 8 + payload_size)));
  append_off_ += frame_size;

  // Lead the batch if no write is in flight, else wait that write out: its
  // completion wakes this batch, and the first member to run writes it.
  while (!batch->done.fired()) {
    if (writing_ == nullptr) {
      assert(open_ == batch);
      co_await WriteOpenBatch();
    } else {
      const std::shared_ptr<Batch> in_flight = writing_;
      co_await in_flight->done.Wait();
    }
  }
  co_return batch->status;
}

sim::Task<void> Wal::WriteOpenBatch() {
  const uint32_t sector = device_.sector_size();
  const std::shared_ptr<Batch> batch = std::move(open_);
  writing_ = batch;
  // Compose the contiguous sector run: the already-written bytes of the
  // first (partial) sector, the batch's frames, and zeros after them.
  uint8_t* const run = batch->run.get();
  const uint64_t first = batch->start / sector * sector;
  std::memcpy(run, tail_.data(), batch->start - first);
  const size_t used = batch->used;
  const size_t size = (used + sector - 1) / sector * sector;
  std::memset(run + used, 0, size - used);

  const Status s = co_await device_.Write(first, ByteSpan(run, size));
  if (s.ok()) {
    // Remember the new tail sector content for the next batch; a fresh
    // sector starts from zeros.
    if (used % sector == 0) {
      std::fill(tail_.begin(), tail_.end(), 0);
    } else {
      std::memcpy(tail_.data(), run + size - sector, sector);
    }
  } else {
    // Recovery stops at the hole this write leaves, so the frames queued
    // behind it fail too and the log resumes where the batch began.
    if (open_ != nullptr) {
      Finish(*open_, s);
      open_.reset();
    }
    append_off_ = batch->start;
  }
  writing_.reset();
  Finish(*batch, s);
}

void Wal::Finish(Batch& batch, Status status) {
  batch.status = std::move(status);
  batch.run.reset();  // a batch buffer never outlives its write
  batch.done.Fire();
}

sim::Task<void> Wal::Idle() {
  while (writing_ != nullptr || open_ != nullptr) {
    const std::shared_ptr<Batch> batch =
        writing_ != nullptr ? writing_ : open_;
    co_await batch->done.Wait();
  }
}

sim::Task<Result<std::vector<Bytes>>> Wal::Recover() {
  assert(open_ == nullptr && writing_ == nullptr);
  const uint32_t sector = device_.sector_size();
  // Read the whole region once (sequential, cheap on flash).
  Bytes raw(capacity());
  {
    Status s = co_await device_.Read(0, raw);
    if (!s.ok()) co_return s;
  }
  // Frame: [crc u32][len u32][generation u64][payload]; the CRC covers the
  // generation and payload. A frame that does not parse ends the log.
  std::vector<Bytes> frames;
  ByteReader in(raw);
  uint64_t off = 0;
  for (;;) {
    uint32_t crc = 0, len = 0;
    uint64_t gen = 0;
    ByteSpan payload;
    if (!in.U32(&crc) || !in.U32(&len)) break;
    if (len == 0 && crc == 0) break;  // hole: end of log
    if (!in.U64(&gen) || !in.Span(len, &payload)) break;
    const ByteSpan body(raw.data() + off + 8, 8 + len);
    if (Crc32c(body) != crc) break;  // torn frame: end of log
    if (gen != generation_) break;   // stale frame from a previous life
    frames.emplace_back(payload.begin(), payload.end());
    off = in.offset();
  }
  // Restore append state so new frames continue after the recovered ones.
  append_off_ = off;
  const uint64_t tail_sector = off / sector;
  std::fill(tail_.begin(), tail_.end(), 0);
  if (tail_sector * sector < raw.size()) {
    std::memcpy(tail_.data(), raw.data() + tail_sector * sector,
                std::min<size_t>(sector, raw.size() - tail_sector * sector));
    // Zero the part of the tail after the log end (may contain torn bytes).
    const size_t in_sector = off % sector;
    std::fill(tail_.begin() + static_cast<long>(in_sector), tail_.end(), 0);
  }
  co_return frames;
}

}  // namespace vde::kv
