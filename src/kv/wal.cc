#include "kv/wal.h"

#include <cassert>
#include <cstring>
#include <memory>

#include "util/crc32.h"

namespace vde::kv {

Wal::Wal(dev::BlockDevice& device, uint64_t generation)
    : device_(device), generation_(generation), tail_(device.sector_size(), 0) {}

void Wal::Reset(uint64_t new_generation) {
  assert(new_generation > generation_);
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

  const uint64_t start = append_off_;
  const uint64_t end = start + frame_size;
  const uint64_t first_sector = start / sector;
  const uint64_t last_sector = (end + sector - 1) / sector;
  const size_t head = start - first_sector * sector;
  const size_t run = (last_sector - first_sector) * sector;

  // Compose the contiguous sector run [first_sector, last_sector): the
  // already-written bytes of the first (partial) sector, the frame built in
  // place after them, and zeros after it. Only those zeros are filled; the
  // frame overwrites the rest.
  auto io = std::make_unique_for_overwrite<uint8_t[]>(run);
  std::memcpy(io.get(), tail_.data(), head);
  uint8_t* frame = io.get() + head;
  StoreU32Le(frame + 4, static_cast<uint32_t>(payload_size));
  StoreU64Le(frame + 8, generation_);
  write(MutByteSpan(frame + kHeaderSize, payload_size));
  StoreU32Le(frame, Crc32c(ByteSpan(frame + 8, 8 + payload_size)));
  std::memset(frame + frame_size, 0, run - head - frame_size);

  VDE_CO_RETURN_IF_ERROR(
      co_await device_.Write(first_sector * sector, ByteSpan(io.get(), run)));

  // Remember the new tail sector content for the next append; a fresh
  // sector starts from zeros.
  if (end % sector == 0) {
    std::fill(tail_.begin(), tail_.end(), 0);
  } else {
    std::memcpy(tail_.data(), io.get() + run - sector, sector);
  }
  append_off_ = end;
  co_return Status::Ok();
}

sim::Task<Result<std::vector<Bytes>>> Wal::Recover() {
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
