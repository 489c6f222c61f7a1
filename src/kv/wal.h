// Write-ahead log over a device region.
//
// Frames: [crc u32][len u32][gen u64][payload]. Each Commit rewrites the
// dirty tail sector plus any newly filled sectors in ONE contiguous device
// write — the cost structure of a real fdatasync'd log. Generation numbers
// fence stale frames after a reset, so recovery never replays the past.
#pragma once

#include <functional>

#include "device/block_device.h"
#include "sim/task.h"
#include "util/bytes.h"
#include "util/status.h"

namespace vde::kv {

class Wal {
 public:
  // `device` is the WAL's private region; generation comes from the
  // superblock (incremented on every reset).
  Wal(dev::BlockDevice& device, uint64_t generation);

  // Appends one frame and persists it (tail-sector rewrite). Returns
  // OutOfSpace when the region cannot hold the frame — caller must flush
  // the memtable and Reset().
  sim::Task<Status> Append(ByteSpan payload);

  // Append of a `payload_size`-byte payload that `write` serializes
  // straight into the frame (it must fill all of its argument), so the
  // payload needs no buffer of its own. `write` runs before the first
  // suspension, and only if the frame fits.
  sim::Task<Status> Append(size_t payload_size,
                           std::function<void(MutByteSpan)> write);

  // Starts a fresh log under a new generation (after a memtable flush).
  void Reset(uint64_t new_generation);

  // Replays all frames of `generation` in order. Stops cleanly at the first
  // hole/CRC mismatch/foreign generation.
  sim::Task<Result<std::vector<Bytes>>> Recover();

  uint64_t bytes_used() const { return append_off_; }
  uint64_t capacity() const { return device_.capacity_bytes(); }
  double fill_fraction() const {
    return static_cast<double>(append_off_) / static_cast<double>(capacity());
  }
  uint64_t generation() const { return generation_; }

 private:
  static constexpr size_t kHeaderSize = 16;  // crc + len + gen

  dev::BlockDevice& device_;
  uint64_t generation_;
  uint64_t append_off_ = 0;
  Bytes tail_;  // content of the current (partially filled) sector
};

}  // namespace vde::kv
