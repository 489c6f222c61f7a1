// Write-ahead log over a device region.
//
// Frames: [crc u32][len u32][gen u64][payload]. Each device write rewrites
// the dirty tail sector plus any newly filled sectors in ONE contiguous
// device write — the cost structure of a real fdatasync'd log. Generation
// numbers fence stale frames after a reset, so recovery never replays the
// past.
//
// Group commit: an append reserves its frame's offset and builds the frame
// before it first suspends, so frames never overlap. At most one device
// write is in flight. Appends that arrive while one is in flight join the
// next batch; when that write completes, the first of them to run writes
// the whole batch as one sector run starting at the partial tail sector,
// and every frame of the batch is acknowledged together. Because writes
// never overlap in time, a tail sector shared by two batches lands in log
// order. A lone append writes exactly the bytes of a per-frame log. A
// failed write fails its batch and every frame queued behind it, and the
// log resumes at the failed batch's start.
#pragma once

#include <functional>
#include <memory>

#include "device/block_device.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "util/bytes.h"
#include "util/status.h"

namespace vde::kv {

class Wal {
 public:
  // `device` is the WAL's private region; generation comes from the
  // superblock (incremented on every reset).
  Wal(dev::BlockDevice& device, uint64_t generation);

  // Appends one frame and persists it (tail-sector rewrite), batched with
  // any appends that overlap it. Returns OutOfSpace when the region cannot
  // hold the frame — caller must wait for Idle(), flush the memtable and
  // Reset().
  sim::Task<Status> Append(ByteSpan payload);

  // Append of a `payload_size`-byte payload that `write` serializes
  // straight into the frame (it must fill all of its argument), so the
  // payload needs no buffer of its own. `write` runs before the first
  // suspension, and only if the frame fits.
  sim::Task<Status> Append(size_t payload_size,
                           std::function<void(MutByteSpan)> write);

  // Resumes once no frame is queued or being written.
  sim::Task<void> Idle();

  // Starts a fresh log under a new generation (after a memtable flush).
  // The log must be idle: a queued frame would land at a stale offset.
  void Reset(uint64_t new_generation);

  // Replays all frames of `generation` in order. Stops cleanly at the first
  // hole/CRC mismatch/foreign generation.
  sim::Task<Result<std::vector<Bytes>>> Recover();

  // Bytes reserved by appends, acknowledged or still queued.
  uint64_t bytes_used() const { return append_off_; }
  uint64_t capacity() const { return device_.capacity_bytes(); }
  double fill_fraction() const {
    return static_cast<double>(append_off_) / static_cast<double>(capacity());
  }
  uint64_t generation() const { return generation_; }

 private:
  static constexpr size_t kHeaderSize = 16;  // crc + len + gen

  // Frames written by one device write. `run` starts at the sector holding
  // `start`; its head bytes are filled from tail_ when the write begins.
  // It holds `used` bytes in `capacity`, a whole number of sectors: frames
  // are built in it un-zeroed, and only the sector padding after the last
  // one is zero-filled.
  struct Batch {
    uint64_t start = 0;
    std::unique_ptr<uint8_t[]> run;
    size_t used = 0;
    size_t capacity = 0;
    Status status;
    sim::Gate done;
  };

  // Writes open_ as one sector run; the caller saw no write in flight.
  sim::Task<void> WriteOpenBatch();
  static void Finish(Batch& batch, Status status);

  dev::BlockDevice& device_;
  uint64_t generation_;
  uint64_t append_off_ = 0;
  Bytes tail_;  // content of the last written (partially filled) sector
  std::shared_ptr<Batch> open_;     // collecting frames, not yet written
  std::shared_ptr<Batch> writing_;  // the device write in flight
};

}  // namespace vde::kv
