// Simulated NVMe device: sparse RAM data plane + a calibrated cost model.
//
// Cost model per IO: acquire one of `channels` parallel channels, pay a
// fixed per-op latency plus size/bandwidth transfer time. Constants default
// to a datacenter NVMe similar to the paper's testbed drives and are
// overridable for ablations.
#pragma once

#include <memory>

#include "device/block_device.h"
#include "device/sparse_ram.h"
#include "sim/scheduler.h"
#include "sim/sync.h"

namespace vde::dev {

// Every simulated NVMe device holds 1.8 TB, as in the paper.
inline constexpr uint64_t kNvmeCapacityBytes = uint64_t{1800} << 30;

struct NvmeConfig {
  uint32_t sector_size = 4096;
  sim::SimTime read_latency = 14 * sim::kUs;       // fixed per-op cost
  sim::SimTime write_latency = 16 * sim::kUs;
  double read_gbps = 2.8;   // GB/s sequential read
  double write_gbps = 2.0;  // GB/s sequential write
  size_t channels = 8;      // internal parallelism
};

class NvmeDevice final : public BlockDevice {
 public:
  explicit NvmeDevice(const NvmeConfig& config = {});

  uint32_t sector_size() const override { return config_.sector_size; }
  uint64_t capacity_bytes() const override { return kNvmeCapacityBytes; }

  sim::Task<Status> Read(uint64_t offset, MutByteSpan out) override;
  sim::Task<Status> Write(uint64_t offset, ByteSpan data) override;

  // Data-plane access without simulated time (byte-granular). Used by the
  // object store to make committed state visible instantly while the device
  // cost is charged by the background applier via Charge*().
  void PokeWrite(uint64_t offset, ByteSpan data) { ram_.WriteAt(offset, data); }
  // PokeWrite that stores a whole-page payload once across devices: see
  // SparseRam::WriteAt(offset, data, share).
  void PokeWrite(uint64_t offset, ByteSpan data, SparseRam::PageRun& share) {
    ram_.WriteAt(offset, data, share);
  }
  void PeekRead(uint64_t offset, MutByteSpan out) const {
    ram_.ReadAt(offset, out);
  }
  // TRIM without simulated time: released pages read back as zeros, so a
  // recycled extent can never leak a previous tenant's bytes.
  void PokeTrim(uint64_t offset, uint64_t length) {
    ram_.Punch(offset, length);
  }
  // Holders of the data-plane page under `offset` (0 for a hole).
  uint32_t PeekPageRefs(uint64_t offset) const { return ram_.PageRefs(offset); }

  // Timing/stats-only IO (no data movement); offset/len sector-aligned.
  sim::Task<Status> ChargeRead(uint64_t offset, size_t len);
  sim::Task<Status> ChargeWrite(uint64_t offset, size_t len);

  const DeviceStats& stats() const override { return stats_; }

 private:
  Status CheckAligned(uint64_t offset, size_t len) const;

  NvmeConfig config_;
  SparseRam ram_;
  sim::Semaphore channels_;
  DeviceStats stats_;
};

}  // namespace vde::dev
