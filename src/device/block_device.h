// Sector-addressed block device interface.
//
// Like real NVMe, all IO must be sector-aligned; read-modify-write of
// partial sectors is the *caller's* job (and its cost is precisely what the
// paper's "unaligned" IV layout pays for — see objstore and core/iv_layout).
#pragma once

#include <cstdint>

#include "sim/task.h"
#include "util/bytes.h"
#include "util/stats.h"
#include "util/status.h"

namespace vde::dev {

// Cumulative device counters (verified by layout tests: e.g. an object-end
// 4 KiB write must touch exactly the expected number of sectors).
#define VDE_DEVICE_STATS(C, G) \
  C(read_ops)                  \
  C(write_ops)                 \
  C(sectors_read)              \
  C(sectors_written)           \
  C(bytes_read)                \
  C(bytes_written)

struct DeviceStats {
  VDE_STATS(DeviceStats, VDE_DEVICE_STATS)
};

class BlockDevice {
 public:
  virtual ~BlockDevice() = default;

  virtual uint32_t sector_size() const = 0;
  virtual uint64_t capacity_bytes() const = 0;

  // `offset` and `out.size()`/`data.size()` must be sector-aligned.
  virtual sim::Task<Status> Read(uint64_t offset, MutByteSpan out) = 0;
  virtual sim::Task<Status> Write(uint64_t offset, ByteSpan data) = 0;

  virtual const DeviceStats& stats() const = 0;
};

}  // namespace vde::dev
