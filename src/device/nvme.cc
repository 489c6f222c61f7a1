#include "device/nvme.h"

#include <cmath>

namespace vde::dev {

namespace {
sim::SimTime TransferTime(size_t bytes, double gbps) {
  // gbps is GB/s; 1 byte takes 1/gbps ns.
  return static_cast<sim::SimTime>(std::llround(static_cast<double>(bytes) / gbps));
}
}  // namespace

NvmeDevice::NvmeDevice(const NvmeConfig& config)
    : config_(config),
      ram_(kNvmeCapacityBytes),
      channels_(config.channels) {}

Status NvmeDevice::CheckAligned(uint64_t offset, size_t len) const {
  if (offset % config_.sector_size != 0 || len % config_.sector_size != 0) {
    return Status::InvalidArgument("unaligned device IO");
  }
  if (len == 0) return Status::InvalidArgument("empty device IO");
  if (offset + len > kNvmeCapacityBytes) {
    return Status::InvalidArgument("device IO out of range");
  }
  return Status::Ok();
}

sim::Task<Status> NvmeDevice::Read(uint64_t offset, MutByteSpan out) {
  VDE_CO_RETURN_IF_ERROR(co_await ChargeRead(offset, out.size()));
  ram_.ReadAt(offset, out);
  co_return Status::Ok();
}

sim::Task<Status> NvmeDevice::ChargeRead(uint64_t offset, size_t len) {
  VDE_CO_RETURN_IF_ERROR(CheckAligned(offset, len));
  co_await channels_.Acquire();
  sim::SemGuard guard(channels_);
  co_await sim::Sleep{config_.read_latency +
                      TransferTime(len, config_.read_gbps)};
  stats_.read_ops++;
  stats_.sectors_read += len / config_.sector_size;
  stats_.bytes_read += len;
  co_return Status::Ok();
}

sim::Task<Status> NvmeDevice::ChargeWrite(uint64_t offset, size_t len) {
  VDE_CO_RETURN_IF_ERROR(CheckAligned(offset, len));
  co_await channels_.Acquire();
  sim::SemGuard guard(channels_);
  co_await sim::Sleep{config_.write_latency +
                      TransferTime(len, config_.write_gbps)};
  stats_.write_ops++;
  stats_.sectors_written += len / config_.sector_size;
  stats_.bytes_written += len;
  co_return Status::Ok();
}

sim::Task<Status> NvmeDevice::Write(uint64_t offset, ByteSpan data) {
  VDE_CO_RETURN_IF_ERROR(co_await ChargeWrite(offset, data.size()));
  ram_.WriteAt(offset, data);
  co_return Status::Ok();
}

}  // namespace vde::dev
