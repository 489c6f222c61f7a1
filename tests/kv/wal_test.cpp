// WAL-specific tests: framing, torn writes, generation fencing, the
// tail-sector rewrite cost structure, and group commit.
#include "kv/wal.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "../testutil.h"
#include "device/nvme.h"
#include "device/region.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace vde::kv {
namespace {

TEST(Wal, AppendRecoverRoundtrip) {
  testutil::RunSim([]() -> sim::Task<void> {
    dev::NvmeDevice nvme;
    dev::RegionDevice region(nvme, 0, 1 << 20);
    Wal wal(region, 1);
    Rng rng(1);
    std::vector<Bytes> frames;
    for (int i = 0; i < 20; ++i) {
      frames.push_back(rng.RandomBytes(1 + rng.NextBelow(3000)));
      CO_ASSERT_OK(co_await wal.Append(frames.back()));
    }
    Wal reopened(region, 1);
    auto recovered = co_await reopened.Recover();
    CO_ASSERT_OK(recovered.status());
    CO_ASSERT_EQ(recovered->size(), frames.size());
    for (size_t i = 0; i < frames.size(); ++i) {
      CO_ASSERT_TRUE((*recovered)[i] == frames[i]);
    }
  });
}

TEST(Wal, RecoveryStopsAtTornFrame) {
  testutil::RunSim([]() -> sim::Task<void> {
    dev::NvmeDevice nvme;
    dev::RegionDevice region(nvme, 0, 1 << 20);
    Wal wal(region, 1);
    CO_ASSERT_OK(co_await wal.Append(BytesOf("frame-one")));
    CO_ASSERT_OK(co_await wal.Append(BytesOf("frame-two")));
    CO_ASSERT_OK(co_await wal.Append(BytesOf("frame-three")));
    // Tear the third frame: flip a byte in its payload region on disk.
    Bytes sector(4096);
    CO_ASSERT_OK(co_await region.Read(0, sector));
    // frame layout: 16B header + payload; frame 3 starts after two frames.
    const size_t frame_size = 16 + 9;  // "frame-one" etc are 9 bytes
    sector[2 * frame_size + 18] ^= 0xFF;
    CO_ASSERT_OK(co_await region.Write(0, sector));

    Wal reopened(region, 1);
    auto recovered = co_await reopened.Recover();
    CO_ASSERT_OK(recovered.status());
    CO_ASSERT_EQ(recovered->size(), 2u);
    CO_ASSERT_TRUE((*recovered)[0] == BytesOf("frame-one"));
    CO_ASSERT_TRUE((*recovered)[1] == BytesOf("frame-two"));
  });
}

TEST(Wal, GenerationFencesStaleFrames) {
  testutil::RunSim([]() -> sim::Task<void> {
    dev::NvmeDevice nvme;
    dev::RegionDevice region(nvme, 0, 1 << 20);
    Wal wal(region, 1);
    CO_ASSERT_OK(co_await wal.Append(BytesOf("old-generation-data")));
    CO_ASSERT_OK(co_await wal.Append(BytesOf("more-old-data")));
    // Reset to generation 2 and write ONE new frame. The old gen-1 frames
    // physically remain beyond it but must not be replayed.
    wal.Reset(2);
    CO_ASSERT_OK(co_await wal.Append(BytesOf("new")));
    Wal reopened(region, 2);
    auto recovered = co_await reopened.Recover();
    CO_ASSERT_OK(recovered.status());
    CO_ASSERT_EQ(recovered->size(), 1u);
    CO_ASSERT_TRUE((*recovered)[0] == BytesOf("new"));
  });
}

TEST(Wal, AppendAfterRecoveryContinues) {
  testutil::RunSim([]() -> sim::Task<void> {
    dev::NvmeDevice nvme;
    dev::RegionDevice region(nvme, 0, 1 << 20);
    {
      Wal wal(region, 1);
      CO_ASSERT_OK(co_await wal.Append(BytesOf("before-crash")));
    }
    Wal wal(region, 1);
    auto recovered = co_await wal.Recover();
    CO_ASSERT_OK(recovered.status());
    CO_ASSERT_EQ(recovered->size(), 1u);
    CO_ASSERT_OK(co_await wal.Append(BytesOf("after-recovery")));
    // A third instance sees both, in order.
    Wal again(region, 1);
    auto both = co_await again.Recover();
    CO_ASSERT_OK(both.status());
    CO_ASSERT_EQ(both->size(), 2u);
    CO_ASSERT_TRUE((*both)[1] == BytesOf("after-recovery"));
  });
}

TEST(Wal, FullLogReportsOutOfSpace) {
  testutil::RunSim([]() -> sim::Task<void> {
    dev::NvmeDevice nvme;
    dev::RegionDevice region(nvme, 0, 16 * 4096);
    Wal wal(region, 1);
    Rng rng(2);
    Status s = Status::Ok();
    int appended = 0;
    while (s.ok() && appended < 1000) {
      s = co_await wal.Append(rng.RandomBytes(4000));
      if (s.ok()) appended++;
    }
    CO_ASSERT_EQ(s.code(), StatusCode::kOutOfSpace);
    CO_ASSERT_TRUE(appended >= 15);  // ~16 x 4KB frames in a 64KB region
    // Reset makes it usable again.
    wal.Reset(2);
    CO_ASSERT_OK(co_await wal.Append(BytesOf("fresh")));
  });
}

TEST(Wal, SmallAppendsRewriteTailSector) {
  // Cost structure: every commit is one contiguous device write; small
  // frames rewrite the same tail sector (like an fdatasync'd log).
  testutil::RunSim([]() -> sim::Task<void> {
    dev::NvmeDevice nvme;
    dev::RegionDevice region(nvme, 0, 1 << 20);
    Wal wal(region, 1);
    const auto before = nvme.stats().write_ops;
    for (int i = 0; i < 10; ++i) {
      CO_ASSERT_OK(co_await wal.Append(BytesOf("tiny")));
    }
    const auto stats = nvme.stats();
    CO_ASSERT_EQ(stats.write_ops - before, 10u);
    // 10 tiny frames fit one sector: exactly one sector per commit.
    CO_ASSERT_EQ(stats.sectors_written, 10u);
  });
}

TEST(Wal, LargeFrameSpansSectorsInOneWrite) {
  testutil::RunSim([]() -> sim::Task<void> {
    dev::NvmeDevice nvme;
    dev::RegionDevice region(nvme, 0, 1 << 20);
    Wal wal(region, 1);
    Rng rng(3);
    CO_ASSERT_OK(co_await wal.Append(rng.RandomBytes(10000)));
    CO_ASSERT_EQ(nvme.stats().write_ops, 1u);
    CO_ASSERT_EQ(nvme.stats().sectors_written, 3u);  // ceil(10016/4096)
  });
}

// Pins the exact bytes a fixed frame sequence leaves on the device: header
// layout, payload placement, the zeros after each frame, and the tail-sector
// carry between appends. Frames: empty, 100 B, one 4 KiB block record
// (4096 + 24 B), one that ends exactly on a sector boundary, and a small one
// that starts the next sector.
TEST(Wal, GoldenRegionBytes) {
  testutil::RunSim([]() -> sim::Task<void> {
    dev::NvmeDevice nvme;
    dev::RegionDevice region(nvme, 0, 16 * 4096);
    Wal wal(region, 7);
    auto pattern = [](size_t n, uint8_t seed) {
      Bytes b(n);
      for (size_t i = 0; i < n; ++i) {
        b[i] = static_cast<uint8_t>(seed + i * 29 + (i >> 7));
      }
      return b;
    };
    CO_ASSERT_OK(co_await wal.Append({}));
    CO_ASSERT_EQ(wal.bytes_used(), 16u);
    CO_ASSERT_OK(co_await wal.Append(pattern(100, 1)));
    CO_ASSERT_EQ(wal.bytes_used(), 132u);
    CO_ASSERT_OK(co_await wal.Append(pattern(4096 + 24, 2)));
    CO_ASSERT_EQ(wal.bytes_used(), 4268u);
    CO_ASSERT_OK(co_await wal.Append(pattern(8192 - 4268 - 16, 3)));
    CO_ASSERT_EQ(wal.bytes_used(), 8192u);
    CO_ASSERT_OK(co_await wal.Append(pattern(10, 4)));
    CO_ASSERT_EQ(wal.bytes_used(), 8218u);

    Bytes raw(region.capacity_bytes());
    CO_ASSERT_OK(co_await region.Read(0, raw));
    // The empty frame: [crc][len 0][gen 7], then the 100 B frame.
    EXPECT_EQ(LoadU32Le(raw.data() + 4), 0u);
    EXPECT_EQ(LoadU64Le(raw.data() + 8), 7u);
    EXPECT_EQ(LoadU32Le(raw.data() + 16 + 4), 100u);
    EXPECT_EQ(Crc32c(raw), 0x3FD030BFu);
  });
}

// --- Group commit ---

// Appends `payload` and records the result; run under WhenAll so appends
// overlap.
sim::Task<void> AppendInto(Wal& wal, Bytes payload, Status* out) {
  *out = co_await wal.Append(payload);
}

// N appends started together: the first writes alone, the other N-1 join
// one batch behind it. No two frames overlap and Recover returns every
// acknowledged frame, in the order the appends started.
TEST(Wal, ConcurrentAppendsBatchWithoutOverlap) {
  testutil::RunSim([]() -> sim::Task<void> {
    dev::NvmeDevice nvme;
    dev::RegionDevice region(nvme, 0, 1 << 20);
    Wal wal(region, 1);
    Rng rng(4);
    CO_ASSERT_OK(co_await wal.Append(rng.RandomBytes(100)));  // partial tail
    constexpr size_t kAppends = 24;
    std::vector<Bytes> frames;
    std::vector<Status> results(kAppends);
    std::vector<sim::Task<void>> tasks;
    uint64_t frame_bytes = wal.bytes_used();
    for (size_t i = 0; i < kAppends; ++i) {
      frames.push_back(rng.RandomBytes(1 + rng.NextBelow(5000)));
      frame_bytes += 16 + frames.back().size();
      tasks.push_back(AppendInto(wal, frames.back(), &results[i]));
    }
    const auto writes_before = nvme.stats().write_ops;
    co_await sim::WhenAll(std::move(tasks));
    for (const Status& s : results) CO_ASSERT_OK(s);
    EXPECT_EQ(nvme.stats().write_ops - writes_before, 2u)
        << "one lone write, then one batch";
    EXPECT_EQ(wal.bytes_used(), frame_bytes) << "frames are packed";

    Wal reopened(region, 1);
    auto recovered = co_await reopened.Recover();
    CO_ASSERT_OK(recovered.status());
    CO_ASSERT_EQ(recovered->size(), kAppends + 1);
    for (size_t i = 0; i < kAppends; ++i) {
      EXPECT_TRUE((*recovered)[i + 1] == frames[i]) << "frame " << i;
    }
    EXPECT_EQ(reopened.bytes_used(), frame_bytes);
  });
}

// Appends arriving in waves while writes are in flight form a chain of
// batches; each batch starts at the previous one's partial tail sector, so
// the sectors they share land in log order.
TEST(Wal, StaggeredAppendsKeepSharedSectorsInOrder) {
  testutil::RunSim([]() -> sim::Task<void> {
    dev::NvmeDevice nvme;
    dev::RegionDevice region(nvme, 0, 1 << 20);
    Wal wal(region, 1);
    Rng rng(5);
    constexpr size_t kAppends = 64;
    std::vector<Bytes> frames;
    std::vector<Status> results(kAppends);
    std::vector<sim::Task<void>> tasks;
    for (size_t i = 0; i < kAppends; ++i) {
      frames.push_back(rng.RandomBytes(1 + rng.NextBelow(700)));
      tasks.push_back([](Wal& wal, sim::SimTime delay, Bytes payload,
                         Status* out) -> sim::Task<void> {
        co_await sim::Sleep{delay};
        *out = co_await wal.Append(payload);
      }(wal, i * 3 * sim::kUs, frames.back(), &results[i]));
    }
    co_await sim::WhenAll(std::move(tasks));
    for (const Status& s : results) CO_ASSERT_OK(s);
    EXPECT_LT(nvme.stats().write_ops, kAppends) << "no batch formed";

    Wal reopened(region, 1);
    auto recovered = co_await reopened.Recover();
    CO_ASSERT_OK(recovered.status());
    CO_ASSERT_EQ(recovered->size(), kAppends);
    for (size_t i = 0; i < kAppends; ++i) {
      EXPECT_TRUE((*recovered)[i] == frames[i]) << "frame " << i;
    }
  });
}

// The checkpoint protocol of a full log (ObjectStore's journal wrap): an
// append that finds it full waits for Idle(), resets it unless another
// append already did, and retries. Appends are still queued when the log
// fills, so resetting without Idle() would write them at stale offsets of
// the new generation. Recover returns exactly the acknowledged frames of
// the final generation, in order.
TEST(Wal, WrapWhileAppendsInFlight) {
  testutil::RunSim([]() -> sim::Task<void> {
    dev::NvmeDevice nvme;
    dev::RegionDevice region(nvme, 0, 16 * 4096);
    Wal wal(region, 1);
    Rng rng(6);
    constexpr size_t kAppends = 40;
    struct Acked {
      uint64_t generation = 0;
      uint64_t offset = 0;
      Status status;
    };
    std::vector<Bytes> frames;
    std::vector<Acked> acked(kAppends);
    std::vector<sim::Task<void>> tasks;
    for (size_t i = 0; i < kAppends; ++i) {
      frames.push_back(rng.RandomBytes(2000 + rng.NextBelow(3000)));
      tasks.push_back([](Wal& wal, sim::SimTime delay, Bytes payload,
                         Acked* out) -> sim::Task<void> {
        co_await sim::Sleep{delay};
        for (;;) {
          // Append reserves its offset before it first suspends.
          out->generation = wal.generation();
          out->offset = wal.bytes_used();
          out->status = co_await wal.Append(payload);
          if (out->status.code() != StatusCode::kOutOfSpace) co_return;
          co_await wal.Idle();
          if (wal.generation() == out->generation) {
            wal.Reset(out->generation + 1);
          }
        }
      }(wal, (i / 8) * 5 * sim::kUs, frames.back(), &acked[i]));
    }
    co_await sim::WhenAll(std::move(tasks));
    EXPECT_GT(wal.generation(), 2u) << "the log must wrap repeatedly";

    std::vector<std::pair<uint64_t, size_t>> last_generation;
    for (size_t i = 0; i < kAppends; ++i) {
      CO_ASSERT_OK(acked[i].status);
      if (acked[i].generation == wal.generation()) {
        last_generation.emplace_back(acked[i].offset, i);
      }
    }
    std::sort(last_generation.begin(), last_generation.end());
    Wal reopened(region, wal.generation());
    auto recovered = co_await reopened.Recover();
    CO_ASSERT_OK(recovered.status());
    CO_ASSERT_EQ(recovered->size(), last_generation.size());
    for (size_t k = 0; k < last_generation.size(); ++k) {
      EXPECT_TRUE((*recovered)[k] == frames[last_generation[k].second])
          << "frame " << k;
    }
    EXPECT_EQ(reopened.bytes_used(), wal.bytes_used());
  });
}

// Fails every write once armed, after the time a write takes.
class BreakableDevice final : public dev::BlockDevice {
 public:
  explicit BreakableDevice(dev::BlockDevice& parent) : parent_(parent) {}
  uint32_t sector_size() const override { return parent_.sector_size(); }
  uint64_t capacity_bytes() const override {
    return parent_.capacity_bytes();
  }
  sim::Task<Status> Read(uint64_t offset, MutByteSpan out) override {
    co_return co_await parent_.Read(offset, out);
  }
  sim::Task<Status> Write(uint64_t offset, ByteSpan data) override {
    if (broken) {
      co_await sim::Sleep{20 * sim::kUs};  // fails as late as a real write
      co_return Status::IoError("injected write failure");
    }
    co_return co_await parent_.Write(offset, data);
  }
  const dev::DeviceStats& stats() const override { return parent_.stats(); }

  bool broken = false;

 private:
  dev::BlockDevice& parent_;
};

// A failed batch write fails its frames and every frame queued behind it
// (recovery could never reach them past the hole), and the log resumes at
// the failed batch's start.
TEST(Wal, FailedBatchFailsQueuedFramesAndRewinds) {
  testutil::RunSim([]() -> sim::Task<void> {
    dev::NvmeDevice nvme;
    dev::RegionDevice region(nvme, 0, 1 << 20);
    BreakableDevice device(region);
    Wal wal(device, 1);
    CO_ASSERT_OK(co_await wal.Append(BytesOf("committed")));
    const uint64_t committed_end = wal.bytes_used();

    // The first append leads a write that fails; the two behind it queue
    // for the next batch and must fail without being written.
    std::vector<Status> results(3);
    std::vector<sim::Task<void>> tasks;
    for (size_t i = 0; i < results.size(); ++i) {
      tasks.push_back(AppendInto(wal, BytesOf("lost"), &results[i]));
    }
    device.broken = true;
    const auto writes_before = nvme.stats().write_ops;
    co_await sim::WhenAll(std::move(tasks));
    for (const Status& s : results) {
      CO_ASSERT_EQ(s.code(), StatusCode::kIoError);
    }
    EXPECT_EQ(nvme.stats().write_ops, writes_before);
    EXPECT_EQ(wal.bytes_used(), committed_end);

    device.broken = false;
    CO_ASSERT_OK(co_await wal.Append(BytesOf("after")));
    Wal reopened(region, 1);
    auto recovered = co_await reopened.Recover();
    CO_ASSERT_OK(recovered.status());
    CO_ASSERT_EQ(recovered->size(), 2u);
    CO_ASSERT_TRUE((*recovered)[0] == BytesOf("committed"));
    CO_ASSERT_TRUE((*recovered)[1] == BytesOf("after"));
  });
}

}  // namespace
}  // namespace vde::kv
