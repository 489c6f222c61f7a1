// WAL-specific tests: framing, torn writes, generation fencing, and the
// tail-sector rewrite cost structure.
#include "kv/wal.h"

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

}  // namespace
}  // namespace vde::kv
