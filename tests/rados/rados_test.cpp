// Cluster tests: placement properties, replication, transactions across the
// network, snapshots through the client API, and failure of invariants.
#include <gtest/gtest.h>

#include <set>

#include "../testutil.h"
#include "core/format.h"
#include "rados/cluster.h"
#include "util/rng.h"

namespace vde::rados {
namespace {

using testutil::TestCluster;

TEST(Placement, DeterministicAndReplicaCountCorrect) {
  Placement p(PlacementConfig{128, 3, 9, 3});
  const auto a = p.OsdsFor("rbd_data.1.000001");
  const auto b = p.OsdsFor("rbd_data.1.000001");
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 3u);
}

TEST(Placement, ReplicasOnDistinctNodes) {
  Placement p(PlacementConfig{128, 3, 9, 3});
  for (int i = 0; i < 200; ++i) {
    const auto osds = p.OsdsFor("obj" + std::to_string(i));
    std::set<size_t> nodes;
    for (size_t osd : osds) nodes.insert(osd / 9);
    EXPECT_EQ(nodes.size(), 3u) << "replicas must span all 3 nodes";
  }
}

TEST(Placement, PrimariesSpreadAcrossOsds) {
  Placement p(PlacementConfig{256, 3, 9, 3});
  std::map<size_t, int> primary_count;
  for (int i = 0; i < 2000; ++i) {
    primary_count[p.OsdsFor("img." + std::to_string(i))[0]]++;
  }
  // All 27 OSDs should serve as primary for some objects.
  EXPECT_EQ(primary_count.size(), 27u);
  for (const auto& [osd, count] : primary_count) {
    EXPECT_GT(count, 2000 / 27 / 4) << "osd " << osd << " badly underloaded";
  }
}

TEST(Placement, DifferentPgCountsStillValid) {
  for (uint32_t pgs : {8u, 64u, 512u}) {
    Placement p(PlacementConfig{pgs, 3, 9, 3});
    const auto osds = p.OsdsFor("x");
    EXPECT_EQ(osds.size(), 3u);
  }
}

TEST(Cluster, WriteReplicatesToAllActingOsds) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto cluster = co_await Cluster::Create(TestCluster());
    CO_ASSERT_OK(cluster.status());
    auto io = (*cluster)->ioctx();
    Rng rng(1);
    const Bytes data = rng.RandomBytes(8192);
    CO_ASSERT_OK(co_await io.WriteFull("replobj", data));

    const auto acting = (*cluster)->placement().OsdsFor("replobj");
    CO_ASSERT_EQ(acting.size(), 3u);
    for (size_t osd_id : acting) {
      EXPECT_TRUE((*cluster)->osd(osd_id).store().ObjectExists("replobj"))
          << "osd " << osd_id;
      EXPECT_EQ((*cluster)->osd(osd_id).store().ObjectSize("replobj"), 8192u);
    }
    // Non-acting OSDs must NOT have the object.
    size_t have = 0;
    for (size_t i = 0; i < (*cluster)->osd_count(); ++i) {
      if ((*cluster)->osd(i).store().ObjectExists("replobj")) have++;
    }
    EXPECT_EQ(have, 3u);
  });
}

TEST(Cluster, ReadReturnsWrittenData) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto cluster = co_await Cluster::Create(TestCluster());
    auto io = (*cluster)->ioctx();
    Rng rng(2);
    const Bytes data = rng.RandomBytes(65536);
    CO_ASSERT_OK(co_await io.WriteFull("robj", data));
    auto got = co_await io.Read("robj", 0, 65536);
    CO_ASSERT_OK(got.status());
    EXPECT_EQ(*got, data);
    // Partial read.
    auto part = co_await io.Read("robj", 4096, 8192);
    CO_ASSERT_OK(part.status());
    EXPECT_TRUE(std::equal(part->begin(), part->end(), data.begin() + 4096));
  });
}

// Every replica stores the same ciphertext, so a replicated whole-page
// write leaves one host copy of the data page, held by all three replicas.
// Tampering with one replica's copy fails authentication only there.
TEST(Cluster, ReplicasShareDataPagesAndTamperingStaysLocal) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto cluster = co_await Cluster::Create(TestCluster());
    CO_ASSERT_OK(cluster.status());
    core::EncryptionSpec spec;
    spec.mode = core::CipherMode::kXtsRandom;
    spec.layout = core::IvLayout::kObjectEnd;
    spec.integrity = core::Integrity::kHmac;
    spec.iv_seed = 1;
    constexpr uint64_t kObjectSize = 4ull << 20;
    auto format = core::MakeFormat(spec, Rng(5).RandomBytes(64), kObjectSize);
    core::ObjectExtent ext;
    ext.oid = "shared";
    ext.first_block = 2;
    ext.block_count = 1;
    ext.image_block = 2;
    const Bytes plain = Rng(6).RandomBytes(core::kBlockSize);
    objstore::Transaction txn;
    CO_ASSERT_OK(format->MakeWrite(ext, plain, txn));
    auto io = (*cluster)->ioctx();
    CO_ASSERT_OK(co_await io.Operate(ext.oid, std::move(txn), {}));

    const uint64_t data_off = ext.first_block * core::kBlockSize;
    const uint64_t meta_off =
        kObjectSize + ext.first_block * spec.MetaPerBlock();
    const auto acting = (*cluster)->placement().OsdsFor(ext.oid);
    CO_ASSERT_EQ(acting.size(), 3u);
    for (size_t id : acting) {
      const objstore::ObjectStore& store = (*cluster)->osd(id).store();
      auto data_refs = store.PeekPageRefs(ext.oid, data_off);
      CO_ASSERT_OK(data_refs.status());
      EXPECT_EQ(*data_refs, 3u) << "osd " << id;
      // The IV+tag record is a sub-page payload over a hole on every
      // replica: it is stored once too.
      auto meta_refs = store.PeekPageRefs(ext.oid, meta_off);
      CO_ASSERT_OK(meta_refs.status());
      EXPECT_EQ(*meta_refs, 3u) << "osd " << id;
    }

    objstore::ObjectStore& victim = (*cluster)->osd(acting[1]).store();
    auto byte = victim.PeekObjectData(ext.oid, data_off + 100, 1);
    CO_ASSERT_OK(byte.status());
    (*byte)[0] ^= 0x01;
    CO_ASSERT_OK(victim.TamperObjectData(ext.oid, data_off + 100, *byte));
    EXPECT_EQ(victim.PeekPageRefs(ext.oid, data_off).value(), 1u);

    for (size_t id : acting) {
      objstore::Transaction read;
      read.oid = ext.oid;
      format->MakeRead(ext, read);
      auto result =
          co_await (*cluster)->osd(id).store().ExecuteRead(read,
                                                           objstore::kHeadSnap);
      CO_ASSERT_OK(result.status());
      Bytes out(core::kBlockSize);
      const Status s = format->FinishRead(ext, *result, out);
      if (id == acting[1]) {
        EXPECT_EQ(s.code(), StatusCode::kCorruption) << "osd " << id;
      } else {
        EXPECT_TRUE(s.ok()) << "osd " << id << ": " << s.ToString();
        EXPECT_EQ(out, plain) << "osd " << id;
      }
    }
  });
}

// Arena pages that the devices of `osds` hold in their first MiB, where
// each store's journal keeps the page holding its end.
size_t JournalPages(Cluster& cluster, const std::vector<size_t>& osds) {
  size_t pages = 0;
  for (size_t id : osds) {
    const dev::NvmeDevice& device = cluster.osd(id).device();
    for (uint64_t off = 0; off < (1u << 20); off += dev::SparseRam::kPageSize) {
      if (device.PeekPageRefs(off) > 0) ++pages;
    }
  }
  return pages;
}

// The unaligned layout interleaves each block's GCM nonce and tag with its
// data, so every slot write is a partial-page payload, and LZ trims each
// compressed slot's tail. Replicas in step still hold one host copy of
// every slot page, also after a 512 B read-modify-write; tampering with one
// replica's copy fails authentication only there.
TEST(Cluster, ReplicasShareUnalignedSlotPagesAndTamperingStaysLocal) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto cluster = co_await Cluster::Create(TestCluster());
    CO_ASSERT_OK(cluster.status());
    core::EncryptionSpec spec;
    spec.mode = core::CipherMode::kGcmRandom;
    spec.layout = core::IvLayout::kUnaligned;
    spec.compression.codec = core::Compression::kLz;
    spec.iv_seed = 1;
    constexpr uint64_t kObjectSize = 4ull << 20;
    auto format = core::MakeFormat(spec, Rng(5).RandomBytes(64), kObjectSize);
    CO_ASSERT_TRUE(format != nullptr);
    core::ObjectExtent ext;
    ext.oid = "slots";
    ext.first_block = 3;
    ext.block_count = 8;
    ext.image_block = 3;
    // Odd blocks compress, so their slot tails are trimmed.
    Bytes plain = Rng(6).RandomBytes(ext.block_count * core::kBlockSize);
    for (size_t b = 1; b < ext.block_count; b += 2) {
      std::fill_n(plain.begin() + b * core::kBlockSize + 512,
                  core::kBlockSize - 512, 0);
    }
    const auto acting = (*cluster)->placement().OsdsFor(ext.oid);
    CO_ASSERT_EQ(acting.size(), 3u);
    const uint64_t page = dev::SparseRam::kPageSize;
    const uint64_t slot = core::kBlockSize + spec.MetaPerBlock();
    const uint64_t begin = ext.first_block * slot;
    const uint64_t end = begin + ext.block_count * slot;
    // Checks that each slot page is a hole on every replica or one page all
    // three hold, and returns how many such pages there are.
    const auto shared_slot_pages = [&]() {
      size_t pages = 0;
      for (uint64_t off = begin - begin % page; off < end; off += page) {
        const uint32_t refs =
            (*cluster)->osd(acting[0]).store().PeekPageRefs(ext.oid, off)
                .value();
        EXPECT_TRUE(refs == 0 || refs == 3) << "offset " << off;
        if (refs > 0) ++pages;
        for (size_t id : acting) {
          EXPECT_EQ(
              (*cluster)->osd(id).store().PeekPageRefs(ext.oid, off).value(),
              refs)
              << "osd " << id << " offset " << off;
        }
      }
      return pages;
    };
    auto io = (*cluster)->ioctx();
    const size_t live = dev::SparseRam::ArenaLivePages();
    const size_t journal = JournalPages(**cluster, acting);

    objstore::Transaction txn;
    CO_ASSERT_OK(format->MakeWrite(ext, plain, txn));
    CO_ASSERT_OK(co_await io.Operate(ext.oid, std::move(txn), {}));
    size_t pages = shared_slot_pages();
    EXPECT_GT(pages, 0u);
    EXPECT_EQ(dev::SparseRam::ArenaLivePages() - live,
              pages + JournalPages(**cluster, acting) - journal);

    // 512 B read-modify-write of block 2: read it, patch it, rewrite it.
    core::ObjectExtent one = ext;
    one.first_block = ext.first_block + 2;
    one.block_count = 1;
    one.image_block = ext.image_block + 2;
    objstore::Transaction read_one;
    format->MakeRead(one, read_one);
    auto got = co_await io.OperateRead(one.oid, std::move(read_one));
    CO_ASSERT_OK(got.status());
    Bytes block(core::kBlockSize);
    CO_ASSERT_OK(format->FinishRead(one, *got, block));
    const Bytes patch = Rng(7).RandomBytes(512);
    std::copy(patch.begin(), patch.end(), block.begin() + 1024);
    std::copy(block.begin(), block.end(),
              plain.begin() + 2 * core::kBlockSize);
    objstore::Transaction rmw;
    CO_ASSERT_OK(format->MakeWrite(one, block, rmw));
    CO_ASSERT_OK(co_await io.Operate(one.oid, std::move(rmw), {}));
    pages = shared_slot_pages();
    EXPECT_EQ(dev::SparseRam::ArenaLivePages() - live,
              pages + JournalPages(**cluster, acting) - journal);

    objstore::ObjectStore& victim = (*cluster)->osd(acting[1]).store();
    auto byte = victim.PeekObjectData(ext.oid, begin + 100, 1);
    CO_ASSERT_OK(byte.status());
    (*byte)[0] ^= 0x01;
    CO_ASSERT_OK(victim.TamperObjectData(ext.oid, begin + 100, *byte));
    for (size_t id : acting) {
      EXPECT_EQ((*cluster)->osd(id).store().PeekPageRefs(ext.oid, begin)
                    .value(),
                id == acting[1] ? 1u : 2u)
          << "osd " << id;
      objstore::Transaction read;
      read.oid = ext.oid;
      format->MakeRead(ext, read);
      auto result =
          co_await (*cluster)->osd(id).store().ExecuteRead(read,
                                                           objstore::kHeadSnap);
      CO_ASSERT_OK(result.status());
      Bytes out(plain.size());
      const Status s = format->FinishRead(ext, *result, out);
      if (id == acting[1]) {
        EXPECT_EQ(s.code(), StatusCode::kCorruption) << "osd " << id;
      } else {
        EXPECT_TRUE(s.ok()) << "osd " << id << ": " << s.ToString();
        EXPECT_EQ(out, plain) << "osd " << id;
      }
    }
  });
}

TEST(Cluster, TransactionWithDataAndOmap) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto cluster = co_await Cluster::Create(TestCluster());
    auto io = (*cluster)->ioctx();
    Rng rng(3);
    objstore::Transaction txn;
    objstore::OsdOp w;
    w.type = objstore::OsdOp::Type::kWrite;
    w.offset = 0;
    w.length = 4096;
    w.data = rng.RandomBytes(4096);
    objstore::OsdOp o;
    o.type = objstore::OsdOp::Type::kOmapSet;
    Bytes key(8);
    StoreU64Be(key.data(), 0);
    const Bytes iv = rng.RandomBytes(16);
    o.omap_kvs.emplace_back(key, iv);
    txn.ops.push_back(std::move(w));
    txn.ops.push_back(std::move(o));
    CO_ASSERT_OK(co_await io.Operate("txobj", std::move(txn), {}));

    // Read data + omap in one op (parallel at the OSD).
    objstore::Transaction get;
    objstore::OsdOp r;
    r.type = objstore::OsdOp::Type::kRead;
    r.offset = 0;
    r.length = 4096;
    objstore::OsdOp g;
    g.type = objstore::OsdOp::Type::kOmapGetRange;
    get.ops.push_back(std::move(r));
    get.ops.push_back(std::move(g));
    auto got = co_await io.OperateRead("txobj", std::move(get));
    CO_ASSERT_OK(got.status());
    EXPECT_EQ(got->data.size(), 4096u);
    CO_ASSERT_EQ(got->omap_values.size(), 1u);
    EXPECT_EQ(got->omap_values[0].second, iv);
  });
}

TEST(Cluster, SnapshotReadThroughClient) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto cluster = co_await Cluster::Create(TestCluster());
    auto io = (*cluster)->ioctx();
    CO_ASSERT_OK(co_await io.WriteFull("snapper", Bytes(4096, 0x11)));
    const uint64_t snap = (*cluster)->AllocateSnapId();
    objstore::SnapContext snapc{snap, {snap}};
    objstore::Transaction txn;
    objstore::OsdOp w;
    w.type = objstore::OsdOp::Type::kWriteFull;
    w.data = Bytes(4096, 0x22);
    txn.ops.push_back(std::move(w));
    CO_ASSERT_OK(co_await io.Operate("snapper", std::move(txn), snapc));

    auto head = co_await io.Read("snapper", 0, 4096);
    auto old = co_await io.Read("snapper", 0, 4096, snap);
    CO_ASSERT_OK(head.status());
    CO_ASSERT_OK(old.status());
    EXPECT_EQ((*head)[0], 0x22);
    EXPECT_EQ((*old)[0], 0x11);
  });
}

TEST(Cluster, WritesAdvanceSimulatedTime) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto cluster = co_await Cluster::Create(TestCluster());
    auto io = (*cluster)->ioctx();
    const auto t0 = sim::Scheduler::Current().now();
    CO_ASSERT_OK(co_await io.WriteFull("timed", Bytes(4096, 1)));
    const auto elapsed = sim::Scheduler::Current().now() - t0;
    // Write must cost at least the primary+replica software path.
    EXPECT_GT(elapsed, 500 * sim::kUs);
    EXPECT_LT(elapsed, 5 * sim::kMs);
  });
}

TEST(Cluster, ReadsCheaperThanWrites) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto cluster = co_await Cluster::Create(TestCluster());
    auto io = (*cluster)->ioctx();
    CO_ASSERT_OK(co_await io.WriteFull("rw", Bytes(4096, 1)));
    co_await (*cluster)->Drain();

    const auto t0 = sim::Scheduler::Current().now();
    (void)co_await io.Read("rw", 0, 4096);
    const auto read_time = sim::Scheduler::Current().now() - t0;

    const auto t1 = sim::Scheduler::Current().now();
    CO_ASSERT_OK(co_await io.WriteFull("rw", Bytes(4096, 2)));
    const auto write_time = sim::Scheduler::Current().now() - t1;
    EXPECT_LT(read_time, write_time)
        << "replication must make writes slower than reads";
  });
}

TEST(Cluster, DeviceStatsAggregate) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto cluster = co_await Cluster::Create(TestCluster());
    auto io = (*cluster)->ioctx();
    CO_ASSERT_OK(co_await io.WriteFull("statobj", Bytes(16384, 5)));
    co_await (*cluster)->Drain();
    const auto stats = (*cluster)->TotalDeviceStats();
    // 3 replicas x (journal write + data apply) at minimum.
    EXPECT_GE(stats.write_ops, 6u);
    EXPECT_GE(stats.bytes_written, 3u * 2 * 16384);
  });
}

}  // namespace
}  // namespace vde::rados
