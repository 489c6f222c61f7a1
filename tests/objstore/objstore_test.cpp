// Object store tests: transactional writes, OMAP, RMW accounting,
// snapshots/clones, remove, and journal behavior.
#include <algorithm>

#include <gtest/gtest.h>

#include "../testutil.h"
#include "device/nvme.h"
#include "objstore/object_store.h"
#include "util/rng.h"

namespace vde::objstore {
namespace {

StoreConfig SmallStore() {
  StoreConfig c;
  c.journal_size = 8ull << 20;
  c.kv_region_size = 32ull << 20;
  c.max_object_size = (4ull << 20) + (1ull << 20);
  c.kv.wal_size = 1ull << 20;
  c.kv.memtable_limit = 1ull << 20;
  return c;
}

Transaction WriteTxn(const std::string& oid, uint64_t off, Bytes data) {
  Transaction txn;
  txn.oid = oid;
  OsdOp op;
  op.type = OsdOp::Type::kWrite;
  op.offset = off;
  op.length = data.size();
  op.data = std::move(data);
  txn.ops.push_back(std::move(op));
  return txn;
}

// `prefix` followed by `i`. Appended, not `"w" + std::to_string(i)`: gcc 12
// inlines that as an insert at offset 0 and, inside a coroutine, reports a
// false -Wrestrict overlap.
std::string NumberedOid(const char* prefix, int i) {
  std::string oid = prefix;
  oid += std::to_string(i);
  return oid;
}

Transaction ReadTxn(const std::string& oid, uint64_t off, uint64_t len) {
  Transaction txn;
  txn.oid = oid;
  OsdOp op;
  op.type = OsdOp::Type::kRead;
  op.offset = off;
  op.length = len;
  txn.ops.push_back(std::move(op));
  return txn;
}

TEST(ObjectStore, WriteReadRoundtrip) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto nvme = std::make_shared<dev::NvmeDevice>();
    auto store = co_await ObjectStore::Open(nvme, SmallStore());
    CO_ASSERT_OK(store.status());
    auto& os = **store;
    Rng rng(1);
    const Bytes data = rng.RandomBytes(8192);
    CO_ASSERT_OK(co_await os.Apply(WriteTxn("obj1", 4096, data), {}));
    auto got = co_await os.ExecuteRead(ReadTxn("obj1", 4096, 8192), kHeadSnap);
    CO_ASSERT_OK(got.status());
    EXPECT_EQ(got->data, data);
    EXPECT_EQ(os.ObjectSize("obj1"), 4096u + 8192u);
  });
}

TEST(ObjectStore, UnalignedWriteReadBytes) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto nvme = std::make_shared<dev::NvmeDevice>();
    auto store = co_await ObjectStore::Open(nvme, SmallStore());
    auto& os = **store;
    Rng rng(2);
    // The unaligned IV layout writes at byte offsets like 4112.
    const Bytes data = rng.RandomBytes(4112);
    CO_ASSERT_OK(co_await os.Apply(WriteTxn("obj", 4112, data), {}));
    auto got = co_await os.ExecuteRead(ReadTxn("obj", 4112, 4112), kHeadSnap);
    CO_ASSERT_OK(got.status());
    EXPECT_EQ(got->data, data);
  });
}

TEST(ObjectStore, UnalignedWritesChargeRmw) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto nvme = std::make_shared<dev::NvmeDevice>();
    auto store = co_await ObjectStore::Open(nvme, SmallStore());
    auto& os = **store;
    Rng rng(3);
    CO_ASSERT_OK(co_await os.Apply(WriteTxn("a", 0, rng.RandomBytes(4096)), {}));
    co_await os.Drain();
    EXPECT_EQ(os.stats().rmw_sectors, 0u) << "aligned write needs no RMW";
    CO_ASSERT_OK(co_await os.Apply(WriteTxn("a", 100, rng.RandomBytes(5000)), {}));
    co_await os.Drain();
    EXPECT_EQ(os.stats().rmw_sectors, 2u) << "head and tail sectors RMW";
  });
}

TEST(ObjectStore, MultiOpTransactionAppliesAll) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto nvme = std::make_shared<dev::NvmeDevice>();
    auto store = co_await ObjectStore::Open(nvme, SmallStore());
    auto& os = **store;
    Rng rng(4);
    const Bytes data = rng.RandomBytes(4096);
    // Data write + IV write in ONE transaction (the paper's object-end path).
    Transaction txn;
    txn.oid = "combo";
    OsdOp w1;
    w1.type = OsdOp::Type::kWrite;
    w1.offset = 0;
    w1.length = 4096;
    w1.data = data;
    const Bytes iv = rng.RandomBytes(16);
    OsdOp w2;
    w2.type = OsdOp::Type::kWrite;
    w2.offset = 4ull << 20;  // metadata region at object end
    w2.length = 16;
    w2.data = iv;
    txn.ops.push_back(std::move(w1));
    txn.ops.push_back(std::move(w2));
    CO_ASSERT_OK(co_await os.Apply(txn, {}));

    auto d = co_await os.ExecuteRead(ReadTxn("combo", 0, 4096), kHeadSnap);
    auto i = co_await os.ExecuteRead(ReadTxn("combo", 4ull << 20, 16), kHeadSnap);
    CO_ASSERT_OK(d.status());
    CO_ASSERT_OK(i.status());
    EXPECT_EQ(d->data, data);
    EXPECT_EQ(i->data, iv);
  });
}

TEST(ObjectStore, OmapSetAndRangeGet) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto nvme = std::make_shared<dev::NvmeDevice>();
    auto store = co_await ObjectStore::Open(nvme, SmallStore());
    auto& os = **store;
    Transaction txn;
    txn.oid = "omapobj";
    OsdOp op;
    op.type = OsdOp::Type::kOmapSet;
    for (uint32_t i = 0; i < 32; ++i) {
      Bytes key(8);
      StoreU64Be(key.data(), i);
      op.omap_kvs.emplace_back(key, BytesOf("iv" + std::to_string(i)));
    }
    txn.ops.push_back(std::move(op));
    CO_ASSERT_OK(co_await os.Apply(txn, {}));

    Transaction get;
    get.oid = "omapobj";
    OsdOp g;
    g.type = OsdOp::Type::kOmapGetRange;
    Bytes lo(8), hi(8);
    StoreU64Be(lo.data(), 10);
    StoreU64Be(hi.data(), 20);
    g.omap_start = lo;
    g.omap_end = hi;
    get.ops.push_back(std::move(g));
    auto got = co_await os.ExecuteRead(get, kHeadSnap);
    CO_ASSERT_OK(got.status());
    CO_ASSERT_EQ(got->omap_values.size(), 10u);
    EXPECT_EQ(got->omap_values[0].second, BytesOf("iv10"));
    EXPECT_EQ(got->omap_values[9].second, BytesOf("iv19"));
  });
}

TEST(ObjectStore, DataAndOmapInOneTransaction) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto nvme = std::make_shared<dev::NvmeDevice>();
    auto store = co_await ObjectStore::Open(nvme, SmallStore());
    auto& os = **store;
    Rng rng(5);
    Transaction txn;
    txn.oid = "mix";
    OsdOp w;
    w.type = OsdOp::Type::kWrite;
    w.offset = 0;
    w.length = 4096;
    w.data = rng.RandomBytes(4096);
    OsdOp o;
    o.type = OsdOp::Type::kOmapSet;
    Bytes key(8);
    StoreU64Be(key.data(), 0);
    o.omap_kvs.emplace_back(key, rng.RandomBytes(16));
    txn.ops.push_back(std::move(w));
    txn.ops.push_back(std::move(o));
    CO_ASSERT_OK(co_await os.Apply(txn, {}));
    EXPECT_EQ(os.stats().transactions, 1u);
  });
}

TEST(ObjectStore, RemoveFreesObjectAndOmap) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto nvme = std::make_shared<dev::NvmeDevice>();
    auto store = co_await ObjectStore::Open(nvme, SmallStore());
    auto& os = **store;
    Rng rng(6);
    CO_ASSERT_OK(co_await os.Apply(WriteTxn("gone", 0, rng.RandomBytes(4096)), {}));
    Transaction omap;
    omap.oid = "gone";
    OsdOp o;
    o.type = OsdOp::Type::kOmapSet;
    o.omap_kvs.emplace_back(BytesOf("k"), BytesOf("v"));
    omap.ops.push_back(std::move(o));
    CO_ASSERT_OK(co_await os.Apply(omap, {}));
    EXPECT_TRUE(os.ObjectExists("gone"));

    Transaction rm;
    rm.oid = "gone";
    OsdOp r;
    r.type = OsdOp::Type::kRemove;
    rm.ops.push_back(std::move(r));
    CO_ASSERT_OK(co_await os.Apply(rm, {}));
    EXPECT_FALSE(os.ObjectExists("gone"));

    // OMAP rows must be gone too.
    Transaction get;
    get.oid = "gone";
    OsdOp g;
    g.type = OsdOp::Type::kOmapGetRange;
    get.ops.push_back(std::move(g));
    auto got = co_await os.ExecuteRead(get, kHeadSnap);
    CO_ASSERT_OK(got.status());
    EXPECT_TRUE(got->omap_values.empty());
  });
}

TEST(ObjectStore, SnapshotPreservesOldData) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto nvme = std::make_shared<dev::NvmeDevice>();
    auto store = co_await ObjectStore::Open(nvme, SmallStore());
    auto& os = **store;
    Rng rng(7);
    const Bytes v1 = rng.RandomBytes(4096);
    const Bytes v2 = rng.RandomBytes(4096);
    CO_ASSERT_OK(co_await os.Apply(WriteTxn("snapobj", 0, v1), {}));
    // Snapshot id 5 taken; subsequent write carries snapc.seq = 5.
    SnapContext snapc{5, {5}};
    CO_ASSERT_OK(co_await os.Apply(WriteTxn("snapobj", 0, v2), snapc));
    EXPECT_EQ(os.CloneCount("snapobj"), 1u);

    auto head = co_await os.ExecuteRead(ReadTxn("snapobj", 0, 4096), kHeadSnap);
    auto old = co_await os.ExecuteRead(ReadTxn("snapobj", 0, 4096), 5);
    CO_ASSERT_OK(head.status());
    CO_ASSERT_OK(old.status());
    EXPECT_EQ(head->data, v2);
    EXPECT_EQ(old->data, v1);
  });
}

TEST(ObjectStore, SnapshotClonesOmapRows) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto nvme = std::make_shared<dev::NvmeDevice>();
    auto store = co_await ObjectStore::Open(nvme, SmallStore());
    auto& os = **store;
    // Object with data + OMAP IV, then snapshot, then overwrite both.
    auto put = [&os](Bytes iv, const SnapContext& snapc) -> sim::Task<Status> {
      Transaction txn;
      txn.oid = "ivobj";
      OsdOp w;
      w.type = OsdOp::Type::kWrite;
      w.offset = 0;
      w.length = 4096;
      w.data = Bytes(4096, iv[0]);
      OsdOp o;
      o.type = OsdOp::Type::kOmapSet;
      Bytes key(8);
      StoreU64Be(key.data(), 0);
      o.omap_kvs.emplace_back(key, std::move(iv));
      txn.ops.push_back(std::move(w));
      txn.ops.push_back(std::move(o));
      co_return co_await os.Apply(txn, snapc);
    };
    CO_ASSERT_OK(co_await put(Bytes(16, 0xAA), {}));
    SnapContext snapc{9, {9}};
    CO_ASSERT_OK(co_await put(Bytes(16, 0xBB), snapc));

    Transaction get;
    get.oid = "ivobj";
    OsdOp g;
    g.type = OsdOp::Type::kOmapGetRange;
    get.ops.push_back(std::move(g));
    auto head = co_await os.ExecuteRead(get, kHeadSnap);
    auto old = co_await os.ExecuteRead(get, 9);
    CO_ASSERT_OK(head.status());
    CO_ASSERT_OK(old.status());
    CO_ASSERT_EQ(head->omap_values.size(), 1u);
    CO_ASSERT_EQ(old->omap_values.size(), 1u);
    EXPECT_EQ(head->omap_values[0].second, Bytes(16, 0xBB));
    EXPECT_EQ(old->omap_values[0].second, Bytes(16, 0xAA));
  });
}

TEST(ObjectStore, MultipleSnapshots) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto nvme = std::make_shared<dev::NvmeDevice>();
    auto store = co_await ObjectStore::Open(nvme, SmallStore());
    auto& os = **store;
    CO_ASSERT_OK(co_await os.Apply(WriteTxn("m", 0, Bytes(4096, 1)), {}));
    SnapContext snap10;
    snap10.seq = 10;
    snap10.snaps = {10};
    SnapContext snap20;
    snap20.seq = 20;
    snap20.snaps = {20, 10};
    CO_ASSERT_OK(co_await os.Apply(WriteTxn("m", 0, Bytes(4096, 2)), snap10));
    CO_ASSERT_OK(co_await os.Apply(WriteTxn("m", 0, Bytes(4096, 3)), snap20));
    auto s10 = co_await os.ExecuteRead(ReadTxn("m", 0, 1), 10);
    auto s20 = co_await os.ExecuteRead(ReadTxn("m", 0, 1), 20);
    auto head = co_await os.ExecuteRead(ReadTxn("m", 0, 1), kHeadSnap);
    CO_ASSERT_OK(s10.status());
    CO_ASSERT_OK(s20.status());
    CO_ASSERT_OK(head.status());
    EXPECT_EQ(s10->data[0], 1);
    EXPECT_EQ(s20->data[0], 2);
    EXPECT_EQ(head->data[0], 3);
  });
}

TEST(ObjectStore, SnapshotWithoutLaterWriteReadsHead) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto nvme = std::make_shared<dev::NvmeDevice>();
    auto store = co_await ObjectStore::Open(nvme, SmallStore());
    auto& os = **store;
    CO_ASSERT_OK(co_await os.Apply(WriteTxn("q", 0, Bytes(4096, 7)), {}));
    // Snapshot 3 exists but object never written after -> head serves it.
    auto got = co_await os.ExecuteRead(ReadTxn("q", 0, 1), 3);
    CO_ASSERT_OK(got.status());
    EXPECT_EQ(got->data[0], 7);
  });
}

// Arena pages the device holds in its journal region.
size_t JournalPages(const dev::NvmeDevice& nvme, const StoreConfig& config) {
  size_t pages = 0;
  for (uint64_t off = 0; off < config.journal_size;
       off += dev::SparseRam::kPageSize) {
    if (nvme.PeekPageRefs(off) > 0) ++pages;
  }
  return pages;
}

// A clone shares the head's pages: the first 4 KiB head write after a
// snapshot costs one page (the head's copy of the page it rewrites), not a
// copy of the object, and the snapshot still reads the old bytes.
TEST(ObjectStore, SnapshotCloneSharesTheHeadsPages) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto nvme = std::make_shared<dev::NvmeDevice>();
    const StoreConfig config = SmallStore();
    auto store = co_await ObjectStore::Open(nvme, config);
    auto& os = **store;
    Rng rng(9);
    const Bytes v1 = rng.RandomBytes(1 << 20);
    const Bytes patch = rng.RandomBytes(4096);
    CO_ASSERT_OK(co_await os.Apply(WriteTxn("big", 0, v1), {}));
    const size_t live = dev::SparseRam::ArenaLivePages();
    const size_t journal = JournalPages(*nvme, config);
    const SnapContext snapc{4, {4}};
    CO_ASSERT_OK(co_await os.Apply(WriteTxn("big", 8192, patch), snapc));
    EXPECT_EQ(os.CloneCount("big"), 1u);
    EXPECT_EQ(dev::SparseRam::ArenaLivePages() - live,
              1 + JournalPages(*nvme, config) - journal);
    EXPECT_EQ(os.PeekPageRefs("big", 0).value(), 2u);     // head and clone
    EXPECT_EQ(os.PeekPageRefs("big", 8192).value(), 1u);  // head's own

    Bytes v2 = v1;
    std::copy(patch.begin(), patch.end(), v2.begin() + 8192);
    auto head = co_await os.ExecuteRead(ReadTxn("big", 0, v1.size()),
                                        kHeadSnap);
    auto old = co_await os.ExecuteRead(ReadTxn("big", 0, v1.size()), 4);
    CO_ASSERT_OK(head.status());
    CO_ASSERT_OK(old.status());
    EXPECT_EQ(head->data, v2);
    EXPECT_EQ(old->data, v1);
  });
}

// With a 512 B allocation unit a clone extent can start mid-page, where no
// head page lines up with it: the clone copies, and still reads the old
// bytes.
TEST(ObjectStore, SnapshotCloneAtAnotherInPageOffsetCopies) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto nvme = std::make_shared<dev::NvmeDevice>();
    StoreConfig config = SmallStore();
    config.alloc_unit = 512;
    auto store = co_await ObjectStore::Open(nvme, config);
    auto& os = **store;
    Rng rng(10);
    const Bytes a = rng.RandomBytes(1536);
    const Bytes b = rng.RandomBytes(3 * 4096);
    CO_ASSERT_OK(co_await os.Apply(WriteTxn("a", 0, a), {}));
    CO_ASSERT_OK(co_await os.Apply(WriteTxn("b", 0, b), {}));
    const SnapContext snapc{6, {6}};
    // The clone of "a" takes 1536 B, so the clone of "b" after it starts
    // 1536 B into a page.
    CO_ASSERT_OK(co_await os.Apply(WriteTxn("a", 0, Bytes(512, 1)), snapc));
    CO_ASSERT_OK(co_await os.Apply(WriteTxn("b", 0, Bytes(512, 2)), snapc));
    EXPECT_EQ(os.CloneCount("b"), 1u);
    EXPECT_EQ(os.PeekPageRefs("b", 4096).value(), 1u);
    auto old_a = co_await os.ExecuteRead(ReadTxn("a", 0, a.size()), 6);
    auto old_b = co_await os.ExecuteRead(ReadTxn("b", 0, b.size()), 6);
    CO_ASSERT_OK(old_a.status());
    CO_ASSERT_OK(old_b.status());
    EXPECT_EQ(old_a->data, a);
    EXPECT_EQ(old_b->data, b);
  });
}

// A read answered as pages is recorded under the object's shared lock, as
// a read of bytes is: swept across a two-op transaction's apply, it sees
// both ops' bytes or neither, never the data op without its record.
TEST(ObjectStore, PageReadNeverSeesAHalfAppliedTransaction) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto nvme = std::make_shared<dev::NvmeDevice>();
    auto store = co_await ObjectStore::Open(nvme, SmallStore());
    auto& os = **store;
    const auto version = [](uint8_t v) {
      Transaction txn = WriteTxn("pair", 0, Bytes(4096, v));
      txn.ops.push_back(WriteTxn("pair", 8192, Bytes(16, v)).ops[0]);
      return txn;
    };
    CO_ASSERT_OK(co_await os.Apply(version(1), {}));
    Transaction read = ReadTxn("pair", 0, 8192 + 16);
    read.ops[0].as_pages = true;
    size_t saw_old = 0, saw_new = 0;
    for (uint8_t v = 2; v < 80; ++v) {
      bool applied = false;
      sim::Scheduler::Current().Spawn(
          [](ObjectStore& os, Transaction txn, bool* done) -> sim::Task<void> {
            EXPECT_TRUE((co_await os.Apply(txn, {})).ok());
            *done = true;
          }(os, version(v), &applied));
      co_await sim::Sleep{(v - 2) * 5 * sim::kUs};
      auto got = co_await os.ExecuteRead(read, kHeadSnap);
      CO_ASSERT_OK(got.status());
      CO_ASSERT_EQ(got->pages.length(), 8192 + 16u);
      uint8_t data = 0, record = 0;
      got->pages.Read(100, MutByteSpan(&data, 1));
      got->pages.Read(8192 + 5, MutByteSpan(&record, 1));
      EXPECT_EQ(data, record) << "read " << (v - 2) * 5 << " us in";
      (data == v ? saw_new : saw_old)++;
      while (!applied) co_await sim::Sleep{sim::kMs};
    }
    EXPECT_GT(saw_old, 0u);
    EXPECT_GT(saw_new, 0u);
  });
}

TEST(ObjectStore, JournalGrowsWithPayload) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto nvme = std::make_shared<dev::NvmeDevice>();
    auto store = co_await ObjectStore::Open(nvme, SmallStore());
    auto& os = **store;
    Rng rng(8);
    CO_ASSERT_OK(co_await os.Apply(WriteTxn("j", 0, rng.RandomBytes(64 * 1024)), {}));
    EXPECT_GE(os.stats().journal_bytes, 64u * 1024);
  });
}

TEST(ObjectStore, JournalCheckpointWhenFull) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto nvme = std::make_shared<dev::NvmeDevice>();
    StoreConfig cfg = SmallStore();
    cfg.journal_size = 1ull << 20;  // tiny journal: forces checkpoints
    auto store = co_await ObjectStore::Open(nvme, cfg);
    auto& os = **store;
    Rng rng(9);
    for (int i = 0; i < 40; ++i) {
      CO_ASSERT_OK(
          co_await os.Apply(WriteTxn("ck", 0, rng.RandomBytes(128 * 1024)), {}));
    }
    // All 40 x 128K journaled through a 1M journal => checkpoints happened
    // and nothing failed.
    EXPECT_EQ(os.stats().transactions, 40u);
  });
}

TEST(ObjectStore, JournalKeepsOnlyItsEndSectorOnceApplied) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto nvme = std::make_shared<dev::NvmeDevice>();
    StoreConfig cfg = SmallStore();
    cfg.journal_size = 1ull << 20;  // wraps a few times below
    auto store = co_await ObjectStore::Open(nvme, cfg);
    auto& os = **store;
    Rng rng(10);
    std::vector<Bytes> latest(3);
    Bytes journal(cfg.journal_size);
    for (int i = 0; i < 30; ++i) {
      const std::string oid = "jr" + std::to_string(i % 3);
      latest[i % 3] = rng.RandomBytes(100 * 1024 + 7 * i);
      CO_ASSERT_OK(co_await os.Apply(WriteTxn(oid, 512, latest[i % 3]), {}));
      // Every frame is applied, so only the sector the next append
      // rewrites may still hold journal bytes.
      nvme->PeekRead(0, journal);
      const auto backed = std::count_if(journal.begin(), journal.end(),
                                        [](uint8_t b) { return b != 0; });
      EXPECT_LE(backed, static_cast<long>(nvme->sector_size())) << "txn " << i;
    }
    EXPECT_EQ(os.stats().transactions, 30u);
    // Released journal memory is recycled into object data: it must carry
    // no journal bytes into the objects.
    for (int k = 0; k < 3; ++k) {
      auto got = co_await os.ExecuteRead(
          ReadTxn("jr" + std::to_string(k), 0, 512 + latest[k].size()),
          kHeadSnap);
      CO_ASSERT_OK(got.status());
      EXPECT_EQ(Bytes(got->data.begin() + 512, got->data.end()), latest[k]);
      EXPECT_TRUE(std::all_of(got->data.begin(), got->data.begin() + 512,
                              [](uint8_t b) { return b == 0; }));
    }
  });
}

TEST(ObjectStore, ReadOfMissingObjectFails) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto nvme = std::make_shared<dev::NvmeDevice>();
    auto store = co_await ObjectStore::Open(nvme, SmallStore());
    auto& os = **store;
    auto got = co_await os.ExecuteRead(ReadTxn("nope", 0, 4096), kHeadSnap);
    EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
  });
}

TEST(ObjectStore, WriteBeyondMaxObjectRejected) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto nvme = std::make_shared<dev::NvmeDevice>();
    auto store = co_await ObjectStore::Open(nvme, SmallStore());
    auto& os = **store;
    const auto status =
        co_await os.Apply(WriteTxn("big", 5ull << 20, Bytes(4096, 0)), {});
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  });
}

// --- The kv commit lane ---

Transaction OmapSetTxn(const std::string& oid, const std::string& key,
                       const std::string& value) {
  Transaction txn;
  txn.oid = oid;
  OsdOp op;
  op.type = OsdOp::Type::kOmapSet;
  op.omap_kvs.emplace_back(BytesOf(key), BytesOf(value));
  txn.ops.push_back(std::move(op));
  return txn;
}

Transaction RemoveTxn(const std::string& oid) {
  Transaction txn;
  txn.oid = oid;
  OsdOp op;
  op.type = OsdOp::Type::kRemove;
  txn.ops.push_back(std::move(op));
  return txn;
}

// Every store kv write serializes on the kv lane. A remove's head-row drop
// that skipped it appended to the kv WAL while an OMAP set on another
// object was appending, both at one offset: after a reopen from the device
// either the removed row came back or the acknowledged row was gone,
// depending on which frame landed second. Sweeps the remove's start across
// the set's whole commit.
TEST(ObjectStore, KvWritesShareTheLane) {
  for (sim::SimTime delay = 0; delay <= 80 * sim::kUs; delay += 4 * sim::kUs) {
    SCOPED_TRACE("remove delayed " + std::to_string(delay / sim::kUs) + " us");
    testutil::RunSim([delay]() -> sim::Task<void> {
      auto nvme = std::make_shared<dev::NvmeDevice>();
      auto store = co_await ObjectStore::Open(nvme, SmallStore());
      CO_ASSERT_OK(store.status());
      auto& os = **store;
      CO_ASSERT_OK(co_await os.Apply(OmapSetTxn("a", "k", "old"), {}));

      Status set_status, remove_status;
      std::vector<sim::Task<void>> tasks;
      tasks.push_back([](ObjectStore* os, Status* out) -> sim::Task<void> {
        *out = co_await os->Apply(OmapSetTxn("b", "k", "acked"), {});
      }(&os, &set_status));
      tasks.push_back([](ObjectStore* os, sim::SimTime delay,
                         Status* out) -> sim::Task<void> {
        co_await sim::Sleep{delay};
        *out = co_await os->Apply(RemoveTxn("a"), {});
      }(&os, delay, &remove_status));
      co_await sim::WhenAll(std::move(tasks));
      co_await os.Drain();
      CO_ASSERT_OK(set_status);
      CO_ASSERT_OK(remove_status);

      auto reopened = co_await ObjectStore::Open(nvme, SmallStore());
      CO_ASSERT_OK(reopened.status());
      auto removed = co_await (*reopened)->PeekOmapRow("a", BytesOf("k"));
      EXPECT_EQ(removed.status().code(), StatusCode::kNotFound)
          << "the removed row came back";
      auto acked = co_await (*reopened)->PeekOmapRow("b", BytesOf("k"));
      EXPECT_TRUE(acked.ok() && *acked == BytesOf("acked"))
          << "the acknowledged row was lost";
    });
  }
}

// The kv lane is store-wide work, so under the 4-core model its per-key
// charge takes the least-busy core. With data commits queued on object X's
// core (writes to objects that hash to the same core, at 2 ms of commit
// each), an OMAP set on X finishes in exactly the uncontended time.
TEST(ObjectStore, OmapCommitDoesNotQueueBehindItsObjectCore) {
  sim::Scheduler sched;
  sched.ConfigureCores(4);  // overrides VDE_SIM_CORES (the .mc4 shard)
  bool finished = false;
  auto body = [&]() -> sim::Task<void> {
    StoreConfig cfg = SmallStore();
    cfg.costs.write_op_apply_cost = 2 * sim::kMs;
    auto nvme = std::make_shared<dev::NvmeDevice>();
    auto store = co_await ObjectStore::Open(nvme, cfg);
    CO_ASSERT_OK(store.status());
    auto& os = **store;
    const uint64_t core_x = sim::ShardOf("x") % 4;
    std::vector<std::string> same_core;
    for (int i = 0; same_core.size() < 4; ++i) {
      const std::string oid = NumberedOid("y", i);
      if (sim::ShardOf(oid) % 4 == core_x) same_core.push_back(oid);
    }

    auto timed_set = [&]() -> sim::Task<sim::SimTime> {
      const sim::SimTime start = sched.now();
      EXPECT_TRUE((co_await os.Apply(OmapSetTxn("x", "k", "v"), {})).ok());
      co_return sched.now() - start;
    };
    (void)co_await timed_set();  // creates X
    const sim::SimTime uncontended = co_await timed_set();

    Rng rng(9);
    std::vector<sim::Task<void>> writes;
    for (const std::string& oid : same_core) {
      writes.push_back([](ObjectStore* os, Transaction txn) -> sim::Task<void> {
        EXPECT_TRUE((co_await os->Apply(txn, {})).ok());
      }(&os, WriteTxn(oid, 0, rng.RandomBytes(4096))));
    }
    sim::SimTime contended = 0, set_done = 0;
    writes.push_back([](sim::SimTime* contended, sim::SimTime* set_done,
                        auto timed_set) -> sim::Task<void> {
      co_await sim::Sleep{sim::kMs};  // the commits queue on X's core
      *contended = co_await timed_set();
      *set_done = sim::Scheduler::Current().now();
    }(&contended, &set_done, timed_set));
    co_await sim::WhenAll(std::move(writes));
    EXPECT_GT(sched.now() - set_done, 5 * sim::kMs)
        << "the commit backlog must outlast the OMAP set";
    EXPECT_EQ(contended, uncontended);
    finished = true;
  };
  sched.Spawn(body());
  sched.Run();
  EXPECT_TRUE(finished);
}

// --- Tracked discard (kTrim) ---

Transaction TrimTxn(const std::string& oid, uint64_t off, uint64_t len) {
  Transaction txn;
  txn.oid = oid;
  OsdOp op;
  op.type = OsdOp::Type::kTrim;
  op.offset = off;
  op.length = len;
  txn.ops.push_back(std::move(op));
  return txn;
}

TEST(ObjectStoreTrim, TrimFreesCapacityAndReadsZeros) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto nvme = std::make_shared<dev::NvmeDevice>();
    auto store = co_await ObjectStore::Open(nvme, SmallStore());
    auto& os = **store;
    Rng rng(2);
    CO_ASSERT_OK(co_await os.Apply(
        WriteTxn("t", 0, rng.RandomBytes(64 * 4096)), {}));
    co_await os.Drain();
    const uint64_t free_before = os.space().free_bytes;

    CO_ASSERT_OK(co_await os.Apply(TrimTxn("t", 16 * 4096, 32 * 4096), {}));
    // TRIM actually grows allocator capacity, by exactly the fully
    // covered sectors, and the trimmed map tracks the logical range.
    EXPECT_EQ(os.space().free_bytes, free_before + 32 * 4096);
    EXPECT_EQ(os.space().punched_bytes, 32u * 4096);
    EXPECT_EQ(os.TrimmedBytes("t"), 32u * 4096);
    EXPECT_EQ(os.stats().trim_ops, 1u);
    EXPECT_EQ(os.stats().bytes_trimmed, 32u * 4096);

    auto got = co_await os.ExecuteRead(ReadTxn("t", 16 * 4096, 32 * 4096),
                                       kHeadSnap);
    CO_ASSERT_OK(got.status());
    EXPECT_TRUE(std::all_of(got->data.begin(), got->data.end(),
                            [](uint8_t b) { return b == 0; }));
  });
}

TEST(ObjectStoreTrim, TrimmedReadSkipsDevice) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto nvme = std::make_shared<dev::NvmeDevice>();
    auto store = co_await ObjectStore::Open(nvme, SmallStore());
    auto& os = **store;
    Rng rng(3);
    CO_ASSERT_OK(co_await os.Apply(
        WriteTxn("t", 0, rng.RandomBytes(16 * 4096)), {}));
    CO_ASSERT_OK(co_await os.Apply(TrimTxn("t", 0, 8 * 4096), {}));
    co_await os.Drain();

    const uint64_t reads_before = nvme->stats().read_ops;
    auto got = co_await os.ExecuteRead(ReadTxn("t", 4096, 4 * 4096),
                                       kHeadSnap);
    CO_ASSERT_OK(got.status());
    // Fully inside the trimmed map: served as zeros with zero device IO.
    EXPECT_EQ(nvme->stats().read_ops, reads_before);
    EXPECT_EQ(os.stats().trimmed_reads, 1u);
    // A read straddling the trimmed boundary still goes to the device.
    auto edge = co_await os.ExecuteRead(ReadTxn("t", 4 * 4096, 8 * 4096),
                                        kHeadSnap);
    CO_ASSERT_OK(edge.status());
    EXPECT_GT(nvme->stats().read_ops, reads_before);
  });
}

TEST(ObjectStoreTrim, RewriteRestoresBackingAndClearsMap) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto nvme = std::make_shared<dev::NvmeDevice>();
    auto store = co_await ObjectStore::Open(nvme, SmallStore());
    auto& os = **store;
    Rng rng(4);
    CO_ASSERT_OK(co_await os.Apply(
        WriteTxn("t", 0, rng.RandomBytes(16 * 4096)), {}));
    CO_ASSERT_OK(co_await os.Apply(TrimTxn("t", 0, 16 * 4096), {}));
    EXPECT_EQ(os.space().punched_bytes, 16u * 4096);

    const Bytes fresh = rng.RandomBytes(4 * 4096);
    CO_ASSERT_OK(co_await os.Apply(WriteTxn("t", 4096, fresh), {}));
    // The rewritten sectors are re-backed; the rest stay punched.
    EXPECT_EQ(os.space().punched_bytes, 12u * 4096);
    EXPECT_EQ(os.stats().bytes_restored, 4u * 4096);
    EXPECT_EQ(os.TrimmedBytes("t"), 12u * 4096);

    auto got = co_await os.ExecuteRead(ReadTxn("t", 4096, 4 * 4096),
                                       kHeadSnap);
    CO_ASSERT_OK(got.status());
    EXPECT_EQ(got->data, fresh);
    // Bytes around the rewrite still read zeros.
    auto before = co_await os.ExecuteRead(ReadTxn("t", 0, 4096), kHeadSnap);
    CO_ASSERT_OK(before.status());
    EXPECT_TRUE(std::all_of(before->data.begin(), before->data.end(),
                            [](uint8_t b) { return b == 0; }));
  });
}

TEST(ObjectStoreTrim, CloneFreezesTrimmedStateAndRemoveReclaimsAll) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto nvme = std::make_shared<dev::NvmeDevice>();
    auto store = co_await ObjectStore::Open(nvme, SmallStore());
    auto& os = **store;
    Rng rng(5);
    const uint64_t free_initial = os.space().free_bytes;
    const Bytes data = rng.RandomBytes(8 * 4096);
    CO_ASSERT_OK(co_await os.Apply(WriteTxn("t", 0, data), {}));
    CO_ASSERT_OK(co_await os.Apply(TrimTxn("t", 0, 4 * 4096), {}));

    // Snapshot 1 freezes the half-trimmed state; then rewrite the head.
    SnapContext snapc;
    snapc.seq = 1;
    snapc.snaps = {1};
    const Bytes head = rng.RandomBytes(8 * 4096);
    CO_ASSERT_OK(co_await os.Apply(WriteTxn("t", 0, head), snapc));

    // The clone reads zeros where the head was trimmed pre-snapshot and
    // the preserved bytes elsewhere; the head reads the rewrite.
    auto snap = co_await os.ExecuteRead(ReadTxn("t", 0, 8 * 4096), 1);
    CO_ASSERT_OK(snap.status());
    EXPECT_TRUE(std::all_of(snap->data.begin(),
                            snap->data.begin() + 4 * 4096,
                            [](uint8_t b) { return b == 0; }));
    EXPECT_TRUE(std::equal(snap->data.begin() + 4 * 4096, snap->data.end(),
                           data.begin() + 4 * 4096));
    auto now = co_await os.ExecuteRead(ReadTxn("t", 0, 8 * 4096), kHeadSnap);
    CO_ASSERT_OK(now.status());
    EXPECT_EQ(now->data, head);

    // Remove reclaims the head extent in one piece even though parts of
    // it had been punched (clone extents stay allocated).
    Transaction rm;
    rm.oid = "t";
    OsdOp op;
    op.type = OsdOp::Type::kRemove;
    rm.ops.push_back(std::move(op));
    CO_ASSERT_OK(co_await os.Apply(rm, snapc));
    EXPECT_EQ(os.space().punched_bytes, 0u);
    EXPECT_LT(os.space().free_bytes, free_initial);  // clone still held
    co_await os.Drain();
  });
}

TEST(ObjectStoreTrim, DiscardOnlyTxnDoesNotMaterializeObject) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto nvme = std::make_shared<dev::NvmeDevice>();
    auto store = co_await ObjectStore::Open(nvme, SmallStore());
    auto& os = **store;
    CO_ASSERT_OK(co_await os.Apply(TrimTxn("ghost", 0, 64 * 4096), {}));
    EXPECT_FALSE(os.ObjectExists("ghost"));
    EXPECT_EQ(os.stats().objects_created, 0u);
  });
}

TEST(ObjectStoreTrim, TamperedDataBypassesTrimBookkeeping) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto nvme = std::make_shared<dev::NvmeDevice>();
    auto store = co_await ObjectStore::Open(nvme, SmallStore());
    auto& os = **store;
    Rng rng(6);
    CO_ASSERT_OK(co_await os.Apply(
        WriteTxn("t", 0, rng.RandomBytes(4 * 4096)), {}));
    // The attacker zeroes live bytes: no trimmed-map entry appears, no
    // capacity is released — the store just serves the zeroed bytes.
    CO_ASSERT_OK(os.TamperObjectData("t", 0, Bytes(4096, 0)));
    EXPECT_EQ(os.TrimmedBytes("t"), 0u);
    EXPECT_EQ(os.space().punched_bytes, 0u);
    auto got = co_await os.ExecuteRead(ReadTxn("t", 0, 4096), kHeadSnap);
    CO_ASSERT_OK(got.status());
    EXPECT_TRUE(std::all_of(got->data.begin(), got->data.end(),
                            [](uint8_t b) { return b == 0; }));
  });
}

// --- Partial-sector cache ---

// Object-end's IV record of in-object block `block`: 16 B in the metadata
// region past the 4 MiB of data. Records of blocks 1..255 share the
// region's first sector with a partial head (block 0 starts it aligned).
Transaction RecordTxn(const std::string& oid, uint64_t block, Rng& rng) {
  return WriteTxn(oid, (4ull << 20) + block * 16, rng.RandomBytes(16));
}

TEST(SectorCache, EvictsLeastRecentOfItsSetAndDropsRanges) {
  SectorCache cache(4);  // one 4-way set: every sector maps to it
  for (uint64_t s = 1; s <= 4; ++s) cache.Insert(s);
  EXPECT_TRUE(cache.Lookup(1));  // now the most recent
  cache.Insert(5);               // evicts 2, the least recent
  EXPECT_FALSE(cache.Lookup(2));
  for (uint64_t s : {1, 3, 4, 5}) EXPECT_TRUE(cache.Lookup(s)) << s;
  cache.Drop(3, 5);
  EXPECT_FALSE(cache.Lookup(3));
  EXPECT_FALSE(cache.Lookup(4));
  EXPECT_TRUE(cache.Lookup(5));
  cache.Drop(0, 1000);
  EXPECT_FALSE(cache.Lookup(1));
  EXPECT_FALSE(cache.Lookup(5));

  cache.Insert(uint64_t{1} << 32);  // past a 32-bit tag: never cached
  EXPECT_FALSE(cache.Lookup(uint64_t{1} << 32));
  EXPECT_FALSE(cache.Lookup(0));

  SectorCache off(0);
  off.Insert(7);
  EXPECT_FALSE(off.Lookup(7));
  off.Drop(0, 10);
}

// A second record write into the sector the first one left partial is a
// cache hit: no device read, one more sector_cache_hits.
TEST(ObjectStore, CachedRecordSectorNeedsNoDeviceRead) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto nvme = std::make_shared<dev::NvmeDevice>();
    auto store = co_await ObjectStore::Open(nvme, SmallStore());
    CO_ASSERT_OK(store.status());
    auto& os = **store;
    Rng rng(20);
    CO_ASSERT_OK(co_await os.Apply(RecordTxn("o", 1, rng), {}));
    co_await os.Drain();
    EXPECT_EQ(os.stats().rmw_sectors, 1u) << "a cold sector is read";
    EXPECT_EQ(os.stats().sector_cache_hits, 0u);
    const auto before = nvme->stats();
    CO_ASSERT_OK(co_await os.Apply(RecordTxn("o", 2, rng), {}));
    co_await os.Drain();
    EXPECT_EQ(os.stats().rmw_sectors, 1u);
    EXPECT_EQ(os.stats().sector_cache_hits, 1u);
    EXPECT_EQ(nvme->stats().sectors_read, before.sectors_read);
    EXPECT_EQ(nvme->stats().sectors_written - before.sectors_written, 2u)
        << "one journal sector and the record sector";
  });
}

// kTrim, kZero and kRemove drop the range's tags: the next partial write
// into the sector reads it from the device again.
TEST(ObjectStore, TrimZeroAndRemoveDropCachedSectors) {
  Transaction zero = TrimTxn("o", 4ull << 20, 4096);
  zero.ops[0].type = OsdOp::Type::kZero;
  const std::pair<const char*, Transaction> drops[] = {
      {"trim", TrimTxn("o", 4ull << 20, 4096)},
      {"zero", zero},
      {"remove", RemoveTxn("o")}};
  for (const auto& [name, drop] : drops) {
    SCOPED_TRACE(name);
    testutil::RunSim([&drop]() -> sim::Task<void> {
      auto nvme = std::make_shared<dev::NvmeDevice>();
      auto store = co_await ObjectStore::Open(nvme, SmallStore());
      CO_ASSERT_OK(store.status());
      auto& os = **store;
      Rng rng(21);
      CO_ASSERT_OK(co_await os.Apply(RecordTxn("o", 1, rng), {}));
      CO_ASSERT_OK(co_await os.Apply(drop, {}));
      CO_ASSERT_OK(co_await os.Apply(RecordTxn("o", 2, rng), {}));
      co_await os.Drain();
      EXPECT_EQ(os.stats().rmw_sectors, 2u);
      EXPECT_EQ(os.stats().sector_cache_hits, 0u);
    });
  }
}

// A sub-sector write that starts on a sector boundary still keeps the
// rest of its sector: object-end's block-0 IV record (16 B at 4 MiB) and a
// 100 B write at 4096 each read their one sector on a cold store.
TEST(ObjectStore, SubSectorWriteFromASectorStartReadsItsSector) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto nvme = std::make_shared<dev::NvmeDevice>();
    auto store = co_await ObjectStore::Open(nvme, SmallStore());
    CO_ASSERT_OK(store.status());
    auto& os = **store;
    Rng rng(24);
    CO_ASSERT_OK(co_await os.Apply(RecordTxn("o", 0, rng), {}));
    CO_ASSERT_OK(
        co_await os.Apply(WriteTxn("o", 4096, rng.RandomBytes(100)), {}));
    co_await os.Drain();
    EXPECT_EQ(os.stats().rmw_sectors, 2u);
    EXPECT_EQ(os.stats().sector_cache_hits, 0u);
  });
}

// The compressed unaligned layout's slot of in-object block `block`,
// written whole, with the tail past `stored` ciphertext bytes trimmed in
// the same transaction (core::EncryptionFormat::MakeWrite's shape). GCM
// with LZ keeps a 31 B record after each block, so slots are 4127 B apart
// and both edge sectors of a slot are partial.
constexpr uint64_t kLzSlot = 4096 + 31;

Transaction SlotTxn(const std::string& oid, uint64_t block, size_t stored,
                    Rng& rng) {
  Transaction txn = WriteTxn(oid, block * kLzSlot, rng.RandomBytes(kLzSlot));
  OsdOp trim;
  trim.type = OsdOp::Type::kTrim;
  trim.offset = block * kLzSlot + stored;
  trim.length = 4096 - stored;
  txn.ops.push_back(trim);
  return txn;
}

// A tail trim covers no whole sector of the slot, so it keeps the edge
// tags its own write cached: rewriting the slot reads nothing.
TEST(ObjectStore, SlotTailTrimKeepsTheEdgeTags) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto nvme = std::make_shared<dev::NvmeDevice>();
    auto store = co_await ObjectStore::Open(nvme, SmallStore());
    CO_ASSERT_OK(store.status());
    auto& os = **store;
    Rng rng(25);
    CO_ASSERT_OK(co_await os.Apply(SlotTxn("o", 1, 900, rng), {}));
    co_await os.Drain();
    const StoreStats stats = os.stats();
    const uint64_t read = nvme->stats().sectors_read;
    CO_ASSERT_OK(co_await os.Apply(SlotTxn("o", 1, 1500, rng), {}));
    co_await os.Drain();
    EXPECT_EQ(os.stats().rmw_sectors, stats.rmw_sectors);
    EXPECT_EQ(os.stats().sector_cache_hits - stats.sector_cache_hits, 2u);
    EXPECT_EQ(nvme->stats().sectors_read, read);
  });
}

// A device read tags the partial edge sectors it loaded: a slot read (its
// 4 KiB of data, as the client reads before a sub-block write) and then
// rewritten reads nothing more.
TEST(ObjectStore, ReadCachesItsPartialEdgeSectors) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto nvme = std::make_shared<dev::NvmeDevice>();
    auto store = co_await ObjectStore::Open(nvme, SmallStore());
    CO_ASSERT_OK(store.status());
    auto& os = **store;
    Rng rng(26);
    Transaction create;
    create.oid = "o";
    create.ops.emplace_back().type = OsdOp::Type::kCreate;
    CO_ASSERT_OK(co_await os.Apply(create, {}));
    CO_ASSERT_OK(
        (co_await os.ExecuteRead(ReadTxn("o", kLzSlot, 4096), kHeadSnap))
            .status());
    const uint64_t read = nvme->stats().sectors_read;
    CO_ASSERT_OK(co_await os.Apply(SlotTxn("o", 1, 700, rng), {}));
    co_await os.Drain();
    EXPECT_EQ(os.stats().rmw_sectors, 0u);
    EXPECT_EQ(os.stats().sector_cache_hits, 2u);
    EXPECT_EQ(nvme->stats().sectors_read, read);
  });
}

// Record writes and unaligned-stride writes, one at a time, then drained.
struct EdgeRun {
  dev::DeviceStats device;
  StoreStats store;
  sim::SimTime now = 0;
  bool finished = false;
};

EdgeRun RunEdgeWrites(size_t sector_cache_tags) {
  sim::Scheduler sched;
  sched.ConfigureCores(0);  // overrides VDE_SIM_CORES: the clock is pinned
  EdgeRun out;
  auto body = [&]() -> sim::Task<void> {
    StoreConfig cfg = SmallStore();
    cfg.sector_cache_tags = sector_cache_tags;
    auto nvme = std::make_shared<dev::NvmeDevice>();
    auto store = co_await ObjectStore::Open(nvme, cfg);
    CO_ASSERT_OK(store.status());
    auto& os = **store;
    Rng rng(22);
    for (int round = 0; round < 2; ++round) {
      for (uint64_t b = 1; b <= 8; ++b) {
        CO_ASSERT_OK(co_await os.Apply(RecordTxn("e", b, rng), {}));
        CO_ASSERT_OK(co_await os.Apply(
            WriteTxn("u", b * 4112, rng.RandomBytes(4112)), {}));
      }
    }
    co_await os.Drain();
    out.device = nvme->stats();
    out.store = os.stats();
    out.now = sched.now();
    out.finished = true;
  };
  sched.Spawn(body());
  sched.Run();
  EXPECT_TRUE(out.finished);
  return out;
}

// With no tags the store charges every partial edge as a device read:
// device counters and the sim clock are the values recorded before the
// cache existed (16 record heads and 16 head+tail pairs: 48 RMW reads, and
// one superblock read at open). With the cache, the same edges split into
// hits and misses, the writes stay, and the reads fall.
TEST(ObjectStore, SectorCacheOffKeepsUncachedCharges) {
  const EdgeRun off = RunEdgeWrites(0);
  EXPECT_EQ(off.store.rmw_sectors, 48u);
  EXPECT_EQ(off.store.sector_cache_hits, 0u);
  EXPECT_EQ(off.device.read_ops, 49u);
  EXPECT_EQ(off.device.sectors_read, 49u);
  EXPECT_EQ(off.device.write_ops, 65u);
  EXPECT_EQ(off.device.sectors_written, 97u);
  EXPECT_EQ(off.now, 11734837u);

  const EdgeRun on = RunEdgeWrites(4096);
  EXPECT_EQ(on.store.rmw_sectors + on.store.sector_cache_hits,
            off.store.rmw_sectors);
  EXPECT_GT(on.store.sector_cache_hits, 0u);
  EXPECT_EQ(on.device.sectors_read,
            off.device.sectors_read - on.store.sector_cache_hits);
  EXPECT_EQ(on.device.sectors_written, off.device.sectors_written);
  EXPECT_LE(on.now, off.now);
}

// More appends than the journal holds, all in flight at once: the appends
// that find it full checkpoint while others are still queued or being
// written. The journal resets only once idle, once per wrap, and every
// transaction commits with its data intact.
TEST(ObjectStore, JournalWrapWithAppendsInFlight) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto nvme = std::make_shared<dev::NvmeDevice>();
    StoreConfig cfg = SmallStore();
    cfg.journal_size = 1ull << 20;
    auto store = co_await ObjectStore::Open(nvme, cfg);
    CO_ASSERT_OK(store.status());
    auto& os = **store;
    Rng rng(23);
    constexpr int kTxns = 24;  // ~2.4 journals of 100 KiB frames
    std::vector<Bytes> payloads;
    std::vector<Status> results(kTxns);
    std::vector<sim::Task<void>> tasks;
    for (int i = 0; i < kTxns; ++i) {
      payloads.push_back(rng.RandomBytes(100 * 1024));
      tasks.push_back([](ObjectStore* os, Transaction txn,
                         Status* out) -> sim::Task<void> {
        *out = co_await os->Apply(txn, {});
      }(&os, WriteTxn(NumberedOid("w", i), 0, payloads.back()),
                        &results[i]));
    }
    co_await sim::WhenAll(std::move(tasks));
    for (const Status& s : results) CO_ASSERT_OK(s);
    EXPECT_EQ(os.stats().transactions, static_cast<uint64_t>(kTxns));
    for (int i = 0; i < kTxns; ++i) {
      auto got = co_await os.ExecuteRead(
          ReadTxn(NumberedOid("w", i), 0, payloads[i].size()), kHeadSnap);
      CO_ASSERT_OK(got.status());
      EXPECT_EQ(got->data, payloads[i]) << i;
    }
  });
}

// A tampered OMAP row commits on the kv lane like every other store kv
// write: started while an OMAP set holds the lane, it completes after it.
TEST(ObjectStore, TamperedRowQueuesOnTheKvLane) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto nvme = std::make_shared<dev::NvmeDevice>();
    auto store = co_await ObjectStore::Open(nvme, SmallStore());
    CO_ASSERT_OK(store.status());
    auto& os = **store;
    CO_ASSERT_OK(co_await os.Apply(OmapSetTxn("a", "k", "old"), {}));
    sim::SimTime set_done = 0, tamper_done = 0;
    std::vector<sim::Task<void>> tasks;
    tasks.push_back([](ObjectStore* os, sim::SimTime* done) -> sim::Task<void> {
      EXPECT_TRUE((co_await os->Apply(OmapSetTxn("b", "k", "v"), {})).ok());
      *done = sim::Scheduler::Current().now();
    }(&os, &set_done));
    tasks.push_back([](ObjectStore* os, sim::SimTime* done) -> sim::Task<void> {
      // The set journals (~20 us), then holds the lane for its 32 us
      // per-key charge and its kv WAL write.
      co_await sim::Sleep{30 * sim::kUs};
      EXPECT_TRUE(
          (co_await os->TamperOmapRow("a", BytesOf("k"), BytesOf("evil")))
              .ok());
      *done = sim::Scheduler::Current().now();
    }(&os, &tamper_done));
    co_await sim::WhenAll(std::move(tasks));
    EXPECT_GT(tamper_done, set_done);
    auto row = co_await os.PeekOmapRow("a", BytesOf("k"));
    CO_ASSERT_OK(row.status());
    EXPECT_EQ(*row, BytesOf("evil"));
  });
}

}  // namespace
}  // namespace vde::objstore
