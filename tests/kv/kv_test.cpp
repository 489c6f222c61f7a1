// Integration tests for the LSM store: WAL durability, flush, compaction,
// range scans, crash recovery, and model-based property checks.
#include <gtest/gtest.h>

#include <map>

#include "../testutil.h"

#include "device/nvme.h"
#include "device/region.h"
#include "kv/db.h"
#include "sim/scheduler.h"
#include "util/rng.h"

namespace vde::kv {
namespace {

KvOptions SmallOptions() {
  KvOptions o;
  o.wal_size = 256 * 1024;
  o.memtable_limit = 64 * 1024;
  o.l0_compaction_trigger = 3;
  o.block_size = 4096;
  return o;
}

TEST(KvStore, PutGetRoundtrip) {
  testutil::RunSim([]() -> sim::Task<void> {
    dev::NvmeDevice nvme;
    auto store = co_await KvStore::Open(nvme, SmallOptions());
    CO_ASSERT_OK(store.status());
    auto& kv = **store;
    EXPECT_TRUE((co_await kv.Put(BytesOf("key1"), BytesOf("value1"))).ok());
    auto got = co_await kv.Get(BytesOf("key1"));
    CO_ASSERT_TRUE(got.ok());
    CO_ASSERT_TRUE(got->has_value());
    EXPECT_EQ(**got, BytesOf("value1"));
    auto missing = co_await kv.Get(BytesOf("nope"));
    CO_ASSERT_TRUE(missing.ok());
    EXPECT_FALSE(missing->has_value());
  });
}

TEST(KvStore, DeleteHidesKey) {
  testutil::RunSim([]() -> sim::Task<void> {
    dev::NvmeDevice nvme;
    auto store = co_await KvStore::Open(nvme, SmallOptions());
    auto& kv = **store;
    (void)co_await kv.Put(BytesOf("k"), BytesOf("v"));
    (void)co_await kv.Delete(BytesOf("k"));
    auto got = co_await kv.Get(BytesOf("k"));
    CO_ASSERT_TRUE(got.ok());
    EXPECT_FALSE(got->has_value());
  });
}

TEST(KvStore, BatchIsAtomicInMemory) {
  testutil::RunSim([]() -> sim::Task<void> {
    dev::NvmeDevice nvme;
    auto store = co_await KvStore::Open(nvme, SmallOptions());
    auto& kv = **store;
    WriteBatch b;
    for (int i = 0; i < 100; ++i) {
      b.Put(BytesOf("key" + std::to_string(i)), BytesOf(std::to_string(i)));
    }
    EXPECT_TRUE((co_await kv.Write(std::move(b))).ok());
    for (int i = 0; i < 100; ++i) {
      auto got = co_await kv.Get(BytesOf("key" + std::to_string(i)));
      CO_ASSERT_TRUE(got.ok() && got->has_value());
    }
  });
}

TEST(KvStore, FlushMovesDataToTables) {
  testutil::RunSim([]() -> sim::Task<void> {
    dev::NvmeDevice nvme;
    auto store = co_await KvStore::Open(nvme, SmallOptions());
    auto& kv = **store;
    Rng rng(1);
    for (int i = 0; i < 50; ++i) {
      (void)co_await kv.Put(BytesOf("key" + std::to_string(i)),
                            rng.RandomBytes(100));
    }
    EXPECT_TRUE((co_await kv.Flush()).ok());
    EXPECT_EQ(kv.memtable_bytes(), 0u);
    EXPECT_GE(kv.l0_tables() + (kv.has_l1() ? 1 : 0), 1u);
    auto got = co_await kv.Get(BytesOf("key17"));
    CO_ASSERT_TRUE(got.ok());
    EXPECT_TRUE(got->has_value());
  });
}

TEST(KvStore, AutomaticFlushAndCompaction) {
  testutil::RunSim([]() -> sim::Task<void> {
    dev::NvmeDevice nvme;
    auto store = co_await KvStore::Open(nvme, SmallOptions());
    auto& kv = **store;
    Rng rng(2);
    // Write well past several memtable limits to force flushes/compactions.
    for (int i = 0; i < 600; ++i) {
      (void)co_await kv.Put(BytesOf("key" + std::to_string(i % 200)),
                            rng.RandomBytes(600));
    }
    EXPECT_GE(kv.stats().flushes, 3u);
    EXPECT_GE(kv.stats().compactions, 1u);
    // All 200 live keys still readable.
    for (int i = 0; i < 200; ++i) {
      auto got = co_await kv.Get(BytesOf("key" + std::to_string(i)));
      CO_ASSERT_TRUE(got.ok() && got->has_value());
    }
  });
}

TEST(KvStore, TombstonesSurviveFlushAndMaskTables) {
  testutil::RunSim([]() -> sim::Task<void> {
    dev::NvmeDevice nvme;
    auto store = co_await KvStore::Open(nvme, SmallOptions());
    auto& kv = **store;
    (void)co_await kv.Put(BytesOf("doomed"), BytesOf("v"));
    (void)co_await kv.Flush();  // value now in an SSTable
    (void)co_await kv.Delete(BytesOf("doomed"));
    (void)co_await kv.Flush();  // tombstone in a newer SSTable
    auto got = co_await kv.Get(BytesOf("doomed"));
    CO_ASSERT_TRUE(got.ok());
    EXPECT_FALSE(got->has_value());
  });
}

TEST(KvStore, ScanMergesAllLevels) {
  testutil::RunSim([]() -> sim::Task<void> {
    dev::NvmeDevice nvme;
    auto store = co_await KvStore::Open(nvme, SmallOptions());
    auto& kv = **store;
    (void)co_await kv.Put(BytesOf("a"), BytesOf("old"));
    (void)co_await kv.Put(BytesOf("b"), BytesOf("1"));
    (void)co_await kv.Flush();
    (void)co_await kv.Put(BytesOf("a"), BytesOf("new"));  // shadows table
    (void)co_await kv.Put(BytesOf("c"), BytesOf("2"));
    auto out = co_await kv.Scan(BytesOf("a"), BytesOf("zz"));
    CO_ASSERT_TRUE(out.ok());
    CO_ASSERT_EQ(out->size(), 3u);
    EXPECT_EQ((*out)[0].second, BytesOf("new"));
    EXPECT_EQ((*out)[1].second, BytesOf("1"));
    EXPECT_EQ((*out)[2].second, BytesOf("2"));
  });
}

TEST(KvStore, ScanHonorsLimitAndBounds) {
  testutil::RunSim([]() -> sim::Task<void> {
    dev::NvmeDevice nvme;
    auto store = co_await KvStore::Open(nvme, SmallOptions());
    auto& kv = **store;
    for (int i = 0; i < 20; ++i) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "k%02d", i);
      (void)co_await kv.Put(BytesOf(buf), BytesOf(std::to_string(i)));
    }
    auto out = co_await kv.Scan(BytesOf("k05"), BytesOf("k15"), 4);
    CO_ASSERT_TRUE(out.ok());
    CO_ASSERT_EQ(out->size(), 4u);
    EXPECT_EQ((*out)[0].first, BytesOf("k05"));
    EXPECT_EQ((*out)[3].first, BytesOf("k08"));
  });
}

TEST(KvStore, RecoversFromWalAfterCrash) {
  testutil::RunSim([]() -> sim::Task<void> {
    dev::NvmeDevice nvme;
    {
      auto store = co_await KvStore::Open(nvme, SmallOptions());
      auto& kv = **store;
      (void)co_await kv.Put(BytesOf("persisted"), BytesOf("yes"));
      (void)co_await kv.Put(BytesOf("also"), BytesOf("this"));
      // "Crash": drop the store without flushing. WAL has the data.
    }
    auto store = co_await KvStore::Open(nvme, SmallOptions());
    CO_ASSERT_OK(store.status());
    auto& kv = **store;
    auto got = co_await kv.Get(BytesOf("persisted"));
    CO_ASSERT_TRUE(got.ok());
    CO_ASSERT_TRUE(got->has_value());
    EXPECT_EQ(**got, BytesOf("yes"));
  });
}

TEST(KvStore, RecoversTablesAndWalAcrossGenerations) {
  testutil::RunSim([]() -> sim::Task<void> {
    dev::NvmeDevice nvme;
    {
      auto store = co_await KvStore::Open(nvme, SmallOptions());
      auto& kv = **store;
      (void)co_await kv.Put(BytesOf("in_table"), BytesOf("t"));
      (void)co_await kv.Flush();
      (void)co_await kv.Put(BytesOf("in_wal"), BytesOf("w"));
    }
    auto store = co_await KvStore::Open(nvme, SmallOptions());
    CO_ASSERT_TRUE(store.ok());
    auto& kv = **store;
    auto t = co_await kv.Get(BytesOf("in_table"));
    auto w = co_await kv.Get(BytesOf("in_wal"));
    CO_ASSERT_TRUE(t.ok() && t->has_value());
    CO_ASSERT_TRUE(w.ok() && w->has_value());
    // Stale WAL frames from before the flush must NOT resurrect: write
    // something, delete it, flush (wal reset), reopen.
    (void)co_await kv.Put(BytesOf("zombie"), BytesOf("alive"));
    (void)co_await kv.Delete(BytesOf("zombie"));
    (void)co_await kv.Flush();
    auto z = co_await kv.Get(BytesOf("zombie"));
    CO_ASSERT_TRUE(z.ok());
    EXPECT_FALSE(z->has_value());
  });
}

// Data blocks carry no checksum of their own: an entry length overwritten
// on the device must come back as Corruption from Get and Scan, never as a
// read past the block.
TEST(KvStore, CorruptTableEntryLengthIsCorruption) {
  testutil::RunSim([]() -> sim::Task<void> {
    dev::NvmeDevice nvme;
    const KvOptions options = SmallOptions();
    {
      auto store = co_await KvStore::Open(nvme, options);
      CO_ASSERT_OK(store.status());
      CO_ASSERT_OK(co_await (*store)->Put(BytesOf("key"), BytesOf("value")));
      CO_ASSERT_OK(co_await (*store)->Flush());
    }
    // The first table opens the data area, after the superblock sector and
    // the WAL. Its first entry is [klen u16][vlen u32][flags u8][key][value].
    const uint64_t table = nvme.sector_size() + options.wal_size;
    Bytes sector(nvme.sector_size());
    CO_ASSERT_OK(co_await nvme.Read(table, sector));
    CO_ASSERT_TRUE(Bytes(sector.begin() + 7, sector.begin() + 10) ==
                   BytesOf("key"));
    StoreU32Le(sector.data() + 2, 0x00FFFFFF);
    CO_ASSERT_OK(co_await nvme.Write(table, sector));

    auto store = co_await KvStore::Open(nvme, options);
    CO_ASSERT_OK(store.status());
    auto got = co_await (*store)->Get(BytesOf("key"));
    EXPECT_EQ(got.status().code(), StatusCode::kCorruption);
    auto scan = co_await (*store)->Scan({}, {});
    EXPECT_EQ(scan.status().code(), StatusCode::kCorruption);
  });
}

TEST(KvStore, ModelCheckRandomOps) {
  // Property test: the store must agree with a std::map model under a long
  // random mixed workload crossing many flush/compaction boundaries.
  testutil::RunSim([]() -> sim::Task<void> {
    dev::NvmeDevice nvme;
    auto store = co_await KvStore::Open(nvme, SmallOptions());
    auto& kv = **store;
    std::map<Bytes, Bytes> model;
    Rng rng(1234);
    for (int step = 0; step < 1500; ++step) {
      const uint64_t choice = rng.NextBelow(10);
      Bytes key = BytesOf("key" + std::to_string(rng.NextBelow(300)));
      if (choice < 6) {
        Bytes value = rng.RandomBytes(1 + rng.NextBelow(300));
        model[key] = value;
        CO_ASSERT_TRUE((co_await kv.Put(key, value)).ok());
      } else if (choice < 8) {
        model.erase(key);
        CO_ASSERT_TRUE((co_await kv.Delete(key)).ok());
      } else {
        auto got = co_await kv.Get(key);
        CO_ASSERT_TRUE(got.ok());
        const auto it = model.find(key);
        if (it == model.end()) {
          CO_ASSERT_FALSE(got->has_value());
        } else {
          CO_ASSERT_TRUE(got->has_value());
          CO_ASSERT_EQ(**got, it->second);
        }
      }
    }
    // Final full-range scan equals the model.
    auto out = co_await kv.Scan({}, {});
    CO_ASSERT_TRUE(out.ok());
    CO_ASSERT_EQ(out->size(), model.size());
    auto it = model.begin();
    for (size_t i = 0; i < out->size(); ++i, ++it) {
      CO_ASSERT_EQ((*out)[i].first, it->first);
      CO_ASSERT_EQ((*out)[i].second, it->second);
    }
  });
}

TEST(KvStore, ModelCheckSurvivesReopen) {
  testutil::RunSim([]() -> sim::Task<void> {
    dev::NvmeDevice nvme;
    std::map<Bytes, Bytes> model;
    Rng rng(777);
    for (int round = 0; round < 3; ++round) {
      auto store = co_await KvStore::Open(nvme, SmallOptions());
      CO_ASSERT_TRUE(store.ok());
      auto& kv = **store;
      for (int step = 0; step < 300; ++step) {
        Bytes key = BytesOf("k" + std::to_string(rng.NextBelow(100)));
        if (rng.NextBelow(4) == 0) {
          model.erase(key);
          CO_ASSERT_TRUE((co_await kv.Delete(key)).ok());
        } else {
          Bytes value = rng.RandomBytes(1 + rng.NextBelow(100));
          model[key] = value;
          CO_ASSERT_TRUE((co_await kv.Put(key, value)).ok());
        }
      }
      auto out = co_await kv.Scan({}, {});
      CO_ASSERT_TRUE(out.ok());
      CO_ASSERT_EQ(out->size(), model.size());
    }
  });
}

TEST(KvStore, WalCommitsChargeDeviceWrites) {
  testutil::RunSim([]() -> sim::Task<void> {
    dev::NvmeDevice nvme;
    auto store = co_await KvStore::Open(nvme, SmallOptions());
    auto& kv = **store;
    const auto before = nvme.stats().write_ops;
    (void)co_await kv.Put(BytesOf("k"), BytesOf("v"));
    EXPECT_GT(nvme.stats().write_ops, before)
        << "a committed put must hit the device (WAL)";
  });
}

TEST(KvStore, BloomFiltersSkipTables) {
  testutil::RunSim([]() -> sim::Task<void> {
    dev::NvmeDevice nvme;
    auto store = co_await KvStore::Open(nvme, SmallOptions());
    auto& kv = **store;
    for (int i = 0; i < 100; ++i) {
      (void)co_await kv.Put(BytesOf("present" + std::to_string(i)),
                            BytesOf("v"));
    }
    (void)co_await kv.Flush();
    // Absent keys chosen INSIDE the table's [min,max] key range, so only the
    // bloom filter (not the range check) can skip the table.
    for (int i = 0; i < 200; ++i) {
      (void)co_await kv.Get(BytesOf("present" + std::to_string(i % 90) + "q"));
    }
    EXPECT_GT(kv.stats().bloom_skips, 150u)
        << "most absent-key lookups should be answered by the bloom filter";
  });
}

// ScanPrefix must return exactly the keys sharing the prefix — keys that
// compare between the prefix and its successor but do NOT extend it
// (shorter keys, diverging bytes) stay out, and the derived upper bound
// handles the tricky byte values (0xFF tails, empty prefix).
TEST(KvStore, ScanPrefixBoundaries) {
  testutil::RunSim([]() -> sim::Task<void> {
    dev::NvmeDevice nvme;
    auto store = co_await KvStore::Open(nvme, SmallOptions());
    auto& kv = **store;
    // Neighbors around the "ab" prefix in byte order: "aa…" below,
    // "ab" itself + extensions inside, "ac" first key above.
    const std::vector<std::string> keys = {"aa", "aaz", "ab",   "ab\x01",
                                           "abc", "abz", "ac", "b"};
    for (const auto& k : keys) {
      (void)co_await kv.Put(BytesOf(k), BytesOf("v:" + k));
    }
    // Half in tables, half in the memtable: the scan must merge both.
    (void)co_await kv.Flush();
    (void)co_await kv.Put(BytesOf("abm"), BytesOf("v:abm"));

    auto hits = co_await kv.ScanPrefix(BytesOf("ab"));
    CO_ASSERT_OK(hits.status());
    std::vector<std::string> got;
    for (const auto& [k, v] : *hits) {
      got.emplace_back(k.begin(), k.end());
    }
    const std::vector<std::string> want = {"ab", "ab\x01", "abc", "abm",
                                           "abz"};
    EXPECT_EQ(got, want);

    // `limit` truncates the ordered result, it never widens it.
    auto limited = co_await kv.ScanPrefix(BytesOf("ab"), 2);
    CO_ASSERT_OK(limited.status());
    CO_ASSERT_EQ(limited->size(), 2u);
    EXPECT_EQ((*limited)[0].first, BytesOf("ab"));
    EXPECT_EQ((*limited)[1].first, BytesOf("ab\x01"));
  });
}

TEST(KvStore, ScanPrefixHighBytesAndEmptyPrefix) {
  testutil::RunSim([]() -> sim::Task<void> {
    dev::NvmeDevice nvme;
    auto store = co_await KvStore::Open(nvme, SmallOptions());
    auto& kv = **store;
    // A prefix ending in 0xFF has no same-length successor: the upper
    // bound must come from incrementing an earlier byte.
    Bytes hi = {0x61, 0xFF};          // "a\xFF"
    Bytes inside1 = {0x61, 0xFF};     // the prefix itself
    Bytes inside2 = {0x61, 0xFF, 0x00};
    Bytes inside3 = {0x61, 0xFF, 0xFF};
    Bytes outside = {0x62};           // "b" — next after bumping 0x61
    (void)co_await kv.Put(inside1, BytesOf("1"));
    (void)co_await kv.Put(inside2, BytesOf("2"));
    (void)co_await kv.Put(inside3, BytesOf("3"));
    (void)co_await kv.Put(outside, BytesOf("x"));

    auto hits = co_await kv.ScanPrefix(hi);
    CO_ASSERT_OK(hits.status());
    CO_ASSERT_EQ(hits->size(), 3u);
    EXPECT_EQ((*hits)[0].first, inside1);
    EXPECT_EQ((*hits)[2].first, inside3);

    // All-0xFF prefix: everything >= it (nothing here but the probe key).
    Bytes all_ff = {0xFF, 0xFF};
    (void)co_await kv.Put(all_ff, BytesOf("top"));
    auto top = co_await kv.ScanPrefix(all_ff);
    CO_ASSERT_OK(top.status());
    CO_ASSERT_EQ(top->size(), 1u);
    EXPECT_EQ((*top)[0].first, all_ff);

    // Empty prefix scans the whole keyspace, deletions excluded.
    (void)co_await kv.Delete(inside2);
    auto all = co_await kv.ScanPrefix(Bytes{});
    CO_ASSERT_OK(all.status());
    EXPECT_EQ(all->size(), 4u);
  });
}

// Writers that overlap a memtable flush keep their rows: 64 puts started
// 7 us apart, against a memtable that fills every few puts, so flushes
// run while later puts are between their WAL append and their memtable
// insert. Every row reads back, before and after a reopen.
TEST(KvStore, WritesOverlappingAFlushKeepTheirRows) {
  testutil::RunSim([]() -> sim::Task<void> {
    dev::NvmeDevice nvme;
    KvOptions options = SmallOptions();
    options.memtable_limit = 4096;
    constexpr int kPuts = 64;
    const auto key = [](int i) { return BytesOf("key" + std::to_string(i)); };
    {
      auto store = co_await KvStore::Open(nvme, options);
      CO_ASSERT_OK(store.status());
      auto& kv = **store;
      std::vector<Status> results(kPuts);
      std::vector<sim::Task<void>> puts;
      for (int i = 0; i < kPuts; ++i) {
        puts.push_back([](KvStore* kv, int i, Bytes k,
                          Status* out) -> sim::Task<void> {
          co_await sim::Sleep{static_cast<sim::SimTime>(i) * 7 * sim::kUs};
          *out = co_await kv->Put(std::move(k), Bytes(200, uint8_t(i)));
        }(&kv, i, key(i), &results[i]));
      }
      co_await sim::WhenAll(std::move(puts));
      for (const Status& s : results) CO_ASSERT_OK(s);
      EXPECT_GT(kv.stats().flushes, 1u);
      auto all = co_await kv.Scan({}, {});
      CO_ASSERT_OK(all.status());
      EXPECT_EQ(all->size(), size_t{kPuts});
    }
    auto reopened = co_await KvStore::Open(nvme, options);
    CO_ASSERT_OK(reopened.status());
    for (int i = 0; i < kPuts; ++i) {
      auto got = co_await (*reopened)->Get(key(i));
      CO_ASSERT_OK(got.status());
      CO_ASSERT_TRUE(got->has_value());
      EXPECT_EQ(**got, Bytes(200, uint8_t(i)));
    }
  });
}

// Reads that overlap flushes and compactions see the table set they
// started with: 40 puts, then 100 puts and 100 reads started 3 us apart,
// against a memtable that fills every few puts and a compaction every
// third flush. A read whose table set a flush grows or a compaction
// replaces mid-lookup must still find its key's latest value (reads touch
// only keys no write in flight touches; every tenth read is a scan).
TEST(KvStore, ReadsOverlappingFlushAndCompactionSeeTheirTables) {
  testutil::RunSim([]() -> sim::Task<void> {
    dev::NvmeDevice nvme;
    KvOptions options = SmallOptions();
    options.memtable_limit = 4096;
    options.l0_compaction_trigger = 3;
    constexpr int kSettled = 40;
    constexpr int kOps = 100;
    const auto key = [](const char* space, int i) {
      return BytesOf(std::string(space) + std::to_string(i));
    };
    const auto value = [](int i) { return Bytes(200, uint8_t(i)); };
    auto store = co_await KvStore::Open(nvme, options);
    CO_ASSERT_OK(store.status());
    auto& kv = **store;
    for (int i = 0; i < kSettled; ++i) {
      CO_ASSERT_OK(co_await kv.Put(key("settled.", i), value(i)));
    }
    std::vector<Status> puts(kOps);
    std::vector<int> good_reads(kOps, 0);
    std::vector<sim::Task<void>> ops;
    for (int i = 0; i < kOps; ++i) {
      const sim::SimTime at = static_cast<sim::SimTime>(2 * i) * 3 * sim::kUs;
      ops.push_back([](KvStore* kv, sim::SimTime at, Bytes k, Bytes v,
                       Status* out) -> sim::Task<void> {
        co_await sim::Sleep{at};
        *out = co_await kv->Put(std::move(k), std::move(v));
      }(&kv, at, key("fresh.", i), value(i), &puts[i]));
      ops.push_back([](KvStore* kv, sim::SimTime at, int i, Bytes k, Bytes want,
                       int* good) -> sim::Task<void> {
        co_await sim::Sleep{at + 3 * sim::kUs};
        if (i % 10 == 0) {
          auto rows = co_await kv->ScanPrefix(BytesOf("settled."));
          *good = rows.ok() && rows->size() == size_t{kSettled};
          co_return;
        }
        auto got = co_await kv->Get(std::move(k));
        *good = got.ok() && got->has_value() && **got == want;
      }(&kv, at, i, key("settled.", i % kSettled), value(i % kSettled),
                     &good_reads[i]));
    }
    co_await sim::WhenAll(std::move(ops));
    for (const Status& s : puts) CO_ASSERT_OK(s);
    for (int i = 0; i < kOps; ++i) EXPECT_EQ(good_reads[i], 1) << "read " << i;
    EXPECT_GT(kv.stats().flushes, 3u);
    EXPECT_GT(kv.stats().compactions, 0u);
  });
}

}  // namespace
}  // namespace vde::kv
