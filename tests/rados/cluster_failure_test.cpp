// Failure + recovery + cluster QoS: degraded writes, client map refresh on
// dead/mispointed primaries, background and inline recovery, the recovery
// throttle, and OSD op-shard admission (the qos-off clock, mClock identity,
// caps, reservations, and the rbd tenant plumb-through).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "../testutil.h"
#include "core/format.h"
#include "rados/cluster.h"
#include "rbd/image.h"
#include "util/rng.h"

namespace vde::rados {
namespace {

using testutil::TestCluster;

TEST(ClusterFailure, WritesKeepCommittingAfterOsdLoss) {
  testutil::RunSim([]() -> sim::Task<void> {
    ClusterConfig config = TestCluster();
    // Recovery off so the replacement member stays missing the object for
    // the duration of the test (deterministic degraded window).
    config.recovery.parallelism = 0;
    auto cluster = co_await Cluster::Create(config);
    CO_ASSERT_OK(cluster.status());
    auto io = (*cluster)->ioctx();
    Rng rng(7);
    const Bytes data = rng.RandomBytes(16384);
    CO_ASSERT_OK(co_await io.WriteFull("deg", data));
    const auto acting = (*cluster)->placement().OsdsFor("deg");

    (*cluster)->MarkOsdDown(acting[1]);
    // The write commits on the survivors; the primary is unchanged, so no
    // redirect is needed, but it lands below full width: the same-node
    // replacement never saw the object.
    CO_ASSERT_OK(co_await io.WriteFull("deg", data));
    EXPECT_GT((*cluster)->stats().degraded_writes, 0u);
    EXPECT_GT((*cluster)->stats().skipped_replicas, 0u);

    auto back = co_await io.Read("deg", 0, data.size());
    CO_ASSERT_OK(back.status());
    EXPECT_EQ(*back, data);
  });
}

TEST(ClusterFailure, DeadPrimaryCostsTimeoutThenMapRefresh) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto cluster = co_await Cluster::Create(TestCluster());
    CO_ASSERT_OK(cluster.status());
    auto io = (*cluster)->ioctx();
    Rng rng(8);
    const Bytes data = rng.RandomBytes(4096);
    CO_ASSERT_OK(co_await io.WriteFull("redirect", data));
    const auto acting = (*cluster)->placement().OsdsFor("redirect");

    // Kill the primary. The client's cached map still points at it: the
    // next op pays the connect timeout, refreshes, and lands on the new
    // primary (same node, by the movement bound).
    (*cluster)->MarkOsdDown(acting[0]);
    const uint64_t stale_epoch = (*cluster)->client_map().epoch();
    CO_ASSERT_OK(co_await io.WriteFull("redirect", data));
    EXPECT_GT((*cluster)->stats().osd_timeouts, 0u);
    EXPECT_GT((*cluster)->stats().map_refreshes, 0u);
    EXPECT_GT((*cluster)->client_map().epoch(), stale_epoch);

    const auto now_acting = (*cluster)->placement().OsdsFor("redirect");
    EXPECT_NE(now_acting[0], acting[0]);
    auto back = co_await io.Read("redirect", 0, data.size());
    CO_ASSERT_OK(back.status());
    EXPECT_EQ(*back, data);
    co_await (*cluster)->Drain();
  });
}

TEST(ClusterFailure, BackgroundRecoveryRestoresFullWidth) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto cluster = co_await Cluster::Create(TestCluster());
    CO_ASSERT_OK(cluster.status());
    auto io = (*cluster)->ioctx();
    Rng rng(9);
    std::vector<std::string> oids;
    const Bytes data = rng.RandomBytes(32768);
    for (int i = 0; i < 24; ++i) {
      oids.push_back("bg." + std::to_string(i));
      CO_ASSERT_OK(co_await io.WriteFull(oids.back(), data));
    }
    const auto victim_acting = (*cluster)->placement().OsdsFor(oids[0]);
    (*cluster)->MarkOsdDown(victim_acting[0]);
    EXPECT_GT((*cluster)->DegradedObjectCount(), 0u);

    co_await (*cluster)->WaitForClean();
    EXPECT_EQ((*cluster)->DegradedObjectCount(), 0u);
    EXPECT_GT((*cluster)->recovery().stats().objects_pushed, 0u);
    // Every object is back at full width on its (possibly new) acting set.
    for (const auto& oid : oids) {
      const auto acting = (*cluster)->placement().OsdsFor(oid);
      CO_ASSERT_EQ(acting.size(), 3u);
      for (size_t id : acting) {
        EXPECT_TRUE((*cluster)->osd(id).store().ObjectExists(oid))
            << oid << " on osd " << id;
        EXPECT_EQ((*cluster)->osd(id).store().ObjectSize(oid), data.size());
      }
    }
    co_await (*cluster)->Drain();
  });
}

TEST(ClusterFailure, RevivedOsdCatchesUpOnMissedWrites) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto cluster = co_await Cluster::Create(TestCluster());
    CO_ASSERT_OK(cluster.status());
    auto io = (*cluster)->ioctx();
    Rng rng(10);
    const Bytes v1 = rng.RandomBytes(8192);
    const Bytes v2 = rng.RandomBytes(8192);
    CO_ASSERT_OK(co_await io.WriteFull("revive", v1));
    const auto acting = (*cluster)->placement().OsdsFor("revive");

    (*cluster)->MarkOsdDown(acting[2]);
    CO_ASSERT_OK(co_await io.WriteFull("revive", v2));  // missed by acting[2]
    co_await (*cluster)->WaitForClean();

    (*cluster)->MarkOsdUp(acting[2]);
    co_await (*cluster)->WaitForClean();
    // Peering on the way back up flags the stale copy; recovery replaces it.
    objstore::Transaction read;
    read.oid = "revive";
    objstore::OsdOp op;
    op.type = objstore::OsdOp::Type::kRead;
    op.offset = 0;
    op.length = v2.size();
    read.ops.push_back(std::move(op));
    auto direct = co_await (*cluster)->osd(acting[2]).store().ExecuteRead(
        read, objstore::kHeadSnap);
    CO_ASSERT_OK(direct.status());
    EXPECT_EQ(direct->data, v2);
    co_await (*cluster)->Drain();
  });
}

TEST(ClusterFailure, PrimaryMissingObjectPullsInline) {
  testutil::RunSim([]() -> sim::Task<void> {
    ClusterConfig config = TestCluster();
    // No background workers: the only way a degraded object heals is a
    // client op forcing the primary's inline pull.
    config.recovery.parallelism = 0;
    auto cluster = co_await Cluster::Create(config);
    CO_ASSERT_OK(cluster.status());
    auto io = (*cluster)->ioctx();
    Rng rng(11);
    const Bytes data = rng.RandomBytes(16384);
    CO_ASSERT_OK(co_await io.WriteFull("inline", data));
    const auto acting = (*cluster)->placement().OsdsFor("inline");

    // New primary (same node as the dead one) has never seen the object.
    (*cluster)->MarkOsdDown(acting[0]);
    auto back = co_await io.Read("inline", 0, data.size());
    CO_ASSERT_OK(back.status());
    EXPECT_EQ(*back, data);
    EXPECT_GT((*cluster)->recovery().stats().inline_pulls, 0u);
    const auto now_acting = (*cluster)->placement().OsdsFor("inline");
    EXPECT_TRUE(
        (*cluster)->osd(now_acting[0]).store().ObjectExists("inline"));
  });
}

TEST(ClusterFailure, RecoveryRespectsTokenBucketThrottle) {
  testutil::RunSim([]() -> sim::Task<void> {
    ClusterConfig config = TestCluster();
    // 1 MiB/s with a 64 KiB burst: pushing ~24 x 64 KiB must take >= 1 s of
    // sim time even though the NICs could move it in milliseconds.
    config.recovery.rate_bytes_per_sec = 1.0 * (1 << 20);
    config.recovery.burst_bytes = 64.0 * 1024;
    auto cluster = co_await Cluster::Create(config);
    CO_ASSERT_OK(cluster.status());
    auto io = (*cluster)->ioctx();
    Rng rng(12);
    const Bytes data = rng.RandomBytes(64 * 1024);
    std::vector<std::string> oids;
    for (int i = 0; i < 24; ++i) {
      oids.push_back("thr." + std::to_string(i));
      CO_ASSERT_OK(co_await io.WriteFull(oids.back(), data));
    }
    const auto acting = (*cluster)->placement().OsdsFor(oids[0]);
    const sim::SimTime t0 = sim::Scheduler::Current().now();
    (*cluster)->MarkOsdDown(acting[0]);
    co_await (*cluster)->WaitForClean();
    const sim::SimTime elapsed = sim::Scheduler::Current().now() - t0;
    const auto& rs = (*cluster)->recovery().stats();
    EXPECT_GT(rs.bytes_pushed, 0u);
    // bytes / rate, minus the burst the bucket started with.
    const double floor_s =
        (static_cast<double>(rs.bytes_pushed) - 64.0 * 1024) / (1 << 20);
    EXPECT_GT(static_cast<double>(elapsed) / 1e9, floor_s * 0.9);
    co_await (*cluster)->Drain();
  });
}

// Arena pages that the devices of every OSD hold in their journal region.
size_t JournalPages(Cluster& cluster, const ClusterConfig& config) {
  size_t pages = 0;
  for (size_t id = 0; id < cluster.osd_count(); ++id) {
    const dev::NvmeDevice& device = cluster.osd(id).device();
    for (uint64_t off = 0; off < config.store.journal_size;
         off += dev::SparseRam::kPageSize) {
      if (device.PeekPageRefs(off) > 0) ++pages;
    }
  }
  return pages;
}

// Reads `ext` from one OSD's store and authenticates it.
sim::Task<Status> ReadOnOsd(Cluster& cluster, size_t id,
                            core::EncryptionFormat& format,
                            const core::ObjectExtent& ext, MutByteSpan out) {
  objstore::Transaction read;
  read.oid = ext.oid;
  format.MakeRead(ext, read);
  auto result =
      co_await cluster.osd(id).store().ExecuteRead(read, objstore::kHeadSnap);
  if (!result.ok()) co_return result.status();
  co_return format.FinishRead(ext, *result, out);
}

// A recovery push ships the source replica's pages, not a copy: after an
// OSD loss under object-end+HMAC objects, each new member holds the
// survivors' pages (the arena grows by at most one partial tail page per
// object beyond the journals' own pages, not 1,024 per object), every
// pushed object authenticates there, and tampering with the new member's
// copy fails its reads only.
TEST(ClusterFailure, RecoveryPushesShareTheSourcesPages) {
  testutil::RunSim([]() -> sim::Task<void> {
    const ClusterConfig config = TestCluster();
    auto cluster = co_await Cluster::Create(config);
    CO_ASSERT_OK(cluster.status());
    core::EncryptionSpec spec;
    spec.mode = core::CipherMode::kXtsRandom;
    spec.layout = core::IvLayout::kObjectEnd;
    spec.integrity = core::Integrity::kHmac;
    spec.iv_seed = 1;
    constexpr uint64_t kObjectSize = 4ull << 20;
    auto format = core::MakeFormat(spec, Rng(5).RandomBytes(64), kObjectSize);
    auto io = (*cluster)->ioctx();
    constexpr int kObjects = 6;
    std::vector<core::ObjectExtent> exts;
    std::vector<Bytes> plains;
    for (int i = 0; i < kObjects; ++i) {
      core::ObjectExtent ext;
      ext.oid = "push." + std::to_string(i);
      ext.first_block = 0;
      ext.block_count = kObjectSize / core::kBlockSize;
      ext.image_block = i * ext.block_count;
      plains.push_back(Rng(10 + i).RandomBytes(kObjectSize));
      objstore::Transaction txn;
      CO_ASSERT_OK(format->MakeWrite(ext, plains.back(), txn));
      CO_ASSERT_OK(co_await io.Operate(ext.oid, std::move(txn), {}));
      exts.push_back(ext);
    }
    co_await (*cluster)->Drain();
    std::vector<std::vector<size_t>> before;
    for (const auto& ext : exts) {
      before.push_back((*cluster)->placement().OsdsFor(ext.oid));
    }
    const size_t live = dev::SparseRam::ArenaLivePages();
    const size_t journal = JournalPages(**cluster, config);

    (*cluster)->MarkOsdDown(before[0][1]);
    co_await (*cluster)->WaitForClean();
    co_await (*cluster)->Drain();
    const uint64_t pushed = (*cluster)->recovery().stats().objects_pushed;
    EXPECT_GT(pushed, 0u);
    const int64_t growth =
        static_cast<int64_t>(dev::SparseRam::ArenaLivePages()) -
        static_cast<int64_t>(live);
    const int64_t journal_growth =
        static_cast<int64_t>(JournalPages(**cluster, config)) -
        static_cast<int64_t>(journal);
    EXPECT_LE(growth, journal_growth + static_cast<int64_t>(pushed));

    // Every pushed object authenticates on its new member, from pages it
    // shares with the survivors.
    std::vector<std::pair<size_t, size_t>> moved;  // (object, new member)
    for (size_t i = 0; i < exts.size(); ++i) {
      for (size_t id : (*cluster)->placement().OsdsFor(exts[i].oid)) {
        if (std::find(before[i].begin(), before[i].end(), id) ==
            before[i].end()) {
          moved.emplace_back(i, id);
        }
      }
    }
    EXPECT_EQ(moved.size(), pushed);
    Bytes out(kObjectSize);
    for (const auto& [i, id] : moved) {
      CO_ASSERT_OK(co_await ReadOnOsd(**cluster, id, *format, exts[i], out));
      EXPECT_EQ(out, plains[i]) << exts[i].oid;
      EXPECT_GE((*cluster)->osd(id).store().PeekPageRefs(exts[i].oid, 0)
                    .value(),
                2u)
          << exts[i].oid;
    }

    CO_ASSERT_TRUE(!moved.empty());
    const auto [i, fresh] = moved.front();
    objstore::ObjectStore& victim = (*cluster)->osd(fresh).store();
    auto byte = victim.PeekObjectData(exts[i].oid, 5000, 1);
    CO_ASSERT_OK(byte.status());
    (*byte)[0] ^= 0x01;
    CO_ASSERT_OK(victim.TamperObjectData(exts[i].oid, 5000, *byte));
    for (size_t id : (*cluster)->placement().OsdsFor(exts[i].oid)) {
      const Status s = co_await ReadOnOsd(**cluster, id, *format, exts[i], out);
      if (id == fresh) {
        EXPECT_EQ(s.code(), StatusCode::kCorruption) << "osd " << id;
      } else {
        EXPECT_TRUE(s.ok()) << "osd " << id << ": " << s.ToString();
        EXPECT_EQ(out, plains[i]) << "osd " << id;
      }
    }
  });
}

// Overwrites `oid` at `offset` through the replicated write path.
sim::Task<Status> WriteAt(IoCtx& io, const std::string& oid, uint64_t offset,
                          Bytes data) {
  objstore::Transaction txn;
  objstore::OsdOp op;
  op.type = objstore::OsdOp::Type::kWrite;
  op.offset = offset;
  op.length = data.size();
  op.data = std::move(data);
  txn.ops.push_back(std::move(op));
  co_return co_await io.Operate(oid, std::move(txn), {});
}

// A write that lands while a push of its object waits in the throttle
// makes that push stale: the pages it recorded keep the old bytes (the
// source copies a page before writing it), and the object is pushed again.
// Once clean every member holds the same bytes, the write's included.
TEST(ClusterFailure, StalePushLeavesEveryMemberIdentical) {
  testutil::RunSim([]() -> sim::Task<void> {
    ClusterConfig config = TestCluster();
    // The first push overdraws the bucket; the next ones wait for it.
    config.recovery.rate_bytes_per_sec = 1.0 * (1 << 20);
    config.recovery.burst_bytes = 16.0 * 1024;
    auto cluster = co_await Cluster::Create(config);
    CO_ASSERT_OK(cluster.status());
    auto io = (*cluster)->ioctx();
    std::vector<std::string> oids;
    std::vector<Bytes> want;
    for (int i = 0; i < 48; ++i) {
      oids.push_back("stale." + std::to_string(i));
      want.push_back(Rng(40 + i).RandomBytes(64 * 1024));
      CO_ASSERT_OK(co_await io.WriteFull(oids.back(), want.back()));
    }
    co_await (*cluster)->Drain();
    const size_t victim = (*cluster)->placement().OsdsFor(oids[0])[1];
    (*cluster)->MarkOsdDown(victim);
    co_await sim::Sleep{sim::kMs};
    const Bytes patch = Rng(60).RandomBytes(6000);
    for (size_t i = 0; i < oids.size(); ++i) {
      CO_ASSERT_OK(co_await WriteAt(io, oids[i], 3000, patch));
      std::copy(patch.begin(), patch.end(), want[i].begin() + 3000);
    }
    co_await (*cluster)->WaitForClean();
    co_await (*cluster)->Drain();
    EXPECT_GT((*cluster)->recovery().stats().stale_pushes, 0u);
    for (size_t i = 0; i < oids.size(); ++i) {
      for (size_t id : (*cluster)->placement().OsdsFor(oids[i])) {
        const objstore::ObjectStore& store = (*cluster)->osd(id).store();
        EXPECT_EQ(store.ObjectSize(oids[i]), want[i].size())
            << oids[i] << " on osd " << id;
        auto bytes = store.PeekObjectData(oids[i], 0, want[i].size());
        CO_ASSERT_OK(bytes.status());
        EXPECT_EQ(*bytes, want[i]) << oids[i] << " on osd " << id;
      }
    }
  });
}

// Runs `ops` sequential 16 KiB writes and returns the sim-clock duration.
sim::Task<sim::SimTime> TimedWrites(Cluster& cluster, int ops,
                                    uint64_t tenant) {
  auto io = cluster.ioctx(tenant);
  Rng rng(13);
  const Bytes data = rng.RandomBytes(16384);
  const sim::SimTime t0 = sim::Scheduler::Current().now();
  for (int i = 0; i < ops; ++i) {
    Status s = co_await io.WriteFull("qos." + std::to_string(i), data);
    if (!s.ok()) co_return 0;
  }
  co_return sim::Scheduler::Current().now() - t0;
}

TEST(ClusterQos, SingleDefaultTenantMatchesDisabledClock) {
  sim::SimTime base = 0, mclock = 0;
  testutil::RunSim([&]() -> sim::Task<void> {
    auto cluster = co_await Cluster::Create(TestCluster());
    CO_ASSERT_OK(cluster.status());
    base = co_await TimedWrites(**cluster, 48, 0);
    co_await (*cluster)->Drain();
  });
  testutil::RunSim([&]() -> sim::Task<void> {
    ClusterConfig config = TestCluster();
    config.qos.enabled = true;  // one untagged tenant, no caps
    auto cluster = co_await Cluster::Create(config);
    CO_ASSERT_OK(cluster.status());
    mclock = co_await TimedWrites(**cluster, 48, 0);
    co_await (*cluster)->Drain();
  });
  ASSERT_GT(base, 0u);
  EXPECT_EQ(base, mclock)
      << "mClock with a single uncapped tenant must not move the clock";
}

TEST(ClusterQos, LimitCapsTenantThroughput) {
  testutil::RunSim([]() -> sim::Task<void> {
    ClusterConfig config = TestCluster();
    config.qos.enabled = true;
    config.qos.tenants.push_back(
        TenantSpec{/*id=*/1, /*reservation_iops=*/0, /*weight=*/1.0,
                   /*limit_iops=*/100});
    auto cluster = co_await Cluster::Create(config);
    CO_ASSERT_OK(cluster.status());
    // The limit clock is per OSD (as in Ceph's dmclock): hammer one object
    // so every op lands on the same primary's L tag chain.
    auto io = (*cluster)->ioctx(1);
    Rng rng(13);
    const Bytes data = rng.RandomBytes(16384);
    const sim::SimTime t0 = sim::Scheduler::Current().now();
    for (int i = 0; i < 51; ++i) {
      CO_ASSERT_OK(co_await io.WriteFull("qos.limit", data));
    }
    const sim::SimTime elapsed = sim::Scheduler::Current().now() - t0;
    // 51 ops at 100 IOPS: >= 0.5 s of limit spacing.
    EXPECT_GT(elapsed, static_cast<sim::SimTime>(450) * sim::kMs);
    co_await (*cluster)->Drain();
  });
}

TEST(ClusterQos, ReservationShieldsVictimFromGreedyNeighbor) {
  testutil::RunSim([]() -> sim::Task<void> {
    ClusterConfig config = TestCluster();
    config.qos.enabled = true;
    config.qos.tenants.push_back(
        TenantSpec{/*id=*/1, /*reservation_iops=*/0, /*weight=*/8.0,
                   /*limit_iops=*/0});  // greedy
    config.qos.tenants.push_back(
        TenantSpec{/*id=*/2, /*reservation_iops=*/2000, /*weight=*/1.0,
                   /*limit_iops=*/0});  // victim with a floor
    auto cluster = co_await Cluster::Create(config);
    CO_ASSERT_OK(cluster.status());

    // Saturate every OSD with greedy traffic, then measure the victim.
    bool stop = false;
    sim::WaitGroup wg;
    for (int w = 0; w < 64; ++w) {
      wg.Add(1);
      sim::Scheduler::Current().Spawn(
          [](Cluster* c, bool* stop, sim::WaitGroup* wg,
             int seed) -> sim::Task<void> {
            auto io = c->ioctx(1);
            Rng rng(100 + seed);
            const Bytes data = rng.RandomBytes(16384);
            int i = 0;
            while (!*stop) {
              co_await io.WriteFull(
                  "greedy." + std::to_string(seed) + "." +
                      std::to_string(i++ % 8),
                  data);
            }
            wg->Done();
          }(&**cluster, &stop, &wg, w));
    }
    co_await sim::Sleep{50 * sim::kMs};  // let the greedy queues build
    const sim::SimTime victim_time = co_await [](Cluster* c)
        -> sim::Task<sim::SimTime> {
      auto io = c->ioctx(2);
      Rng rng(14);
      const Bytes data = rng.RandomBytes(16384);
      const sim::SimTime t0 = sim::Scheduler::Current().now();
      for (int i = 0; i < 32; ++i) {
        co_await io.WriteFull("victim." + std::to_string(i), data);
      }
      co_return sim::Scheduler::Current().now() - t0;
    }(&**cluster);
    stop = true;
    co_await wg.Wait();
    co_await (*cluster)->Drain();

    // With a 2000-IOPS reservation the victim's 32 sequential ops should
    // ride the R phase past the greedy backlog: well under the time 32 ops
    // would take at the back of a 64-deep weight-8 queue.
    uint64_t reservation_dispatches = 0;
    for (size_t i = 0; i < (*cluster)->osd_count(); ++i) {
      reservation_dispatches +=
          (*cluster)->osd(i).qos().stats(2).reservation_dispatches;
    }
    EXPECT_GT(reservation_dispatches, 0u);
    EXPECT_LT(victim_time, static_cast<sim::SimTime>(2) * sim::kSec);
  });
}

TEST(ClusterQos, ImageOpsCarryTenantTag) {
  testutil::RunSim([]() -> sim::Task<void> {
    ClusterConfig config = TestCluster();
    config.qos.enabled = true;
    auto cluster = co_await Cluster::Create(config);
    CO_ASSERT_OK(cluster.status());

    rbd::ImageOptions options;
    options.size = 64ull << 20;
    options.tenant =
        TenantSpec{/*id=*/42, /*reservation_iops=*/0, /*weight=*/2.0,
                   /*limit_iops=*/0};
    auto image =
        co_await rbd::Image::Create(**cluster, "tagged", "pw", options);
    CO_ASSERT_OK(image.status());
    Rng rng(15);
    Bytes buf = rng.RandomBytes(65536);
    CO_ASSERT_OK(
        co_await (*image)->Write(0, ByteSpan(buf.data(), buf.size())));
    CO_ASSERT_OK(co_await (*image)->Flush());
    co_await (*cluster)->Drain();

    uint64_t tagged_ops = 0;
    for (size_t i = 0; i < (*cluster)->osd_count(); ++i) {
      tagged_ops += (*cluster)->osd(i).qos().stats(42).admitted;
    }
    EXPECT_GT(tagged_ops, 0u)
        << "image IO must reach the OSDs under its tenant id";
  });
}

// Every OSD's op shards saturated with qos off: 32 concurrent clients mix
// 8 KiB writes and 4 KiB reads against a 3-OSD cluster, more than the
// three primaries' 8 shards each can hold. The final clock and event count
// are golden values recorded at commit 3580217, where a qos-off OSD
// admitted ops through a plain sim::Semaphore instead of the admission
// engine; admitting every op as tenant 0 must reproduce them exactly. They
// were re-recorded once since, when the store's journal began to group
// commit: appends that overlap a journal write now wait for it and share
// the next one (+20 us, +342 events).
TEST(ClusterQos, SaturatedShardsWithQosOffKeepTheSemaphoreClock) {
  sim::Scheduler sched;
  sched.ConfigureCores(0);  // overrides VDE_SIM_CORES: the clock is pinned
  bool finished = false;
  sched.Spawn([](bool* done) -> sim::Task<void> {
    ClusterConfig config = TestCluster();
    config.nodes = 3;
    config.osds_per_node = 1;
    auto cluster = co_await Cluster::Create(config);
    CO_ASSERT_OK(cluster.status());
    sim::WaitGroup wg;
    for (int w = 0; w < 32; ++w) {
      wg.Add(1);
      sim::Scheduler::Current().Spawn(
          [](Cluster* c, int w, sim::WaitGroup* wg) -> sim::Task<void> {
            auto io = c->ioctx();
            Rng rng(200 + w);
            const Bytes data = rng.RandomBytes(8192);
            const std::string oid = "sat." + std::to_string(w % 12);
            EXPECT_TRUE((co_await io.WriteFull(oid, data)).ok());
            for (int i = 0; i < 16; ++i) {
              if (rng.NextBool(0.5)) {
                EXPECT_TRUE((co_await io.WriteFull(oid, data)).ok());
              } else {
                EXPECT_TRUE((co_await io.Read(oid, 0, 4096)).ok());
              }
            }
            wg->Done();
          }(&**cluster, w, &wg));
    }
    co_await wg.Wait();
    co_await (*cluster)->Drain();
    *done = true;
  }(&finished));
  const sim::SimTime end = sched.Run();
  ASSERT_TRUE(finished);
  EXPECT_EQ(end, 16428341u);
  EXPECT_EQ(sched.events_processed(), 21326u);
}

}  // namespace
}  // namespace vde::rados
