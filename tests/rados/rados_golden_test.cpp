// Golden pin of the RADOS client op path and the OSD primary-op admission.
//
// One seeded op sequence runs every way a primary op can travel: healthy
// writes and reads, a dead primary in a stale client map (connect timeout,
// then a map refresh), a degraded write, an EAGAIN redirect after the old
// primary comes back while the client map is stale (on the write path and
// on the read path), and inline pulls by a primary missing the object (on
// both paths). The final clock, the event count, the cluster's mon and
// recovery counters, and a CRC of every byte read are pinned, with the CPU
// model off and at 4 cores. A refactor that keeps each op's sequence of
// sleeps, sends, shard acquisitions and applies keeps every value here.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "../testutil.h"
#include "obs/metrics.h"
#include "rados/cluster.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace vde::rados {
namespace {

constexpr int kObjects = 32;
constexpr size_t kObjBytes = 12 * 1024;

ClusterConfig GoldenCluster() {
  ClusterConfig c = testutil::TestCluster();
  // One slow background worker: most degraded objects are still missing
  // when a client op reaches them, so the primary pulls them inline.
  c.recovery.parallelism = 1;
  c.recovery.rate_bytes_per_sec = 256.0 * 1024;
  c.recovery.burst_bytes = 1;
  return c;
}

std::string Oid(int i) { return "golden." + std::to_string(i); }

struct Point {
  sim::SimTime now = 0;
  uint64_t events = 0;
  uint32_t read_crc = 0;
  std::string counters;  // cluster.mon.* and cluster.recovery.*
  bool ok = false;
};

struct Run {
  Cluster* cluster = nullptr;
  Rng rng{29};
  uint32_t read_crc = 0;
  bool ok = true;
};

// Partial write plus an OMAP row: a two-op write transaction.
sim::Task<void> Update(Run* run, int i, Bytes data) {
  objstore::Transaction txn;
  objstore::OsdOp write;
  write.type = objstore::OsdOp::Type::kWrite;
  write.offset = 4096;
  write.length = data.size();
  write.data = std::move(data);
  txn.ops.push_back(std::move(write));
  objstore::OsdOp omap;
  omap.type = objstore::OsdOp::Type::kOmapSet;
  omap.omap_kvs.emplace_back(Bytes{'k'}, Bytes(8, static_cast<uint8_t>(i)));
  txn.ops.push_back(std::move(omap));
  const Status s = co_await run->cluster->ioctx().Operate(Oid(i),
                                                          std::move(txn), {});
  run->ok = run->ok && s.ok();
}

// Data plus OMAP rows: a two-op read transaction. Reads finish in a
// deterministic order, so the running CRC is order-sensitive on purpose.
sim::Task<void> Fetch(Run* run, int i) {
  objstore::Transaction txn;
  objstore::OsdOp read;
  read.type = objstore::OsdOp::Type::kRead;
  read.offset = 0;
  read.length = kObjBytes;
  txn.ops.push_back(std::move(read));
  objstore::OsdOp omap;
  omap.type = objstore::OsdOp::Type::kOmapGetRange;
  txn.ops.push_back(std::move(omap));
  auto r = co_await run->cluster->ioctx().OperateRead(Oid(i), std::move(txn));
  if (!r.ok()) {
    run->ok = false;
    co_return;
  }
  run->read_crc = Crc32c(r->data, run->read_crc);
  for (const auto& [k, v] : r->omap_values) {
    run->read_crc = Crc32c(k, run->read_crc);
    run->read_crc = Crc32c(v, run->read_crc);
  }
}

sim::Task<void> WriteWhole(Run* run, int i, Bytes data) {
  const Status s = co_await run->cluster->ioctx().WriteFull(Oid(i), data);
  run->ok = run->ok && s.ok();
}

sim::Task<void> Done(sim::Task<void> op, sim::WaitGroup* wg) {
  co_await std::move(op);
  wg->Done();
}

// Runs `ops` concurrently and waits for all of them.
sim::Task<void> All(std::vector<sim::Task<void>> ops) {
  sim::WaitGroup wg;
  for (auto& op : ops) {
    wg.Add(1);
    sim::Scheduler::Current().Spawn(Done(std::move(op), &wg));
  }
  co_await wg.Wait();
}

// First object whose acting set avoids every OSD in `avoid`.
int PickObject(const Cluster& cluster, const std::vector<size_t>& avoid) {
  for (int i = 0; i < kObjects; ++i) {
    bool clear = true;
    for (size_t id : cluster.placement().OsdsFor(Oid(i))) {
      for (size_t a : avoid) clear = clear && id != a;
    }
    if (clear) return i;
  }
  return -1;
}

sim::Task<void> Scenario(Run* run) {
  Cluster& c = *run->cluster;
  // Healthy: whole-object writes, two-op updates and two-op reads, all
  // objects in flight at once.
  std::vector<sim::Task<void>> ops;
  for (int i = 0; i < kObjects; ++i) {
    ops.push_back(WriteWhole(run, i, run->rng.RandomBytes(kObjBytes)));
  }
  co_await All(std::exchange(ops, {}));
  for (int i = 0; i < kObjects; ++i) {
    ops.push_back(Update(run, i, run->rng.RandomBytes(2048)));
  }
  co_await All(std::exchange(ops, {}));
  for (int i = 0; i < kObjects; ++i) ops.push_back(Fetch(run, i));
  co_await All(std::exchange(ops, {}));

  // Dead primary, write path: every op on its PGs waits out the connect
  // timeout, the client refreshes its map, and the new primary (missing
  // the objects) pulls them inline before writing.
  const size_t v1 = c.placement().OsdsFor(Oid(0))[0];
  c.MarkOsdDown(v1);
  for (int i = 0; i < kObjects; ++i) {
    ops.push_back(Update(run, i, run->rng.RandomBytes(1024)));
  }
  co_await All(std::exchange(ops, {}));

  // Dead primary, read path.
  const int r = PickObject(c, {v1});
  const size_t v2 = c.placement().OsdsFor(Oid(r))[0];
  c.MarkOsdDown(v2);
  for (int i = 0; i < kObjects; ++i) ops.push_back(Fetch(run, i));
  co_await All(std::exchange(ops, {}));

  // Degraded write: a replica goes down; the primary is unchanged, so the
  // write commits below full width without a redirect.
  const int d = PickObject(c, {v1, v2});
  const size_t v3 = c.placement().OsdsFor(Oid(d))[1];
  c.MarkOsdDown(v3);
  co_await WriteWhole(run, d, run->rng.RandomBytes(kObjBytes));

  // EAGAIN, write path: v1 is back and primary again, but the client map
  // still names its stand-in, which bounces the op. v1 missed the writes
  // above, so it pulls them inline after the redirect.
  c.MarkOsdUp(v1);
  for (int i = 0; i < kObjects; ++i) {
    ops.push_back(Update(run, i, run->rng.RandomBytes(512)));
  }
  co_await All(std::exchange(ops, {}));

  // EAGAIN, read path.
  c.MarkOsdUp(v2);
  for (int i = 0; i < kObjects; ++i) ops.push_back(Fetch(run, i));
  co_await All(std::exchange(ops, {}));

  c.MarkOsdUp(v3);
  co_await c.Drain();
  for (int i = 0; i < kObjects; ++i) co_await Fetch(run, i);
}

Point RunGolden(unsigned cores) {
  Point point;
  sim::Scheduler sched;
  sched.ConfigureCores(cores);  // overrides VDE_SIM_CORES (the .mc4 shard)
  auto body = [&]() -> sim::Task<void> {
    auto cluster = co_await Cluster::Create(GoldenCluster());
    CO_ASSERT_OK(cluster.status());
    Run run;
    run.cluster = cluster->get();
    co_await Scenario(&run);
    obs::Metrics all, pinned;
    (*cluster)->ExportMetrics(all);
    pinned.Child("cluster").Child("mon") = all.Child("mon");
    pinned.Child("cluster").Child("recovery") = all.Child("recovery");
    point.counters = pinned.ToText();
    const ClusterStats& cs = (*cluster)->stats();
    const RecoveryStats& rs = (*cluster)->recovery().stats();
    EXPECT_GT(cs.osd_timeouts, 0u);
    EXPECT_GT(cs.map_refreshes, 0u);
    EXPECT_GT(cs.eagain_redirects, 0u);
    EXPECT_GT(cs.degraded_writes, 0u);
    EXPECT_GT(rs.inline_pulls, 0u);
    EXPECT_EQ((*cluster)->DegradedObjectCount(), 0u);
    point.read_crc = run.read_crc;
    point.now = sim::Scheduler::Current().now();
    point.ok = run.ok;
  };
  sched.Spawn(body());
  sched.Run();
  point.events = sched.events_processed();
  return point;
}

void ExpectGolden(const Point& got, const Point& want, const char* label) {
  ASSERT_TRUE(got.ok) << label;
  EXPECT_EQ(got.now, want.now) << label;
  EXPECT_EQ(got.events, want.events) << label;
  EXPECT_EQ(got.read_crc, want.read_crc) << label;
  EXPECT_EQ(got.counters, want.counters) << label;
}

constexpr char kCounters[] =
    "cluster.mon.degraded_writes = 12\n"
    "cluster.mon.eagain_redirects = 4\n"
    "cluster.mon.map_refreshes = 4\n"
    "cluster.mon.osd_timeouts = 5\n"
    "cluster.mon.skipped_replicas = 12\n"
    "cluster.mon.client_epoch = 6\n"
    "cluster.mon.epoch = 7\n"
    "cluster.mon.osds_up = 27\n"
    "cluster.recovery.bytes_pushed = 196752\n"
    "cluster.recovery.inline_pulls = 7\n"
    "cluster.recovery.objects_pushed = 16\n"
    "cluster.recovery.objects_unrecoverable = 0\n"
    "cluster.recovery.stale_pushes = 1\n"
    "cluster.recovery.degraded_objects = 0\n";

TEST(RadosGolden, EveryPrimaryOpPath) {
  ExpectGolden(RunGolden(0), {454512307, 11802, 3685084556u, kCounters, true},
               "cores=0");
  ExpectGolden(RunGolden(4), {457488007, 12104, 3685084556u, kCounters, true},
               "cores=4");
}

}  // namespace
}  // namespace vde::rados
