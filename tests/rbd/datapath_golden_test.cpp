// Golden sim clock for the rbd datapath: three fixed op streams, each run
// with the core model off and with 4 cores, must land on exactly the
// recorded final clock, event count and read-content digest. The third
// stream closes its image and reopens it warm off the metadata plane.
//
// A refactor of the request, write-back or commit/read paths that keeps
// every await in place passes unedited; one that moves a charge, adds a
// store round-trip or reorders a sleep fails here. The values were
// recorded at commit 3d72d0e (before the rbd commit and read steps were
// factored out of image_request.cc and writeback.cc). Re-record them only
// for a change that is meant to move the sim clock, and say so in the
// change description. The warm-reopen stream was recorded at commit
// c651503, before the client-side metadata table was merged.
#include <deque>
#include <gtest/gtest.h>

#include "../testutil.h"
#include "device/nvme.h"
#include "rbd/image.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace vde::rbd {
namespace {

constexpr uint64_t kB = core::kBlockSize;
constexpr uint64_t kObj = 16 * kB;  // 64 KiB objects: cheap whole-object ops
constexpr size_t kQd = 8;

// kWait drains the in-flight window before the next op.
enum class Kind {
  kWrite,
  kRead,
  kDiscard,
  kZeroes,
  kFlush,
  kSnap,
  kSnapRead,
  kWait
};

struct Op {
  Kind kind;
  uint64_t off = 0;
  uint64_t len = 0;
};

struct Point {
  sim::SimTime now = 0;
  uint64_t events = 0;
  uint32_t read_crc = 0;
  bool ok = false;
};

rados::ClusterConfig GoldenCluster() {
  rados::ClusterConfig c;
  c.store.journal_size = 8ull << 20;
  c.store.kv_region_size = 32ull << 20;
  return c;
}

ImageOptions GoldenImage(core::CipherMode mode, core::IvLayout layout,
                         core::Integrity integrity) {
  ImageOptions o;
  o.size = 1ull << 20;
  o.object_size = kObj;
  o.enc.mode = mode;
  o.enc.layout = layout;
  o.enc.integrity = integrity;
  o.enc.iv_seed = 11;
  o.luks.pbkdf2_iterations = 10;
  o.luks.af_stripes = 8;
  return o;
}

// Half random, half zeros: the LZ codec shrinks some blocks and stores
// others verbatim.
Bytes Payload(Rng& rng, uint64_t len) {
  Bytes b = rng.RandomBytes(len);
  std::fill(b.begin() + static_cast<long>(len / 2), b.end(), 0);
  return b;
}

// Runs `ops` on a fresh scheduler with `cores` CPU-model cores (0 = off),
// keeping up to kQd requests in flight. A snapshot waits for the window to
// empty; kSnapRead reads the latest snapshot. The image is flushed and
// closed after `ops`; a non-empty `reopened_ops` then runs on the image
// reopened with the same client-side options (warm off the metadata plane
// when one is configured), followed by another flush and close.
Point RunStream(ImageOptions opts, const std::vector<Op>& ops,
                unsigned cores, const std::vector<Op>& reopened_ops = {}) {
  Point point;
  sim::Scheduler sched;
  sched.ConfigureCores(cores);  // overrides VDE_SIM_CORES (the .mc4 shard)
  dev::NvmeDevice meta_dev;
  if (opts.meta_store.enabled) opts.meta_store.device = &meta_dev;
  Rng rng(17);
  std::deque<Bytes> bufs;  // stable addresses for in-flight buffers
  std::vector<const Bytes*> reads;
  uint64_t snap = 0;
  // Runs one op list on `img`, then flushes and closes it.
  auto run = [&](Image& img, const std::vector<Op>& list) -> sim::Task<void> {
    std::deque<CompletionPtr> window;
    bool ok = true;
    for (const Op& op : list) {
      if (op.kind == Kind::kSnap || op.kind == Kind::kWait) {
        for (; !window.empty(); window.pop_front()) {
          co_await window.front()->Wait();
          ok = ok && window.front()->status().ok();
        }
        if (op.kind == Kind::kWait) continue;
        auto id = co_await img.SnapCreate("s" + std::to_string(snap));
        CO_ASSERT_OK(id.status());
        snap = *id;
        continue;
      }
      if (window.size() >= kQd) {
        co_await window.front()->Wait();
        ok = ok && window.front()->status().ok();
        window.pop_front();
      }
      auto c = Completion::Create();
      switch (op.kind) {
        case Kind::kWrite:
          bufs.push_back(Payload(rng, op.len));
          img.AioWrite(bufs.back(), op.off, c);
          break;
        case Kind::kRead:
        case Kind::kSnapRead:
          bufs.emplace_back(op.len, 0xAA);
          reads.push_back(&bufs.back());
          img.AioRead(MutByteSpan(bufs.back()), op.off, c,
                      op.kind == Kind::kSnapRead ? snap : objstore::kHeadSnap);
          break;
        case Kind::kDiscard:
          img.AioDiscard(op.off, op.len, c);
          break;
        case Kind::kZeroes:
          img.AioWriteZeroes(op.off, op.len, c);
          break;
        case Kind::kFlush:
          img.AioFlush(c);
          break;
        case Kind::kSnap:
        case Kind::kWait:
          break;
      }
      window.push_back(std::move(c));
    }
    for (; !window.empty(); window.pop_front()) {
      co_await window.front()->Wait();
      ok = ok && window.front()->status().ok();
    }
    CO_ASSERT_TRUE(ok);
    CO_ASSERT_OK(co_await img.Flush());
    CO_ASSERT_OK(co_await img.Close());
  };
  auto body = [&]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(GoldenCluster());
    CO_ASSERT_OK(cluster.status());
    auto image = co_await Image::Create(**cluster, "golden", "pw", opts);
    CO_ASSERT_OK(image.status());
    co_await run(**image, ops);
    if (!reopened_ops.empty()) {
      auto reopened = co_await Image::Open(
          **cluster, "golden", "pw", opts.writeback, nullptr, {},
          opts.iv_cache, opts.meta_store);
      CO_ASSERT_OK(reopened.status());
      co_await run(**reopened, reopened_ops);
      if (opts.meta_store.enabled) {
        EXPECT_GT(testutil::ImageCounter(**reopened, "meta_recovered_rows"),
                  0u)
            << "the reopened stream must run warm";
      }
    }
    co_await (*cluster)->Drain();
    for (const Bytes* r : reads) point.read_crc = Crc32c(*r, point.read_crc);
    point.now = sim::Scheduler::Current().now();
    point.ok = true;
  };
  sched.Spawn(body());
  sched.Run();
  point.events = sched.events_processed();
  return point;
}

// (a) GCM on the unaligned layout with LZ, write-back, the IV cache and a
// metadata plane: staged 512 B writes, 3-block writes with both edges
// partial, partial and whole-object discards, write-zeroes with two partial
// edges and an interior, a flush, and reads over all of it.
std::vector<Op> StreamA() {
  return {
      {Kind::kWrite, 0, kObj},
      {Kind::kWrite, kObj, kObj / 2},
      {Kind::kWrite, kB, 512},
      {Kind::kWrite, kB + 512, 512},
      {Kind::kWrite, 2 * kB + 100, 512},
      {Kind::kWrite, kObj + 3 * kB + 7, 512},
      {Kind::kWrite, 3 * kObj + 5 * kB + 64, 512},
      {Kind::kWrite, 4 * kB + 1024, 2 * kB + 2048},
      {Kind::kWrite, kObj + 8 * kB + 512, 3 * kB - 1024},
      {Kind::kDiscard, 10 * kB, 2 * kB},
      {Kind::kDiscard, kObj + 200, 3 * kB},
      {Kind::kDiscard, 2 * kObj, kObj},
      {Kind::kZeroes, 12 * kB + 700, 3 * kB},
      {Kind::kRead, kB + 300, 1000},
      {Kind::kDiscard, kObj, kObj},
      {Kind::kFlush},
      {Kind::kWrite, 13 * kB + 256, 512},
      {Kind::kWrite, 100, 512},
      {Kind::kRead, 0, kObj},
      {Kind::kRead, kObj, kObj},
      {Kind::kRead, 2 * kObj, 2 * kB},
      {Kind::kRead, 12 * kB + 100, 2 * kB},
      {Kind::kRead, 3 * kObj + 5 * kB, kB},
      {Kind::kWrite, kObj + 5 * kB + 100, 512},
      {Kind::kRead, kObj + 5 * kB, kB},
      {Kind::kFlush},
      {Kind::kRead, 0, 4 * kB},
      {Kind::kRead, 10 * kB, 3 * kB},
  };
}

// (b) Object-end with HMAC and a snapshot: overwrites, a trim and a
// snapshot-pinned whole-object discard after it, then reads of the
// snapshot and of the head.
std::vector<Op> StreamB() {
  return {
      {Kind::kWrite, 0, kObj},
      {Kind::kWrite, kObj, 4 * kB},
      {Kind::kSnap},
      {Kind::kWrite, 2 * kB + 100, 512},
      {Kind::kWrite, 4 * kB, 2 * kB},
      {Kind::kDiscard, 8 * kB, 2 * kB},
      {Kind::kDiscard, kObj, kObj},
      {Kind::kZeroes, 12 * kB + 300, 2 * kB},
      {Kind::kFlush},
      {Kind::kSnapRead, 0, kObj},
      {Kind::kSnapRead, kObj, 4 * kB},
      {Kind::kRead, 0, kObj},
      {Kind::kRead, kObj, 4 * kB},
      {Kind::kRead, 2 * kB, 1000},
  };
}

// (c) OMAP with HMAC, write-back, the IV cache and a metadata plane, across
// a clean close and a warm reopen. The first session writes four objects
// whole, then stages sub-block writes, trims part of one object, removes
// another and zeroes an edge-straddling range. The reopened session first
// touches every object (a never-written one included) with one full-block
// op each, then writes, reads, discards and flushes across all of them.
std::vector<Op> StreamC() {
  return {
      {Kind::kWrite, 0, kObj},
      {Kind::kWrite, kObj, kObj},
      {Kind::kWrite, 2 * kObj, kObj},
      {Kind::kWrite, 3 * kObj, kObj},
      {Kind::kWrite, kB + 100, 512},
      {Kind::kWrite, kObj + 6 * kB + 2048, 1024},
      {Kind::kDiscard, 2 * kObj + 4 * kB, 3 * kB},
      {Kind::kDiscard, 3 * kObj, kObj},
      {Kind::kZeroes, kObj + 9 * kB + 512, 2 * kB},
      {Kind::kFlush},
      {Kind::kRead, 0, 2 * kB},
  };
}

std::vector<Op> StreamCReopened() {
  return {
      {Kind::kRead, 0, kB},
      {Kind::kWrite, kObj + 2 * kB, kB},
      {Kind::kRead, 2 * kObj + 5 * kB, kB},
      {Kind::kRead, 3 * kObj, kB},
      {Kind::kRead, 4 * kObj + 3 * kB, kB},
      {Kind::kWait},
      {Kind::kWrite, 3 * kB + 256, 512},
      {Kind::kWrite, kObj + 11 * kB + 1000, 700},
      {Kind::kWrite, 2 * kObj + 2 * kB, 3 * kB},
      {Kind::kWrite, 4 * kObj + 7 * kB + 64, 512},
      {Kind::kRead, 0, kObj},
      {Kind::kRead, kObj, kObj},
      {Kind::kDiscard, 2 * kObj + 8 * kB, 2 * kB},
      {Kind::kWrite, 3 * kObj + 4 * kB, 2 * kB},
      {Kind::kFlush},
      {Kind::kRead, 2 * kObj, kObj},
      {Kind::kRead, 3 * kObj, 8 * kB},
      {Kind::kRead, 4 * kObj, kObj},
      {Kind::kRead, kObj + 11 * kB, kB},
  };
}

ImageOptions ImageA() {
  ImageOptions o = GoldenImage(core::CipherMode::kGcmRandom,
                               core::IvLayout::kUnaligned,
                               core::Integrity::kNone);
  o.enc.compression.codec = core::Compression::kLz;
  o.iv_cache.enabled = true;
  o.meta_store.enabled = true;
  return o;
}

ImageOptions ImageB() {
  return GoldenImage(core::CipherMode::kXtsRandom, core::IvLayout::kObjectEnd,
                     core::Integrity::kHmac);
}

ImageOptions ImageC() {
  ImageOptions o = GoldenImage(core::CipherMode::kXtsRandom,
                               core::IvLayout::kOmap, core::Integrity::kHmac);
  o.iv_cache.enabled = true;
  o.meta_store.enabled = true;
  return o;
}

void ExpectGolden(const Point& got, const Point& want, const char* label) {
  ASSERT_TRUE(got.ok) << label;
  EXPECT_EQ(got.now, want.now) << label;
  EXPECT_EQ(got.events, want.events) << label;
  EXPECT_EQ(got.read_crc, want.read_crc) << label;
}

TEST(DatapathGolden, GcmUnalignedLzMetaStream) {
  ExpectGolden(RunStream(ImageA(), StreamA(), 0),
               {15497300, 1624, 61767930u, true}, "cores=0");
  ExpectGolden(RunStream(ImageA(), StreamA(), 4),
               {16233202, 1663, 61767930u, true}, "cores=4");
}

TEST(DatapathGolden, ObjectEndHmacSnapshotStream) {
  ExpectGolden(RunStream(ImageB(), StreamB(), 0),
               {9719081, 933, 4118610500u, true}, "cores=0");
  ExpectGolden(RunStream(ImageB(), StreamB(), 4),
               {10502389, 958, 4118610500u, true}, "cores=4");
}

TEST(DatapathGolden, OmapHmacWarmReopenStream) {
  ExpectGolden(RunStream(ImageC(), StreamC(), 0, StreamCReopened()),
               {15194054, 1790, 1887740136u, true}, "cores=0");
  ExpectGolden(RunStream(ImageC(), StreamC(), 4, StreamCReopened()),
               {16384542, 1792, 1887740136u, true}, "cores=4");
}

}  // namespace
}  // namespace vde::rbd
