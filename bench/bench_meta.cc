// Persistent metadata plane bench: warm reopens off the local KV plane
// vs full cold starts, plus the rollback and passthrough gates.
//
// Four self-check gates (exit non-zero on regression):
//
//  1. WARM REOPEN — across all three metadata geometries (unaligned,
//     object-end, OMAP under HMAC), a cleanly closed image reopened
//     against the same plane device reads its whole working set with
//     ZERO metadata bytes fetched from the object store and ZERO
//     store bitmap loads, while the cold baseline (no plane) pays the
//     full metadata refetch. Data must round-trip in both passes.
//
//  2. ROLLBACK (bitmap) — an attacker replaying an OLD validly-MAC'd
//     discard bitmap into the store is rejected as Corruption by the
//     per-object write-generation epoch floor, under HMAC and GCM.
//
//  3. ROLLBACK (IV rows) — persisted IV rows left stale by a session
//     that bypassed the plane fail ciphertext authentication when the
//     next plane-enabled open serves them warm, under HMAC and GCM.
//
//  4. PASSTHROUGH — a disabled plane config changes neither the
//     simulated clock nor any IO counter vs a plane-free run.
//
// Usage: bench_meta [--quick]
#include <algorithm>
#include <cstdio>
#include <vector>

#include "device/nvme.h"
#include "harness.h"
#include "util/rng.h"

namespace {

using namespace vde;
using namespace vde::bench;

constexpr uint64_t kBlk = core::kBlockSize;

core::EncryptionSpec Spec(core::CipherMode mode, core::IvLayout layout,
                          core::Integrity integrity = core::Integrity::kNone) {
  core::EncryptionSpec s;
  s.mode = mode;
  s.layout = layout;
  s.integrity = integrity;
  return s;
}

rbd::ImageOptions BaseImage(core::EncryptionSpec spec, uint64_t size,
                            uint64_t object_size, size_t cache_objects) {
  rbd::ImageOptions o = TestImage(spec, size, object_size);
  o.iv_cache.enabled = true;
  o.iv_cache.max_objects = cache_objects;
  return o;
}

rbd::MetaStoreConfig PlaneConfig(dev::BlockDevice* meta) {
  rbd::MetaStoreConfig c;
  c.enabled = true;
  c.device = meta;
  return c;
}

// --- Gate 1: warm reopen vs cold baseline --------------------------------

struct WarmPoint {
  uint64_t cold_meta_bytes = 0;   // store IV bytes fetched, no plane
  uint64_t cold_bitmap_loads = 0;
  uint64_t warm_meta_bytes = 0;   // same reads, warm plane reopen
  uint64_t warm_bitmap_loads = 0;
  uint64_t warm_hits = 0;
  uint64_t recovered_rows = 0;
  bool data_ok = false;
  bool ok = false;
};

// Session 1 writes `objects` x 256 KiB (plus a discard inside each
// object) and closes cleanly. Session 2 rereads everything WITHOUT the
// plane — the cold-start cost. Session 3 rereads against the warmed
// plane device.
WarmPoint RunWarmReopenPoint(Bench& bench, const core::EncryptionSpec& spec,
                             size_t objects) {
  constexpr uint64_t kObjSize = 1ull << 20;
  constexpr uint64_t kWrite = 256 * 1024;
  constexpr uint64_t kTrimOff = 128 * 1024;
  constexpr uint64_t kTrimLen = 64 * 1024;
  WarmPoint point;
  auto body = [&](rados::Cluster& cluster) -> sim::Task<bool> {
    dev::NvmeDevice meta_dev;
    rbd::ImageOptions options =
        BaseImage(spec, objects * kObjSize, kObjSize, objects + 8);
    options.meta_store = PlaneConfig(&meta_dev);

    Rng rng(31);
    std::vector<Bytes> expected(objects);
    {
      auto image = co_await rbd::Image::Create(cluster, "metabench", "pw",
                                               options);
      if (!image.ok()) co_return false;
      for (size_t o = 0; o < objects; ++o) {
        expected[o] = rng.RandomBytes(kWrite);
        if (!(co_await (*image)->Write(o * kObjSize, expected[o])).ok()) {
          co_return false;
        }
        if (!(co_await (*image)->Discard(o * kObjSize + kTrimOff, kTrimLen))
                 .ok()) {
          co_return false;
        }
        std::fill(expected[o].begin() + kTrimOff,
                  expected[o].begin() + kTrimOff + kTrimLen, uint8_t{0});
      }
      if (!(co_await (*image)->Flush()).ok()) co_return false;
      co_await cluster.Drain();
      if (!(co_await (*image)->Close()).ok()) co_return false;
    }

    // A block-granular read pass over the full working set (block reads
    // are the grain where ALL three geometries can go data-only — the
    // unaligned layout only profits from skipping its inline IVs on
    // single-block extents); returns false on mismatch.
    auto reread = [&](rbd::Image& img, bool* match) -> sim::Task<void> {
      bool all = true;
      for (size_t o = 0; o < objects && all; ++o) {
        for (uint64_t b = 0; b < kWrite / kBlk && all; ++b) {
          auto got = co_await img.Read(o * kObjSize + b * kBlk, kBlk);
          if (!got.ok()) {
            all = false;
            break;
          }
          all = std::equal(got->begin(), got->end(),
                           expected[o].begin() + static_cast<long>(b * kBlk));
        }
      }
      *match = all;
    };

    bool cold_ok = false;
    {
      auto image = co_await rbd::Image::Open(cluster, "metabench", "pw",
                                             {}, nullptr, {},
                                             options.iv_cache);
      if (!image.ok()) co_return false;
      co_await reread(**image, &cold_ok);
      const obs::Metrics s = (*image)->MetricsSnapshot();
      point.cold_meta_bytes = s.CounterOr("image.iv_meta_bytes_fetched");
      point.cold_bitmap_loads = s.CounterOr("image.trim_state_loads");
      if (!(co_await (*image)->Close()).ok()) co_return false;
    }

    bool warm_ok = false;
    {
      auto image = co_await rbd::Image::Open(cluster, "metabench", "pw",
                                             {}, nullptr, {},
                                             options.iv_cache,
                                             options.meta_store);
      if (!image.ok()) co_return false;
      co_await reread(**image, &warm_ok);
      const obs::Metrics s = (*image)->MetricsSnapshot();
      point.warm_meta_bytes = s.CounterOr("image.iv_meta_bytes_fetched");
      point.warm_bitmap_loads = s.CounterOr("image.trim_state_loads");
      point.warm_hits = s.CounterOr("image.meta_warm_hits");
      point.recovered_rows = s.CounterOr("image.meta_recovered_rows");
      if (!(co_await (*image)->Close()).ok()) co_return false;
    }
    point.data_ok = cold_ok && warm_ok;
    co_return true;
  };
  point.ok = RunOnCluster(SmallCluster(), 0, body).ok;
  bench.Require(point.ok, "RunWarmReopenPoint " + spec.Name());
  return point;
}

// --- Gate 2: stale bitmap replay ----------------------------------------

// Returns true when the replayed old (validly MAC'd) bitmap record is
// rejected as Corruption by the epoch floor.
bool RunBitmapReplayPoint(const core::EncryptionSpec& spec) {
  constexpr uint64_t kObjSize = 64 * 1024;
  bool rejected = false;
  auto body = [&](rados::Cluster& cluster) -> sim::Task<bool> {
    dev::NvmeDevice meta_dev;
    rbd::ImageOptions options = BaseImage(spec, 8ull << 20, kObjSize, 16);
    options.meta_store = PlaneConfig(&meta_dev);

    Rng rng(32);
    Bytes old_record;
    const Bytes bitmap_key(1, uint8_t{'B'});
    std::string oid;
    {
      auto image = co_await rbd::Image::Create(cluster, "replay", "pw",
                                               options);
      if (!image.ok()) co_return false;
      oid = (*image)->ObjectName(0);
      if (!(co_await (*image)->Write(0, rng.RandomBytes(2 * kBlk))).ok()) {
        co_return false;
      }
      if (!(co_await (*image)->Flush()).ok()) co_return false;
      co_await cluster.Drain();
      // The attacker snapshots the sealed bitmap record of generation N.
      for (size_t i = 0; i < cluster.osd_count(); ++i) {
        objstore::ObjectStore& os = cluster.osd(i).store();
        if (!os.ObjectExists(oid)) continue;
        auto row = co_await os.PeekOmapRow(oid, bitmap_key);
        if (!row.ok()) co_return false;
        old_record = *row;
        break;
      }
      if (old_record.empty()) co_return false;
      // Generation N+1: the discard bumps the epoch and reseals.
      if (!(co_await (*image)->Discard(0, kBlk)).ok()) co_return false;
      if (!(co_await (*image)->Flush()).ok()) co_return false;
      co_await cluster.Drain();
      // Dropped WITHOUT Close: the reopen purges persisted bitmaps but
      // keeps the epoch floors — the path a rollback would target.
    }
    for (size_t i = 0; i < cluster.osd_count(); ++i) {
      objstore::ObjectStore& os = cluster.osd(i).store();
      if (!os.ObjectExists(oid)) continue;
      if (!(co_await os.TamperOmapRow(oid, bitmap_key, old_record)).ok()) {
        co_return false;
      }
    }
    auto reopened = co_await rbd::Image::Open(cluster, "replay", "pw", {},
                                              nullptr, {}, options.iv_cache,
                                              options.meta_store);
    if (!reopened.ok()) co_return false;
    auto got = co_await (*reopened)->Read(kBlk, kBlk);
    rejected = got.status().code() == StatusCode::kCorruption;
    (void)co_await (*reopened)->Close();
    co_return true;
  };
  return RunOnCluster(SmallCluster(), 0, body).ok && rejected;
}

// --- Gate 3: stale persisted IV rows ------------------------------------

// Returns true when rows left stale by a plane-bypassing session fail
// ciphertext authentication instead of decrypting to wrong data.
bool RunStaleIvPoint(const core::EncryptionSpec& spec) {
  constexpr uint64_t kObjSize = 64 * 1024;
  bool rejected = false;
  auto body = [&](rados::Cluster& cluster) -> sim::Task<bool> {
    dev::NvmeDevice meta_dev;
    rbd::ImageOptions options = BaseImage(spec, 8ull << 20, kObjSize, 16);
    options.meta_store = PlaneConfig(&meta_dev);

    Rng rng(33);
    {
      auto image = co_await rbd::Image::Create(cluster, "staleiv", "pw",
                                               options);
      if (!image.ok()) co_return false;
      if (!(co_await (*image)->Write(0, rng.RandomBytes(kBlk))).ok()) {
        co_return false;
      }
      if (!(co_await (*image)->Flush()).ok()) co_return false;
      co_await cluster.Drain();
      if (!(co_await (*image)->Close()).ok()) co_return false;
    }
    {
      // Plane-less session: the store moves on, the plane does not.
      auto image = co_await rbd::Image::Open(cluster, "staleiv", "pw");
      if (!image.ok()) co_return false;
      if (!(co_await (*image)->Write(0, rng.RandomBytes(kBlk))).ok()) {
        co_return false;
      }
      if (!(co_await (*image)->Flush()).ok()) co_return false;
      co_await cluster.Drain();
      if (!(co_await (*image)->Close()).ok()) co_return false;
    }
    auto reopened = co_await rbd::Image::Open(cluster, "staleiv", "pw", {},
                                              nullptr, {}, options.iv_cache,
                                              options.meta_store);
    if (!reopened.ok()) co_return false;
    auto got = co_await (*reopened)->Read(0, kBlk);
    rejected = got.status().code() == StatusCode::kCorruption;
    (void)co_await (*reopened)->Close();
    co_return true;
  };
  return RunOnCluster(SmallCluster(), 0, body).ok && rejected;
}

// --- Gate 4: disabled plane is a passthrough ----------------------------

struct PassthroughPoint {
  uint64_t end_time = 0;
  uint64_t bytes_written = 0;
  uint64_t bytes_read = 0;
  uint64_t iv_meta_bytes_fetched = 0;
  uint64_t meta_spills = 0;
  bool ok = false;
};

PassthroughPoint RunPassthroughPoint(bool with_disabled_config,
                                     size_t objects) {
  constexpr uint64_t kObjSize = 1ull << 20;
  PassthroughPoint point;
  auto body = [&](rados::Cluster& cluster) -> sim::Task<bool> {
    dev::NvmeDevice meta_dev;
    const auto spec = Spec(core::CipherMode::kXtsRandom,
                           core::IvLayout::kObjectEnd,
                           core::Integrity::kHmac);
    rbd::ImageOptions options =
        BaseImage(spec, objects * kObjSize, kObjSize, objects + 8);
    if (with_disabled_config) {
      options.meta_store.enabled = false;  // disabled, device attached
      options.meta_store.device = &meta_dev;
    }
    auto image = co_await rbd::Image::Create(cluster, "pt", "pw", options);
    if (!image.ok()) co_return false;
    Rng rng(34);
    for (size_t o = 0; o < objects; ++o) {
      if (!(co_await (*image)->Write(o * kObjSize, rng.RandomBytes(32 * 1024)))
               .ok()) {
        co_return false;
      }
    }
    for (size_t o = 0; o < objects; ++o) {
      auto got = co_await (*image)->Read(o * kObjSize, 32 * 1024);
      if (!got.ok()) co_return false;
    }
    if (!(co_await (*image)->Flush()).ok()) co_return false;
    co_await cluster.Drain();
    const obs::Metrics s = (*image)->MetricsSnapshot();
    point.end_time = sim::Scheduler::Current().now();
    point.bytes_written = s.CounterOr("image.bytes_written");
    point.bytes_read = s.CounterOr("image.bytes_read");
    point.iv_meta_bytes_fetched = s.CounterOr("image.iv_meta_bytes_fetched");
    point.meta_spills = s.CounterOr("image.meta_spills");
    if (!(co_await (*image)->Close()).ok()) co_return false;
    co_return true;
  };
  point.ok = RunOnCluster(SmallCluster(), 0, body).ok;
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  Bench bench("meta", argc, argv);
  const size_t objects = bench.quick() ? 4 : 16;

  const core::EncryptionSpec hmac_unaligned =
      Spec(core::CipherMode::kXtsRandom, core::IvLayout::kUnaligned,
           core::Integrity::kHmac);
  const core::EncryptionSpec hmac_oe =
      Spec(core::CipherMode::kXtsRandom, core::IvLayout::kObjectEnd,
           core::Integrity::kHmac);
  const core::EncryptionSpec hmac_omap =
      Spec(core::CipherMode::kXtsRandom, core::IvLayout::kOmap,
           core::Integrity::kHmac);
  const core::EncryptionSpec gcm_oe =
      Spec(core::CipherMode::kGcmRandom, core::IvLayout::kObjectEnd);
  const core::EncryptionSpec gcm_omap =
      Spec(core::CipherMode::kGcmRandom, core::IvLayout::kOmap);

  std::printf("Persistent metadata plane: warm reopen vs cold start "
              "(%zu x 1 MiB objects, 256 KiB written each)\n",
              objects);
  std::printf("%-22s | %10s %8s | %10s %8s | %9s | %s\n", "spec", "cold_B",
              "cold_ld", "warm_B", "warm_ld", "rows", "gate");

  const NamedSpec warm_rows[] = {{"hmac/unaligned", hmac_unaligned},
                                 {"hmac/object-end", hmac_oe},
                                 {"hmac/omap", hmac_omap}};
  bool warm_ok = true;
  std::vector<Field> warm_values;
  for (const NamedSpec& row : warm_rows) {
    const WarmPoint p = RunWarmReopenPoint(bench, row.spec, objects);
    const bool cold_paid = p.cold_meta_bytes > 0 || p.cold_bitmap_loads > 0;
    const bool warm_free = p.warm_meta_bytes == 0 && p.warm_bitmap_loads == 0;
    const bool pass = p.ok && p.data_ok && cold_paid && warm_free &&
                      p.recovered_rows > 0 && p.warm_hits > 0;
    warm_ok = warm_ok && pass;
    warm_values.push_back({row.name,
                           {{"cold_meta_bytes", p.cold_meta_bytes},
                            {"warm_meta_bytes", p.warm_meta_bytes},
                            {"warm_bitmap_loads", p.warm_bitmap_loads},
                            {"recovered_rows", p.recovered_rows}}});
    std::printf("%-22s | %10llu %8llu | %10llu %8llu | %9llu | %s%s\n",
                row.name,
                static_cast<unsigned long long>(p.cold_meta_bytes),
                static_cast<unsigned long long>(p.cold_bitmap_loads),
                static_cast<unsigned long long>(p.warm_meta_bytes),
                static_cast<unsigned long long>(p.warm_bitmap_loads),
                static_cast<unsigned long long>(p.recovered_rows),
                PassFail(pass),
                pass ? "" : (p.data_ok ? " (metadata)" : " (data)"));
    std::fflush(stdout);
  }
  bench.Gate("warm_reopen", warm_ok,
             "every geometry reopens warm with zero metadata bytes and "
             "bitmap loads from the store, data round-trips",
             warm_values);

  std::printf("\nRollback rejection: write-generation epochs\n");
  const NamedSpec replay_rows[] = {{"hmac/omap", hmac_omap},
                                   {"gcm/omap", gcm_omap}};
  bool replay_ok = true;
  for (const NamedSpec& row : replay_rows) {
    const bool pass = RunBitmapReplayPoint(row.spec);
    replay_ok = replay_ok && pass;
    std::printf("  %-20s replayed stale bitmap rejected: %s\n", row.name,
                PassFail(pass));
    std::fflush(stdout);
  }
  const NamedSpec stale_rows[] = {{"hmac/object-end", hmac_oe},
                                  {"gcm/object-end", gcm_oe}};
  bool stale_ok = true;
  for (const NamedSpec& row : stale_rows) {
    const bool pass = RunStaleIvPoint(row.spec);
    stale_ok = stale_ok && pass;
    std::printf("  %-20s stale persisted IV row rejected: %s\n", row.name,
                PassFail(pass));
    std::fflush(stdout);
  }
  bench.Gate("rollback_bitmap", replay_ok,
             "a replayed old discard bitmap is rejected, HMAC and GCM");
  bench.Gate("rollback_iv", stale_ok,
             "stale persisted IV rows fail authentication, HMAC and GCM");

  std::printf("\nPassthrough: disabled plane vs no plane\n");
  const PassthroughPoint base = RunPassthroughPoint(false, objects);
  const PassthroughPoint off = RunPassthroughPoint(true, objects);
  const bool pt_pass = base.ok && off.ok && base.end_time == off.end_time &&
                       base.bytes_written == off.bytes_written &&
                       base.bytes_read == off.bytes_read &&
                       base.iv_meta_bytes_fetched ==
                           off.iv_meta_bytes_fetched &&
                       off.meta_spills == 0;
  std::printf("  sim_time %llu vs %llu ns, spills=%llu\n",
              static_cast<unsigned long long>(base.end_time),
              static_cast<unsigned long long>(off.end_time),
              static_cast<unsigned long long>(off.meta_spills));
  bench.Gate("passthrough", pt_pass,
             "a disabled plane changes neither the sim clock nor any IO "
             "counter",
             {{"plain_ns", base.end_time}, {"disabled_ns", off.end_time}});
  return bench.Finish();
}
