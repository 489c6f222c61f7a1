// The four benchmark workloads. BENCHMARK.json records why each is here;
// README.md says which layers each one runs and which it bypasses. Working
// sets are sized so that one run (three set-ups plus the measured window)
// stays under 20 s of host time and one process peaks under 1.6 GB.
#include <algorithm>

#include "bench.h"

namespace vde::bench {

namespace {

core::EncryptionSpec XtsRandomHmac(core::IvLayout layout) {
  core::EncryptionSpec s;
  s.mode = core::CipherMode::kXtsRandom;
  s.layout = layout;
  s.integrity = core::Integrity::kHmac;
  return s;
}

std::vector<Workload> Make() {
  std::vector<Workload> all;

  // The paper's recommended geometry on its worst case: the 4 sim cores run
  // near saturation, so crypto, objstore commit and replication set IOPS.
  Workload w1;
  w1.name = "randwrite-4k-oe-hmac";
  w1.enc = XtsRandomHmac(core::IvLayout::kObjectEnd);
  w1.write_pct = 100;
  w1.qd = 32;
  w1.working_set = 128ull << 20;  // 32 objects
  w1.ops = 60000;
  w1.cores = 4;
  w1.readback_blocks = 2048;
  all.push_back(w1);

  // The read side of the same layers on OMAP, with a working set twice the
  // IV cache so most reads fetch their metadata. The writes are what make
  // reads queue: with pure reads no op in this cluster model ever waits,
  // every read takes the same sim time, and the latency metrics could not
  // tell two seeds, or two versions, apart.
  Workload w2;
  w2.name = "readmostly-4k-omap-2xcache";
  w2.enc = XtsRandomHmac(core::IvLayout::kOmap);
  w2.write_pct = 30;
  w2.qd = 32;
  w2.working_set = 128ull << 20;  // 32 objects
  w2.iv_cache_objects = 16;
  w2.ops = 80000;
  w2.cores = 4;
  all.push_back(w2);

  // The database worst case: every write is a sub-block read-modify-write.
  // It runs the client-side layers (write-back, trim state, IV-cache hits,
  // MetaStore and kv, the codec, in-tree GCM) and none of the failure
  // machinery. Discards are whole blocks because they round inward.
  Workload w3;
  w3.name = "db512-gcm-lz-meta";
  w3.enc.mode = core::CipherMode::kGcmRandom;
  w3.enc.layout = core::IvLayout::kUnaligned;
  w3.enc.compression.codec = core::Compression::kLz;
  w3.io_size = 512;
  w3.write_pct = 70;
  w3.discard_pct = 5;
  w3.qd = 8;
  w3.working_set = 64ull << 20;  // 16 objects
  w3.iv_cache_objects = 16;      // the cache holds the whole working set
  w3.meta_store = true;
  w3.compressible_pct = 50;
  w3.ops = 30000;
  w3.cores = 4;
  w3.close = true;
  all.push_back(w3);

  // The only workload that runs the failure path: map refresh after a dead
  // primary, recovery, and all three admission mechanisms (client depth
  // cap, OSD mClock, recovery throttle).
  Workload w4;
  w4.name = "randrw-4k-osd-loss";
  w4.enc = XtsRandomHmac(core::IvLayout::kObjectEnd);
  w4.write_pct = 50;
  w4.qd = 32;
  w4.working_set = 128ull << 20;
  w4.ops = 80000;
  w4.qos_depth = 16;
  w4.mclock = true;
  w4.kill_osd = true;
  all.push_back(w4);

  return all;
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> all = Make();
  return all;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Workload Quick(const Workload& w) {
  Workload q = w;
  q.working_set = std::max<uint64_t>(w.working_set / 8, 4ull << 20);
  q.iv_cache_objects = (w.iv_cache_objects + 7) / 8;
  q.ops = w.ops / 20;
  q.warmup = 200;
  q.readback_blocks = w.readback_blocks / 8;
  return q;
}

}  // namespace vde::bench
