// End-to-end discard pipeline bench: TRIM as a tracked, authenticated,
// space-reclaiming state instead of a zero pattern.
//
// Three self-check gates (exit non-zero on regression):
//
//  1. RECLAIM — after discarding half of every object in the working set,
//     cluster free capacity grows by at least the trimmed data bytes (the
//     store really releases backing sectors to the allocator; punched
//     capacity is visible in StoreSpace).
//
//  2. FAST PATH — warmed rereads of the trimmed ranges complete with ZERO
//     device read ops and ZERO metadata bytes fetched: the discard left
//     cleared markers in the client IV cache, so the reads never reach
//     the store at all (trim_zero_reads counts them).
//
//  3. ERASE CHANNEL — an attacker zeroing a LIVE block's ciphertext and
//     metadata on every replica fails authentication under the HMAC and
//     GCM formats (MAC'd per-object discard bitmap), while an authentic
//     trim of the same geometry keeps reading as zeros.
//
// Usage: bench_trim [--quick]
#include <algorithm>
#include <cstdio>
#include <cstring>

#include "cluster_fixture.h"

namespace {

using namespace vde;

constexpr uint64_t kBlk = core::kBlockSize;
constexpr uint64_t kObjSize = 4ull << 20;

rados::ClusterConfig TrimCluster() {
  rados::ClusterConfig cfg = bench::PaperCluster();
  cfg.nodes = 1;
  cfg.osds_per_node = 4;
  cfg.replication = 1;
  cfg.pg_count = 32;
  return cfg;
}

struct TrimPoint {
  uint64_t trimmed_bytes = 0;    // data bytes discarded
  int64_t freed_bytes = 0;       // cluster free-capacity growth
  uint64_t punched_bytes = 0;    // capacity in the punched pools
  uint64_t reread_dev_reads = 0; // device read ops during the warmed reread
  uint64_t reread_meta_bytes = 0;  // metadata bytes fetched during it
  uint64_t zero_reads = 0;       // extents served client-side as zeros
  bool reread_all_zero = false;
  bool ok = false;
};

// Prefill `objects` x 4 MiB objects, discard the first half of each, then
// reread the trimmed halves.
TrimPoint RunTrimPoint(const core::EncryptionSpec& spec, size_t objects) {
  TrimPoint point;
  sim::Scheduler sched;

  auto body = [&]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TrimCluster());
    if (!cluster.ok()) co_return;

    rbd::ImageOptions options;
    options.size = 1ull << 30;
    options.enc = spec;
    options.enc.iv_seed = 1;
    options.luks.pbkdf2_iterations = 10;
    options.luks.af_stripes = 8;
    options.iv_cache.enabled = true;
    options.iv_cache.max_objects = objects + 8;
    auto image =
        co_await rbd::Image::Create(**cluster, "trimbench", "pw", options);
    if (!image.ok()) co_return;
    auto& img = **image;

    workload::FioConfig fio;
    fio.is_write = true;
    fio.working_set = objects * kObjSize;
    workload::FioRunner runner(img, fio);
    if (!(co_await runner.Prefill()).ok()) co_return;
    if (!(co_await img.Flush()).ok()) co_return;
    co_await (*cluster)->Drain();

    const uint64_t free_before = (*cluster)->TotalStoreSpace().free_bytes;
    for (size_t o = 0; o < objects; ++o) {
      if (!(co_await img.Discard(o * kObjSize, kObjSize / 2)).ok()) co_return;
    }
    co_await (*cluster)->Drain();
    const objstore::StoreSpace after = (*cluster)->TotalStoreSpace();
    point.trimmed_bytes = objects * kObjSize / 2;
    point.freed_bytes = static_cast<int64_t>(after.free_bytes) -
                        static_cast<int64_t>(free_before);
    point.punched_bytes = after.punched_bytes;

    // Warmed reread of every trimmed range: the discards populated the
    // cleared markers, so these reads must not touch the store.
    const obs::Metrics before = img.MetricsSnapshot();
    bool all_zero = true;
    for (size_t o = 0; o < objects; ++o) {
      auto got = co_await img.Read(o * kObjSize, kObjSize / 2);
      if (!got.ok()) co_return;
      all_zero = all_zero && std::all_of(got->begin(), got->end(),
                                         [](uint8_t b) { return b == 0; });
    }
    const obs::Metrics reread = img.MetricsSnapshot().DeltaSince(before);
    point.reread_dev_reads = reread.CounterOr("cluster.device.read_ops");
    point.reread_meta_bytes = reread.CounterOr("image.iv_meta_bytes_fetched");
    point.zero_reads = reread.CounterOr("image.trim_zero_reads");
    point.reread_all_zero = all_zero;
    point.ok = true;
  };

  sched.Spawn(body());
  sched.Run();
  if (!point.ok) {
    std::fprintf(stderr, "RunTrimPoint failed: %s\n", spec.Name().c_str());
  }
  return point;
}

// Erase-channel probe: returns true when the zeroed LIVE block fails
// authentication AND the authentic trim reads as zeros.
bool RunEraseChannelPoint(const core::EncryptionSpec& spec) {
  bool forged_rejected = false;
  bool trim_reads_zero = false;
  bool ran = false;
  sim::Scheduler sched;

  auto body = [&]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TrimCluster());
    if (!cluster.ok()) co_return;
    rbd::ImageOptions options;
    options.size = 64ull << 20;
    options.enc = spec;
    options.enc.iv_seed = 1;
    options.luks.pbkdf2_iterations = 10;
    options.luks.af_stripes = 8;
    auto image =
        co_await rbd::Image::Create(**cluster, "erase", "pw", options);
    if (!image.ok()) co_return;
    auto& img = **image;

    Bytes data(2 * kBlk);
    for (size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<uint8_t>(i * 131 + 7);
    }
    if (!(co_await img.Write(0, data)).ok()) co_return;
    if (!(co_await img.Flush()).ok()) co_return;
    co_await (*cluster)->Drain();

    // Authentic trim of block 1.
    if (!(co_await img.Discard(kBlk, kBlk)).ok()) co_return;
    auto trimmed = co_await img.Read(kBlk, kBlk);
    trim_reads_zero =
        trimmed.ok() && std::all_of(trimmed->begin(), trimmed->end(),
                                    [](uint8_t b) { return b == 0; });

    // Attacker zeroes live block 0 — data AND metadata, every replica.
    const std::string oid = img.ObjectName(0);
    const size_t meta = spec.MetaPerBlock();
    for (size_t i = 0; i < (*cluster)->osd_count(); ++i) {
      objstore::ObjectStore& os = (*cluster)->osd(i).store();
      if (!os.ObjectExists(oid)) continue;
      switch (spec.layout) {
        case core::IvLayout::kUnaligned:
          (void)os.TamperObjectData(oid, 0, Bytes(kBlk + meta, 0));
          break;
        case core::IvLayout::kObjectEnd:
          (void)os.TamperObjectData(oid, 0, Bytes(kBlk, 0));
          (void)os.TamperObjectData(oid, kObjSize, Bytes(meta, 0));
          break;
        case core::IvLayout::kOmap: {
          (void)os.TamperObjectData(oid, 0, Bytes(kBlk, 0));
          Bytes key(8);
          StoreU64Be(key.data(), 0);
          (void)co_await os.TamperOmapRow(oid, key, Bytes{});
          break;
        }
        case core::IvLayout::kNone:
          break;
      }
    }
    auto forged = co_await img.Read(0, kBlk);
    forged_rejected = forged.status().code() == StatusCode::kCorruption;
    ran = true;
  };

  sched.Spawn(body());
  sched.Run();
  return ran && forged_rejected && trim_reads_zero;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const size_t objects = quick ? 4 : 16;

  const core::EncryptionSpec plain_oe{core::CipherMode::kXtsRandom,
                                      core::IvLayout::kObjectEnd};
  const core::EncryptionSpec hmac_oe{core::CipherMode::kXtsRandom,
                                     core::IvLayout::kObjectEnd,
                                     core::Integrity::kHmac};
  const core::EncryptionSpec hmac_omap{core::CipherMode::kXtsRandom,
                                       core::IvLayout::kOmap,
                                       core::Integrity::kHmac};
  const core::EncryptionSpec hmac_unaligned{core::CipherMode::kXtsRandom,
                                            core::IvLayout::kUnaligned,
                                            core::Integrity::kHmac};
  const core::EncryptionSpec gcm_oe{core::CipherMode::kGcmRandom,
                                    core::IvLayout::kObjectEnd};
  const core::EncryptionSpec gcm_omap{core::CipherMode::kGcmRandom,
                                      core::IvLayout::kOmap};

  std::printf("Discard pipeline: reclaim + trimmed-read fast path "
              "(%zu x 4 MiB objects, half of each discarded)\n",
              objects);
  std::printf("%-22s | %9s %9s | %8s %9s %7s | %s\n", "spec", "trimmed",
              "freed", "dev_rds", "meta_B", "zfills", "gate");

  bool gates_ok = true;
  struct SpecRow {
    const char* name;
    const core::EncryptionSpec* spec;
  };
  const SpecRow rows[] = {{"xts-random/object-end", &plain_oe},
                          {"hmac/object-end", &hmac_oe},
                          {"hmac/omap", &hmac_omap},
                          {"gcm/object-end", &gcm_oe}};
  for (const SpecRow& row : rows) {
    const TrimPoint p = RunTrimPoint(*row.spec, objects);
    const bool reclaimed =
        p.freed_bytes >= static_cast<int64_t>(p.trimmed_bytes);
    const bool fast =
        p.reread_dev_reads == 0 && p.reread_meta_bytes == 0 &&
        p.zero_reads > 0 && p.reread_all_zero;
    const bool pass = p.ok && reclaimed && fast;
    gates_ok = gates_ok && pass;
    std::printf("%-22s | %7.1fMB %7.1fMB | %8llu %9llu %7llu | %s%s\n",
                row.name,
                static_cast<double>(p.trimmed_bytes) / (1 << 20),
                static_cast<double>(p.freed_bytes) / (1 << 20),
                static_cast<unsigned long long>(p.reread_dev_reads),
                static_cast<unsigned long long>(p.reread_meta_bytes),
                static_cast<unsigned long long>(p.zero_reads),
                pass ? "PASS" : "FAIL",
                pass ? "" : (reclaimed ? " (fast path)" : " (reclaim)"));
    std::fflush(stdout);
  }

  std::printf("\nErase channel: attacker-zeroed live block vs authentic "
              "trim\n");
  const SpecRow auth_rows[] = {{"hmac/object-end", &hmac_oe},
                               {"hmac/omap", &hmac_omap},
                               {"hmac/unaligned", &hmac_unaligned},
                               {"gcm/object-end", &gcm_oe},
                               {"gcm/omap", &gcm_omap}};
  for (const SpecRow& row : auth_rows) {
    const bool pass = RunEraseChannelPoint(*row.spec);
    gates_ok = gates_ok && pass;
    std::printf("  %-20s forged discard rejected, authentic reads zero: "
                "%s\n",
                row.name, pass ? "PASS" : "FAIL");
    std::fflush(stdout);
  }

  std::printf("gates: %s\n", gates_ok ? "PASS" : "FAIL");
  return gates_ok ? 0 : 1;
}
