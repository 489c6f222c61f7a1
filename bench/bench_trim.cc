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
#include <vector>

#include "harness.h"

namespace {

using namespace vde;
using namespace vde::bench;

constexpr uint64_t kBlk = core::kBlockSize;
constexpr uint64_t kObjSize = 4ull << 20;

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
TrimPoint RunTrimPoint(Bench& bench, const core::EncryptionSpec& spec,
                       size_t objects) {
  TrimPoint point;
  auto body = [&](rados::Cluster& cluster) -> sim::Task<bool> {
    rbd::ImageOptions options = TestImage(spec, 1ull << 30);
    options.iv_cache.enabled = true;
    options.iv_cache.max_objects = objects + 8;
    auto image =
        co_await rbd::Image::Create(cluster, "trimbench", "pw", options);
    if (!image.ok()) co_return false;
    auto& img = **image;

    workload::FioConfig fio;
    fio.is_write = true;
    fio.working_set = objects * kObjSize;
    workload::FioRunner runner(img, fio);
    if (!(co_await runner.Prefill()).ok()) co_return false;
    if (!(co_await img.Flush()).ok()) co_return false;
    co_await cluster.Drain();

    const uint64_t free_before = cluster.TotalStoreSpace().free_bytes;
    for (size_t o = 0; o < objects; ++o) {
      if (!(co_await img.Discard(o * kObjSize, kObjSize / 2)).ok()) {
        co_return false;
      }
    }
    co_await cluster.Drain();
    const objstore::StoreSpace after = cluster.TotalStoreSpace();
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
      if (!got.ok()) co_return false;
      all_zero = all_zero && std::all_of(got->begin(), got->end(),
                                         [](uint8_t b) { return b == 0; });
    }
    const obs::Metrics reread = img.MetricsSnapshot().DeltaSince(before);
    point.reread_dev_reads = reread.CounterOr("cluster.device.read_ops");
    point.reread_meta_bytes = reread.CounterOr("image.iv_meta_bytes_fetched");
    point.zero_reads = reread.CounterOr("image.trim_zero_reads");
    point.reread_all_zero = all_zero;
    co_return true;
  };
  point.ok = RunOnCluster(SmallCluster(), 0, body).ok;
  bench.Require(point.ok, "RunTrimPoint " + spec.Name());
  return point;
}

// Erase-channel probe: returns true when the zeroed LIVE block fails
// authentication AND the authentic trim reads as zeros.
bool RunEraseChannelPoint(const core::EncryptionSpec& spec) {
  bool forged_rejected = false;
  bool trim_reads_zero = false;
  auto body = [&](rados::Cluster& cluster) -> sim::Task<bool> {
    auto image = co_await rbd::Image::Create(cluster, "erase", "pw",
                                             TestImage(spec, 64ull << 20));
    if (!image.ok()) co_return false;
    auto& img = **image;

    Bytes data(2 * kBlk);
    for (size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<uint8_t>(i * 131 + 7);
    }
    if (!(co_await img.Write(0, data)).ok()) co_return false;
    if (!(co_await img.Flush()).ok()) co_return false;
    co_await cluster.Drain();

    // Authentic trim of block 1.
    if (!(co_await img.Discard(kBlk, kBlk)).ok()) co_return false;
    auto trimmed = co_await img.Read(kBlk, kBlk);
    trim_reads_zero =
        trimmed.ok() && std::all_of(trimmed->begin(), trimmed->end(),
                                    [](uint8_t b) { return b == 0; });

    // Attacker zeroes live block 0 — data AND metadata, every replica.
    const std::string oid = img.ObjectName(0);
    const size_t meta = spec.MetaPerBlock();
    for (size_t i = 0; i < cluster.osd_count(); ++i) {
      objstore::ObjectStore& os = cluster.osd(i).store();
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
    co_return true;
  };
  return RunOnCluster(SmallCluster(), 0, body).ok && forged_rejected &&
         trim_reads_zero;
}

}  // namespace

int main(int argc, char** argv) {
  Bench bench("trim", argc, argv);
  const size_t objects = bench.quick() ? 4 : 16;

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

  bool reclaim_ok = true;
  bool fast_ok = true;
  std::vector<Field> reclaim_values;
  std::vector<Field> fast_values;
  const NamedSpec rows[] = {{"xts-random/object-end", plain_oe},
                            {"hmac/object-end", hmac_oe},
                            {"hmac/omap", hmac_omap},
                            {"gcm/object-end", gcm_oe}};
  for (const NamedSpec& row : rows) {
    const TrimPoint p = RunTrimPoint(bench, row.spec, objects);
    const bool reclaimed =
        p.freed_bytes >= static_cast<int64_t>(p.trimmed_bytes);
    const bool fast =
        p.reread_dev_reads == 0 && p.reread_meta_bytes == 0 &&
        p.zero_reads > 0 && p.reread_all_zero;
    const bool pass = p.ok && reclaimed && fast;
    reclaim_ok = reclaim_ok && p.ok && reclaimed;
    fast_ok = fast_ok && p.ok && fast;
    reclaim_values.push_back({row.name,
                              {{"trimmed_bytes", p.trimmed_bytes},
                               {"freed_bytes", p.freed_bytes}}});
    fast_values.push_back({row.name,
                           {{"device_reads", p.reread_dev_reads},
                            {"meta_bytes", p.reread_meta_bytes},
                            {"zero_reads", p.zero_reads}}});
    std::printf("%-22s | %7.1fMB %7.1fMB | %8llu %9llu %7llu | %s%s\n",
                row.name,
                static_cast<double>(p.trimmed_bytes) / (1 << 20),
                static_cast<double>(p.freed_bytes) / (1 << 20),
                static_cast<unsigned long long>(p.reread_dev_reads),
                static_cast<unsigned long long>(p.reread_meta_bytes),
                static_cast<unsigned long long>(p.zero_reads),
                PassFail(pass),
                pass ? "" : (reclaimed ? " (fast path)" : " (reclaim)"));
    std::fflush(stdout);
  }
  bench.Gate("reclaim", reclaim_ok,
             "free capacity grows by at least the trimmed bytes",
             reclaim_values);
  bench.Gate("fast_path", fast_ok,
             "warmed rereads of trimmed ranges read zeros with zero device "
             "reads and zero metadata bytes",
             fast_values);

  std::printf("\nErase channel: attacker-zeroed live block vs authentic "
              "trim\n");
  const NamedSpec auth_rows[] = {{"hmac/object-end", hmac_oe},
                                 {"hmac/omap", hmac_omap},
                                 {"hmac/unaligned", hmac_unaligned},
                                 {"gcm/object-end", gcm_oe},
                                 {"gcm/omap", gcm_omap}};
  bool erase_ok = true;
  for (const NamedSpec& row : auth_rows) {
    const bool pass = RunEraseChannelPoint(row.spec);
    erase_ok = erase_ok && pass;
    std::printf("  %-20s forged discard rejected, authentic reads zero: "
                "%s\n",
                row.name, PassFail(pass));
    std::fflush(stdout);
  }
  bench.Gate("erase_channel", erase_ok,
             "a zeroed live block fails authentication and an authentic "
             "trim reads zeros, HMAC and GCM");
  return bench.Finish();
}
