// §3.3 in-text analysis: "in a 4KB write/read, a minimum of two physical
// disk sectors need to be accessed (one for the data and one for the IV)
// versus one in the baseline. Whereas a 32KB IO typically requires 9 sectors
// to be accessed versus 8 in the baseline."
//
// This bench prints the THEORETICAL sector counts per layout and IO size
// next to the simulated device's actual sector counters for single-op
// writes on a one-OSD store. Gate: every cell's theory and measurement
// agree, and the paper's two examples hold on the object-end layout (4K:
// 2 sectors vs 1 for LUKS2; 32K: 9 vs 8). Every cell runs on a cold store,
// so its partial IV sectors are read before they are rewritten. Two warm
// gates count a write whose partial sectors the store's sector cache still
// holds: a second object-end 4K write into the IV sector the first one
// wrote costs the paper's two sectors with no read, and so does a
// compressed unaligned rewrite of a slot whose tail the first write
// trimmed (the trim covers no whole sector, so it keeps the slot's edge
// tags). Exits non-zero on FAIL.
//
// Usage: bench_sector_model [--quick]   (one op per cell: --quick changes
// nothing)
#include <algorithm>
#include <cstdio>
#include <optional>

#include "core/format.h"
#include "device/nvme.h"
#include "harness.h"
#include "objstore/object_store.h"
#include "util/rng.h"

namespace {

using namespace vde;
using namespace vde::bench;

constexpr uint64_t kSector = 4096;
constexpr uint64_t kObjectSize = 4ull << 20;

struct SectorCount {
  uint64_t written;
  uint64_t rmw_read;
  uint64_t device_read = 0;  // every sector the device read (measured only)
};

// Sectors spanned by the byte range [start, start+len) plus the RMW reads
// its partial head/tail sectors require (one when both are one sector).
SectorCount SpanCost(uint64_t start, uint64_t len) {
  const uint64_t first = start / kSector;
  const uint64_t last = (start + len + kSector - 1) / kSector;
  const bool head_partial = start % kSector != 0;
  const bool tail_partial = (start + len) % kSector != 0;
  const uint64_t tail = (start + len) / kSector;
  uint64_t rmw = head_partial ? 1 : 0;
  if (tail_partial && !(head_partial && tail == first)) rmw++;
  return {last - first, rmw};
}

// Theoretical sectors touched by one IO of `io` bytes at in-object block
// `first_block` (matching the Measured() extent below).
SectorCount Theoretical(core::IvLayout layout, uint64_t io,
                        uint64_t first_block) {
  const uint64_t blocks = io / kSector;
  switch (layout) {
    case core::IvLayout::kNone:
      return {blocks, 0};
    case core::IvLayout::kObjectEnd: {
      // Data sectors (aligned) + IV region span (Fig. 2b).
      const auto iv =
          SpanCost(kObjectSize + first_block * 16, blocks * 16);
      return {blocks + iv.written, iv.rmw_read};
    }
    case core::IvLayout::kUnaligned:
      // Interleaved stride-4112 span (Fig. 2a): unaligned head and tail.
      return SpanCost(first_block * (kSector + 16), blocks * (kSector + 16));
    case core::IvLayout::kOmap:
      // Data sectors only on the data path; IV bytes ride the KV store's
      // WAL (measured separately, ~1 sector per transaction commit).
      return {blocks, 0};
  }
  return {0, 0};
}

// Measured: apply one write transaction of `io` bytes at in-object block 1
// on a fresh store and count its sectors. `warm_block`, when set, is
// written first, and only the second write is counted. A compressing spec
// writes compressible blocks (1 KiB of random bytes, zeros after), so each
// slot's tail is trimmed.
SectorCount Measured(Bench& bench, const core::EncryptionSpec& spec,
                     uint64_t io,
                     std::optional<uint64_t> warm_block = std::nullopt) {
  SectorCount out{0, 0};
  const RunResult run = Run(0, [&]() -> sim::Task<bool> {
    auto nvme = std::make_shared<dev::NvmeDevice>();
    objstore::StoreConfig cfg;
    cfg.journal_size = 8ull << 20;
    cfg.kv_region_size = 64ull << 20;
    auto store = co_await objstore::ObjectStore::Open(nvme, cfg);
    if (!store.ok()) co_return false;

    Rng rng(1);
    Bytes key = rng.RandomBytes(64);
    auto format = core::MakeFormat(spec, key, kObjectSize);
    // The final-location sector traffic (what the paper's model counts) is
    // tracked by the store's apply-path counters; journal and OMAP WAL
    // traffic are excluded by construction.
    const auto write_at = [&](uint64_t block) -> sim::Task<bool> {
      core::ObjectExtent ext;
      ext.oid = "obj";
      ext.first_block = block;  // unaligned stride offsets show at >= 1
      ext.block_count = io / kSector;
      ext.image_block = block;
      objstore::Transaction txn;
      txn.oid = "obj";
      Bytes plain = rng.RandomBytes(io);
      if (spec.compression.enabled()) {
        for (size_t b = 0; b < plain.size(); b += kSector) {
          std::fill_n(plain.begin() + static_cast<long>(b + 1024),
                      kSector - 1024, 0);
        }
      }
      if (!format->MakeWrite(ext, plain, txn).ok()) co_return false;
      if (!(co_await (*store)->Apply(txn, {})).ok()) co_return false;
      co_await (*store)->Drain();
      co_return true;
    };
    if (warm_block && !co_await write_at(*warm_block)) co_return false;
    const objstore::StoreStats before = (*store)->stats();
    const uint64_t read_before = nvme->stats().sectors_read;
    if (!co_await write_at(1)) co_return false;
    out.written = (*store)->stats().apply_sectors_written -
                  before.apply_sectors_written;
    out.rmw_read = (*store)->stats().rmw_sectors - before.rmw_sectors;
    out.device_read = nvme->stats().sectors_read - read_before;
    co_return true;
  });
  bench.Require(run.ok, spec.Name() + " io=" + HumanSize(io));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Bench bench("sector_model", argc, argv);

  std::printf("Reproduction of HotStorage'22 SS3.3 in-text sector model:\n");
  std::printf("sectors accessed per aligned random write (data path, journal "
              "excluded)\n\n");
  std::printf("%8s | %22s | %22s | %22s | %22s\n", "IO size",
              "LUKS2 (theory/meas)", "Unaligned", "Object end", "OMAP");

  struct Case {
    const char* name;
    core::EncryptionSpec spec;
  };
  const Case cases[] = {
      {"LUKS2", {}},
      {"Unaligned",
       {core::CipherMode::kXtsRandom, core::IvLayout::kUnaligned}},
      {"Object end",
       {core::CipherMode::kXtsRandom, core::IvLayout::kObjectEnd}},
      {"OMAP", {core::CipherMode::kXtsRandom, core::IvLayout::kOmap}},
  };

  size_t cells = 0;
  size_t matched = 0;
  bool examples_ok = true;
  for (uint64_t io = 4096; io <= (1ull << 20); io *= 2) {
    std::printf("%8lluK", static_cast<unsigned long long>(io >> 10));
    uint64_t luks_written = 0;
    for (const auto& c : cases) {
      const auto theory = Theoretical(c.spec.layout, io, /*first_block=*/1);
      const auto meas = Measured(bench, c.spec, io);
      cells++;
      if (theory.written == meas.written && theory.rmw_read == meas.rmw_read) {
        matched++;
      }
      if (c.spec.layout == core::IvLayout::kNone) luks_written = meas.written;
      if (c.spec.layout == core::IvLayout::kObjectEnd &&
          (io == 4096 || io == 32768)) {
        // 4K: 2 vs 1; 32K: 9 vs 8 — one extra sector for the IV region.
        examples_ok = examples_ok && luks_written == io / kSector &&
                      meas.written == io / kSector + 1;
      }
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%llu+%lluR / %llu+%lluR",
                    static_cast<unsigned long long>(theory.written),
                    static_cast<unsigned long long>(theory.rmw_read),
                    static_cast<unsigned long long>(meas.written),
                    static_cast<unsigned long long>(meas.rmw_read));
      std::printf(" | %22s", buf);
    }
    std::printf("\n");
  }
  std::printf("\nPaper's examples: 4K write -> 2 sectors vs 1 baseline; "
              "32K -> 9 vs 8. ('xR' = extra RMW sector reads)\n\n");
  std::printf("cells matching theory: %zu/%zu\n", matched, cells);
  bench.Gate("cells", matched == cells,
             "every cell's theoretical sectors match the measured ones",
             {{"matched", matched}, {"cells", cells}});
  bench.Gate("paper_examples", examples_ok,
             "object end vs LUKS2: 4K writes 2 sectors vs 1, 32K 9 vs 8");

  // Block 2's IV record shares block 1's IV sector.
  const SectorCount warm =
      Measured(bench, cases[2].spec, kSector, /*warm_block=*/2);
  std::printf("Object end, 4K write into a cached IV sector: %llu written "
              "+ %llu read\n",
              static_cast<unsigned long long>(warm.written),
              static_cast<unsigned long long>(warm.device_read));
  bench.Gate("warm_object_end", warm.written == 2 && warm.device_read == 0,
             "a second object-end 4K write into a written IV sector: 2 "
             "sectors, 0 read",
             {{"written", warm.written}, {"read", warm.device_read}});

  core::EncryptionSpec lz{core::CipherMode::kGcmRandom,
                          core::IvLayout::kUnaligned};
  lz.compression.codec = core::Compression::kLz;
  const uint64_t slot = kSector + lz.MetaPerBlock();
  const uint64_t slot_sectors = SpanCost(slot, slot).written;
  const SectorCount rewrite = Measured(bench, lz, kSector, /*warm_block=*/1);
  std::printf("Unaligned+LZ, rewrite of a tail-trimmed slot: %llu written "
              "+ %llu read\n",
              static_cast<unsigned long long>(rewrite.written),
              static_cast<unsigned long long>(rewrite.device_read));
  bench.Gate("warm_unaligned_lz",
             rewrite.written == slot_sectors && rewrite.device_read == 0,
             "a compressed unaligned rewrite of a slot whose tail was "
             "trimmed: the slot's sectors, 0 read",
             {{"written", rewrite.written},
              {"slot_sectors", slot_sectors},
              {"read", rewrite.device_read}});
  return bench.Finish();
}
