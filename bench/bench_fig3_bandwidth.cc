// Figure 3 (a)+(b): random read / write bandwidth vs IO size for the LUKS2
// baseline and the three random-IV layouts. Regenerates the series of the
// paper's headline plot on the simulated paper-testbed cluster.
//
// Usage: bench_fig3_bandwidth [--figure=3a|3b|both] [--quick]
#include <cstdio>

#include "harness.h"

namespace {

using namespace vde;
using namespace vde::bench;

void RunFigure(Bench& bench, bool is_write) {
  const auto specs = PaperSpecs();
  auto sizes = PaperIoSizes();
  if (bench.quick()) {
    sizes = {4096, 65536, 1ull << 20, 4ull << 20};
  }

  std::printf("\n=== Figure 3%s: random %s bandwidth [MB/s], QD=32 ===\n",
              is_write ? "b" : "a", is_write ? "write" : "read");
  std::printf("%8s", "IO size");
  for (const auto& s : specs) std::printf("  %12s", s.name);
  std::printf("\n");

  for (const uint64_t io : sizes) {
    std::printf("%8s", HumanSize(io).c_str());
    std::fflush(stdout);
    for (const auto& s : specs) {
      const auto point = RunPoint(
          bench, {.spec = s.spec, .io_size = io, .is_write = is_write});
      std::printf("  %12.1f", point.mbps);
      std::fflush(stdout);
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  Bench bench("fig3_bandwidth", argc, argv, /*figure_flag=*/true);
  std::printf("Reproduction of HotStorage'22 \"Rethinking Block Storage "
              "Encryption with Virtual Disks\", Fig. 3\n");
  std::printf("(simulated 3-node x 9-NVMe cluster, 3x replication, 4 MiB "
              "objects, 4 KiB encryption blocks)\n");
  if (bench.figure() != "3b") RunFigure(bench, /*is_write=*/false);
  if (bench.figure() != "3a") RunFigure(bench, /*is_write=*/true);
  return bench.Finish();
}
