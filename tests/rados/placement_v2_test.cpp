// Placement v2 (versioned OSD maps): v1 bit-identity on healthy uniform
// maps, movement bounds on OSD add/loss, acting-set correctness with down
// OSDs, weighted placement, and epoch semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "rados/placement.h"
#include "util/rng.h"

namespace vde::rados {
namespace {

// The pre-v2 algorithm, reimplemented verbatim as a reference: rendezvous
// over all nodes, then rendezvous over each node's OSDs by local index.
// ActingFor on an all-up, uniform-weight map must match this bit-for-bit —
// that is the "disabled path is bit-identical" contract.
std::vector<size_t> V1ActingFor(uint32_t pg, size_t nodes,
                                size_t osds_per_node, size_t replication) {
  std::vector<std::pair<uint64_t, size_t>> scored;
  for (size_t node = 0; node < nodes; ++node) {
    scored.emplace_back(HashMix(pg * 0x9E3779B1ULL + node * 0xDEADBEEFULL),
                        node);
  }
  std::sort(scored.begin(), scored.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<size_t> osds;
  for (size_t r = 0; r < std::min(replication, nodes); ++r) {
    const size_t node = scored[r].second;
    uint64_t best_hash = 0;
    size_t best = 0;
    bool found = false;
    for (size_t local = 0; local < osds_per_node; ++local) {
      const uint64_t hash =
          HashMix((uint64_t{pg} << 32) ^ (node << 16) ^ local);
      if (!found || hash >= best_hash) {
        best_hash = hash;
        best = node * osds_per_node + local;
        found = true;
      }
    }
    osds.push_back(best);
  }
  return osds;
}

PlacementConfig Config(uint32_t pgs = 256, size_t nodes = 3,
                       size_t osds_per_node = 9, size_t replication = 3) {
  return PlacementConfig{pgs, nodes, osds_per_node, replication};
}

TEST(PlacementV2, HealthyUniformMapMatchesV1BitForBit) {
  for (size_t osds_per_node : {1u, 4u, 9u}) {
    OsdMap map(Config(512, 3, osds_per_node, 3));
    for (uint32_t pg = 0; pg < 512; ++pg) {
      EXPECT_EQ(map.ActingFor(pg), V1ActingFor(pg, 3, osds_per_node, 3))
          << "pg " << pg << " osds_per_node " << osds_per_node;
    }
  }
}

TEST(PlacementV2, MappingIsDeterministic) {
  OsdMap a(Config());
  OsdMap b(Config());
  a.MarkDown(4);
  b.MarkDown(4);
  for (uint32_t pg = 0; pg < a.pg_count(); ++pg) {
    EXPECT_EQ(a.ActingFor(pg), b.ActingFor(pg));
  }
}

TEST(PlacementV2, EpochBumpsOnlyOnRealChanges) {
  OsdMap map(Config());
  const uint64_t e0 = map.epoch();
  map.MarkDown(3);
  EXPECT_EQ(map.epoch(), e0 + 1);
  map.MarkDown(3);  // no-op: already down
  EXPECT_EQ(map.epoch(), e0 + 1);
  map.MarkUp(3);
  EXPECT_EQ(map.epoch(), e0 + 2);
  map.SetWeight(5, 1.0);  // no-op: unchanged weight
  EXPECT_EQ(map.epoch(), e0 + 2);
  map.SetWeight(5, 2.0);
  EXPECT_EQ(map.epoch(), e0 + 3);
  map.AddOsd(0);
  EXPECT_EQ(map.epoch(), e0 + 4);
}

TEST(PlacementV2, DownOsdLeavesOtherSlotsUntouched) {
  OsdMap map(Config());
  std::vector<std::vector<size_t>> before;
  for (uint32_t pg = 0; pg < map.pg_count(); ++pg) {
    before.push_back(map.ActingFor(pg));
  }
  const size_t down = 7;
  map.MarkDown(down);
  size_t moved = 0;
  for (uint32_t pg = 0; pg < map.pg_count(); ++pg) {
    const auto after = map.ActingFor(pg);
    ASSERT_EQ(after.size(), before[pg].size());
    for (size_t r = 0; r < after.size(); ++r) {
      if (before[pg][r] == down) {
        // Replacement stays on the same node — cross-node layout is a pure
        // function of (pg, node) eligibility, untouched by OSD churn.
        EXPECT_NE(after[r], down);
        EXPECT_EQ(map.NodeOf(after[r]), map.NodeOf(down));
        moved++;
      } else {
        EXPECT_EQ(after[r], before[pg][r]) << "pg " << pg << " slot " << r;
      }
    }
  }
  // The downed OSD held ~1/osd_count of all slots; everything else stayed.
  const size_t slots = map.pg_count() * 3;
  EXPECT_GT(moved, 0u);
  EXPECT_LT(moved, 3 * slots / map.osd_count());
}

TEST(PlacementV2, AddOsdMovesOnlyItsShare) {
  OsdMap map(Config(512));
  std::vector<std::vector<size_t>> before;
  for (uint32_t pg = 0; pg < map.pg_count(); ++pg) {
    before.push_back(map.ActingFor(pg));
  }
  const size_t added = map.AddOsd(1);
  EXPECT_EQ(map.osd_count(), 28u);
  size_t moved = 0;
  for (uint32_t pg = 0; pg < map.pg_count(); ++pg) {
    const auto after = map.ActingFor(pg);
    ASSERT_EQ(after.size(), before[pg].size());
    for (size_t r = 0; r < after.size(); ++r) {
      if (after[r] == added) {
        // The newcomer only claims slots on its own node.
        EXPECT_EQ(map.NodeOf(before[pg][r]), 1u);
        moved++;
      } else {
        EXPECT_EQ(after[r], before[pg][r]) << "pg " << pg << " slot " << r;
      }
    }
  }
  // Expected share: the node holds pg_count slots (one per PG with 3-way
  // replication over 3 nodes); the new OSD should win ~1/10 of them.
  EXPECT_GT(moved, 0u);
  EXPECT_LT(moved, map.pg_count() / 4);
}

TEST(PlacementV2, ActingSetsExcludeDownOsdsAndShrinkWithDownNodes) {
  OsdMap map(Config(128, 3, 2, 3));
  map.MarkDown(0);
  for (uint32_t pg = 0; pg < map.pg_count(); ++pg) {
    for (size_t id : map.ActingFor(pg)) {
      EXPECT_TRUE(map.IsUp(id));
    }
  }
  map.MarkDown(1);  // node 0 fully down -> width degrades to 2
  for (uint32_t pg = 0; pg < map.pg_count(); ++pg) {
    const auto acting = map.ActingFor(pg);
    EXPECT_EQ(acting.size(), 2u);
    for (size_t id : acting) EXPECT_NE(map.NodeOf(id), 0u);
  }
}

TEST(PlacementV2, UniformWeightChangeMovesNothing) {
  OsdMap base(Config());
  OsdMap scaled(Config());
  // Same weight everywhere is still uniform: the raw-hash path must keep
  // deciding, so nothing moves.
  for (size_t id = 0; id < scaled.osd_count(); ++id) {
    scaled.SetWeight(id, 2.5);
  }
  for (uint32_t pg = 0; pg < base.pg_count(); ++pg) {
    EXPECT_EQ(base.ActingFor(pg), scaled.ActingFor(pg));
  }
}

TEST(PlacementV2, HeavierOsdTakesProportionallyMoreSlots) {
  OsdMap map(Config(2048, 3, 3, 3));
  map.SetWeight(0, 3.0);  // node 0, first OSD: 3x its siblings
  std::map<size_t, size_t> wins;
  for (uint32_t pg = 0; pg < map.pg_count(); ++pg) {
    for (size_t id : map.ActingFor(pg)) {
      if (map.NodeOf(id) == 0) wins[id]++;
    }
  }
  // Node 0 holds 2048 slots split 3:1:1 -> expect ~1228/409/409. Allow a
  // wide band; the point is the skew direction and rough proportion.
  EXPECT_GT(wins[0], 2 * wins[1]);
  EXPECT_GT(wins[0], 2 * wins[2]);
  EXPECT_GT(wins[1], 200u);
  EXPECT_GT(wins[2], 200u);
}

TEST(PlacementV2, ZeroWeightExcludesOsd) {
  OsdMap map(Config());
  map.SetWeight(2, 0.0);
  for (uint32_t pg = 0; pg < map.pg_count(); ++pg) {
    for (size_t id : map.ActingFor(pg)) EXPECT_NE(id, 2u);
  }
}

TEST(PlacementV2, DownThenUpRestoresOriginalLayout) {
  OsdMap map(Config());
  std::vector<std::vector<size_t>> before;
  for (uint32_t pg = 0; pg < map.pg_count(); ++pg) {
    before.push_back(map.ActingFor(pg));
  }
  map.MarkDown(11);
  map.MarkUp(11);
  for (uint32_t pg = 0; pg < map.pg_count(); ++pg) {
    EXPECT_EQ(map.ActingFor(pg), before[pg]) << "pg " << pg;
  }
}

// ActingFor caches each PG's acting set per map version. Over random
// sequences of down, up, weight and add, a map queried after every step
// (its cache refilled and dropped again and again) must agree with a map
// that replays the same steps and computes every PG cold. A copy taken
// mid-sequence, as a client caches the monitor's map, keeps its own
// version's answers while the original moves on.
TEST(PlacementV2, CachedActingSetsMatchColdRecompute) {
  struct Step {
    int kind;  // 0 down, 1 up, 2 weight, 3 add
    size_t osd;
    double weight;
    void ApplyTo(OsdMap& map) const {
      switch (kind) {
        case 0: map.MarkDown(osd); break;
        case 1: map.MarkUp(osd); break;
        case 2: map.SetWeight(osd, weight); break;
        default: map.AddOsd(osd % map.node_count()); break;
      }
    }
  };
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    OsdMap warm(Config());
    std::vector<Step> steps;
    OsdMap snapshot = warm;
    std::vector<std::vector<size_t>> snapshot_sets;
    for (int step = 0; step < 120; ++step) {
      // Every 40th step may also add an OSD.
      const Step next{static_cast<int>(rng.NextBelow(step % 40 == 39 ? 4 : 3)),
                      rng.NextBelow(warm.osd_count()),
                      0.5 * static_cast<double>(rng.NextBelow(5))};
      next.ApplyTo(warm);
      steps.push_back(next);
      OsdMap cold(Config());
      for (const Step& s : steps) s.ApplyTo(cold);
      ASSERT_EQ(cold.epoch(), warm.epoch());
      for (uint32_t pg = 0; pg < warm.pg_count(); ++pg) {
        ASSERT_EQ(warm.ActingFor(pg), cold.ActingFor(pg))
            << "seed " << seed << " step " << step << " pg " << pg;
      }
      if (step == 60) {
        snapshot = warm;
        snapshot_sets.clear();
        for (uint32_t pg = 0; pg < warm.pg_count(); ++pg) {
          snapshot_sets.push_back(warm.ActingFor(pg));
        }
      }
    }
    for (uint32_t pg = 0; pg < snapshot.pg_count(); ++pg) {
      EXPECT_EQ(snapshot.ActingFor(pg), snapshot_sets[pg]) << "pg " << pg;
    }
  }
}

}  // namespace
}  // namespace vde::rados
