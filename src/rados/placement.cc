#include "rados/placement.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace vde::rados {

uint64_t HashMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t HashName(const std::string& name) {
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV offset basis
  for (char c : name) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ULL;  // FNV prime
  }
  return HashMix(h);
}

OsdMap::OsdMap(const PlacementConfig& config)
    : pg_count_(config.pg_count), replication_(config.replication) {
  nodes_.resize(config.nodes);
  next_key_.assign(config.nodes, config.osds_per_node);
  for (size_t n = 0; n < config.nodes; ++n) {
    for (size_t i = 0; i < config.osds_per_node; ++i) {
      nodes_[n].push_back(osds_.size());
      osds_.push_back(OsdEntry{n, i, true, 1.0});
    }
  }
}

size_t OsdMap::UpCount() const {
  size_t up = 0;
  for (const OsdEntry& o : osds_) up += o.up ? 1 : 0;
  return up;
}

void OsdMap::MarkDown(size_t osd) {
  assert(osd < osds_.size());
  if (!osds_[osd].up) return;
  osds_[osd].up = false;
  Changed();
}

void OsdMap::MarkUp(size_t osd) {
  assert(osd < osds_.size());
  if (osds_[osd].up) return;
  osds_[osd].up = true;
  Changed();
}

void OsdMap::SetWeight(size_t osd, double weight) {
  assert(osd < osds_.size());
  assert(weight >= 0);
  if (osds_[osd].weight == weight) return;
  osds_[osd].weight = weight;
  Changed();
}

size_t OsdMap::AddOsd(size_t node) {
  assert(node < nodes_.size());
  const size_t id = osds_.size();
  nodes_[node].push_back(id);
  osds_.push_back(OsdEntry{node, next_key_[node]++, true, 1.0});
  Changed();
  return id;
}

void OsdMap::Changed() {
  epoch_++;
  acting_.clear();
}

uint32_t OsdMap::PgOf(const std::string& oid) const {
  return static_cast<uint32_t>(HashName(oid) % pg_count_);
}

const std::vector<size_t>& OsdMap::ActingFor(uint32_t pg) const {
  assert(pg < pg_count_);
  if (acting_.empty()) acting_.resize(pg_count_);
  CachedActing& cached = acting_[pg];
  if (!cached.valid) {
    cached.osds = ComputeActing(pg);
    cached.valid = true;
  }
  return cached.osds;
}

std::vector<size_t> OsdMap::ComputeActing(uint32_t pg) const {
  // Rendezvous hashing over nodes that still have an up OSD: highest score
  // wins. The score is a pure function of (pg, node), so node ranks never
  // move when OSDs change state — only eligibility does.
  std::vector<std::pair<uint64_t, size_t>> scored;
  scored.reserve(nodes_.size());
  for (size_t node = 0; node < nodes_.size(); ++node) {
    bool any_up = false;
    for (size_t id : nodes_[node]) {
      if (osds_[id].up && osds_[id].weight > 0) {
        any_up = true;
        break;
      }
    }
    if (!any_up) continue;
    scored.emplace_back(HashMix(pg * 0x9E3779B1ULL + node * 0xDEADBEEFULL),
                        node);
  }
  std::sort(scored.begin(), scored.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });

  std::vector<size_t> osds;
  const size_t width = std::min(replication_, scored.size());
  osds.reserve(width);
  for (size_t r = 0; r < width; ++r) {
    const size_t node = scored[r].second;
    // Pick one up OSD within the node, again by rendezvous. Two scoring
    // paths: when every eligible OSD carries the same weight the raw hash
    // decides (bit-identical to placement v1 on an all-up uniform map);
    // otherwise the weighted-rendezvous transform -w/ln(u) spreads PGs in
    // proportion to weight. The transform is monotone in the hash, so
    // flipping a node to the weighted path reorders nothing at equal
    // weights — only genuinely different weights move slots.
    bool uniform = true;
    double first_weight = -1;
    for (size_t id : nodes_[node]) {
      const OsdEntry& o = osds_[id];
      if (!o.up || o.weight <= 0) continue;
      if (first_weight < 0) {
        first_weight = o.weight;
      } else if (o.weight != first_weight) {
        uniform = false;
        break;
      }
    }
    uint64_t best_hash = 0;
    double best_score = -1;
    size_t best = 0;
    bool found = false;
    for (size_t id : nodes_[node]) {
      const OsdEntry& o = osds_[id];
      if (!o.up || o.weight <= 0) continue;
      const uint64_t hash =
          HashMix((uint64_t{pg} << 32) ^ (node << 16) ^ o.key);
      if (uniform) {
        if (!found || hash >= best_hash) {
          best_hash = hash;
          best = id;
          found = true;
        }
      } else {
        // u in (0, 1): strictly monotone in the hash, never 0 or 1.
        const double u =
            (static_cast<double>(hash) + 0.5) * (1.0 / 18446744073709551616.0);
        const double score = -o.weight / std::log(u);
        if (!found || score >= best_score) {
          best_score = score;
          best = id;
          found = true;
        }
      }
    }
    assert(found && "node with an up OSD must yield a winner");
    osds.push_back(best);
  }
  return osds;
}

}  // namespace vde::rados
