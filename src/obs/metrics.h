// Unified metrics registry: one walkable tree of named counters, gauges,
// and histograms that every layer exports into, and the single point every
// summary and JSON file renders from. Stats structs export their counter
// lists (util/stats.h) with ExportTo(node).
//
// A Metrics node holds flat values plus named children; exporters write
// into the node they are handed (`node.Counter("writes", n)`), composition
// happens by nesting (`root.Child("image")`). Values are plain snapshots —
// the registry stores no live references, so exporting is always safe and
// deterministic (std::map keeps render order stable).
//
// Renders to an indented text listing and to JSON; dotted-path lookups
// (`root.FindCounter("image.writes")`) serve tests and benches.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "util/stats.h"

namespace vde::sim {
class Scheduler;
}  // namespace vde::sim

namespace vde::obs {

// Escapes a string for embedding inside a JSON string literal.
std::string JsonEscape(const std::string& s);

class Metrics {
 public:
  // Child node, created on first use.
  Metrics& Child(const std::string& name) { return children_[name]; }

  // Counters only grow (DeltaSince subtracts them); a level that can fall,
  // or a flag, is a gauge.
  void Counter(const std::string& name, uint64_t value) {
    counters_[name] = value;
  }
  void Gauge(const std::string& name, double value) { gauges_[name] = value; }
  void Hist(const std::string& name, const Histogram& h) { hists_[name] = h; }

  bool empty() const {
    return counters_.empty() && gauges_.empty() && hists_.empty() &&
           children_.empty();
  }

  // Dotted-path lookup ("image.writes", "sim.cores"); null when the path
  // does not resolve.
  const uint64_t* FindCounter(const std::string& path) const;
  const double* FindGauge(const std::string& path) const;
  const Histogram* FindHist(const std::string& path) const;
  uint64_t CounterOr(const std::string& path, uint64_t fallback = 0) const {
    const uint64_t* v = FindCounter(path);
    return v != nullptr ? *v : fallback;
  }

  // What accumulated since `before`, an earlier snapshot of the same tree:
  // counters subtract, histograms take Histogram::DeltaSince, gauges keep
  // this (the later) value. An entry absent from `before` counts from zero.
  Metrics DeltaSince(const Metrics& before) const;

  // One "path.name = value" line per entry, depth-first.
  std::string ToText() const;

  // {"counters":{...},"gauges":{...},"hists":{...},"children":{...}} with
  // empty sections omitted.
  std::string ToJson() const;
  void AppendJson(std::string& out) const;

 private:
  void AppendText(std::string& out, const std::string& prefix) const;

  std::map<std::string, uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Histogram> hists_;
  std::map<std::string, Metrics> children_;
};

// The root node of a full snapshot (naming alias; any node works as one).
using MetricsRegistry = Metrics;

// Exports the sim scheduler's state: events processed, core count, and
// per-core busy time (the core model's utilization source).
void ExportSim(const sim::Scheduler& sched, Metrics& node);

}  // namespace vde::obs
