// Per-image observability plane: owns the trace ring buffer, the op
// tracker, and the per-stage + end-to-end latency histograms. Disabled
// (the default) it hands out null contexts and every instrumentation point
// degrades to a pointer check — a bit-identical sim-clock passthrough.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "obs/metrics.h"
#include "obs/op_tracker.h"
#include "obs/trace.h"
#include "util/stats.h"

namespace vde::obs {

struct Config {
  bool enabled = false;
  size_t trace_capacity = 1 << 16;  // spans retained in the ring buffer
  size_t slow_ops = 16;             // slowest completed ops retained
};

class Plane {
 public:
  explicit Plane(const Config& config);

  bool enabled() const { return config_.enabled; }
  const Config& config() const { return config_; }

  // Starts tracking one guest op. Returns null when disabled — callers
  // thread the pointer through and every obs call is null-safe.
  std::shared_ptr<TraceContext> BeginOp(OpKind kind, uint64_t offset,
                                        uint64_t length);

  // Finalizes an op: closes its stage accounting at `end`, feeds the
  // latency histograms, and hands it to the op tracker. Null-safe.
  void EndOp(const std::shared_ptr<TraceContext>& ctx, sim::SimTime end,
             bool ok);

  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }
  OpTracker& op_tracker() { return op_tracker_; }
  const OpTracker& op_tracker() const { return op_tracker_; }

  const Histogram& latency_hist() const { return latency_; }
  const std::array<Histogram, kNumStages>& stage_hists() const {
    return stage_;
  }

  // Exports tracer/op-tracker counters and the latency histograms.
  void ExportMetrics(Metrics& node) const;

 private:
  Config config_;
  Tracer tracer_;
  OpTracker op_tracker_;
  Histogram latency_;
  std::array<Histogram, kNumStages> stage_;
  uint64_t next_op_id_ = 1;
};

}  // namespace vde::obs
