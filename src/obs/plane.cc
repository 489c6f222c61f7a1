#include "obs/plane.h"

namespace vde::obs {

Plane::Plane(const Config& config)
    : config_(config),
      tracer_(config.trace_capacity),
      op_tracker_(config.slow_ops) {}

std::shared_ptr<TraceContext> Plane::BeginOp(OpKind kind, uint64_t offset,
                                             uint64_t length) {
  if (!config_.enabled) return nullptr;
  auto ctx = std::make_shared<TraceContext>(&tracer_, next_op_id_++, kind,
                                            offset, length,
                                            sim::Scheduler::Current().now());
  op_tracker_.OnBegin(ctx);
  return ctx;
}

void Plane::EndOp(const std::shared_ptr<TraceContext>& ctx, sim::SimTime end,
                  bool ok) {
  if (ctx == nullptr) return;
  ctx->AccountUpTo(end);
  latency_.Add(end - ctx->submit_ns());
  const auto& per_stage = ctx->stage_ns();
  for (size_t s = 0; s < kNumStages; ++s) {
    if (per_stage[s] > 0) stage_[s].Add(per_stage[s]);
  }
  op_tracker_.OnEnd(*ctx, end, ok);
}

void Plane::ExportMetrics(Metrics& node) const {
  node.Gauge("enabled", config_.enabled ? 1 : 0);
  node.Counter("ops_started", op_tracker_.started());
  node.Counter("ops_finished", op_tracker_.finished());
  node.Gauge("ops_inflight",
             static_cast<double>(op_tracker_.inflight_count()));
  node.Counter("spans_recorded", tracer_.recorded());
  node.Counter("spans_dropped", tracer_.dropped());
  node.Hist("latency_ns", latency_);
  // Every stage, empty or not, so the registry's shape does not depend on
  // which layers a run happened to touch.
  for (size_t s = 0; s < kNumStages; ++s) {
    node.Hist(std::string("stage_") + StageName(static_cast<Stage>(s)) + "_ns",
              stage_[s]);
  }
}

}  // namespace vde::obs
