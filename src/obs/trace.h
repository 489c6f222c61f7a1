// Deterministic request tracing: sim-clock-stamped spans per guest IO.
//
// A TraceContext rides one image request (via rbd::Completion /
// ImageRequest) through every layer it crosses — qos dispatch, write-back
// staging, format encrypt/decrypt, objstore prepare/commit, device IO.
// Instrumentation points bracket their work with a SpanScope; each scope
// records a raw span into the image's bounded Tracer ring buffer (Chrome
// trace_event exportable) AND feeds the context's exclusive per-stage
// accounting.
//
// Exclusive attribution: a request's chunks run concurrently, so naive
// per-span sums double-count overlapping work. The context instead keeps a
// single time frontier plus per-stage nesting counters; every stage
// entry/exit first attributes the elapsed interval [frontier, now) to the
// DEEPEST currently-active stage (recovery > device > replicate > store >
// compress > crypto > wb > queue, none active = other). The per-stage
// durations therefore partition the
// op's end-to-end latency exactly — sum(stage_ns) == latency, always.
//
// Everything here only READS the sim clock (Scheduler::Current().now());
// no events, sleeps, or charges are ever added, so enabling tracing is a
// bit-identical sim-clock passthrough.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/scheduler.h"

namespace vde::obs {

// Attribution order: higher value = deeper layer = higher priority when
// several stages are active at once. kOther absorbs time outside every
// instrumented stage (metadata plane, client-side bookkeeping).
enum class Stage : uint8_t {
  kQueue = 0,     // qos dispatch wait (submit -> request coroutine start)
  kWb = 1,        // write-back: hold acquisition + staging-buffer work
  kCrypto = 2,    // format encrypt/decrypt cost
  kCompress = 3,  // block codec work (compress on write, expand on read);
                  // deeper than crypto so a compress charge inside a crypto
                  // bracket attributes to the codec, not the cipher
  kStore = 4,     // object-store transaction round-trips
  kReplicate = 5, // primary-copy fan-out: sub-op network + replica software.
                  // Sits between store and device so replica/primary device
                  // IO nested inside the wave still attributes to kDevice,
                  // while the wire + replica-op time gets its own bucket
  kDevice = 6,    // device IO inside the store (journal, data, kv)
  kRecovery = 7,  // degraded-path inline pull: the primary streams a missing
                  // object from a survivor before serving the op. Deeper
                  // than device: the whole pull (wire + peer IO) is one
                  // recovery block in the breakdown
  kOther = 8,     // everything unattributed
};
inline constexpr size_t kNumStages = 9;

const char* StageName(Stage s);

// The request kinds a context can describe; rbd::ImageRequest takes its
// kind as this enum too.
enum class OpKind : uint8_t { kRead, kWrite, kDiscard, kWriteZeroes, kFlush };

const char* OpKindName(OpKind k);

// One recorded span: op `op_id` spent [start, start+dur) in `stage`.
struct Span {
  uint64_t op_id = 0;
  Stage stage = Stage::kOther;
  sim::SimTime start = 0;
  sim::SimTime dur = 0;
};

// Bounded ring buffer of spans. Overflow drops the oldest span and counts
// it — a long run keeps the most recent window, never grows unbounded.
class Tracer {
 public:
  explicit Tracer(size_t capacity);

  void Record(uint64_t op_id, Stage stage, sim::SimTime start,
              sim::SimTime dur);

  size_t capacity() const { return capacity_; }
  size_t size() const { return size_; }
  uint64_t recorded() const { return recorded_; }
  uint64_t dropped() const { return dropped_; }

  // Retained spans, oldest first.
  std::vector<Span> Spans() const;

  // Chrome trace_event JSON (load via chrome://tracing or Perfetto): one
  // complete ("ph":"X") event per span, ts/dur in microseconds, tid = op id
  // so every op gets its own row.
  std::string ExportChromeJson() const;

 private:
  std::vector<Span> ring_;
  size_t capacity_;
  size_t head_ = 0;  // index of the oldest retained span
  size_t size_ = 0;
  uint64_t recorded_ = 0;
  uint64_t dropped_ = 0;
};

// Per-request trace state. Created by the image's obs::Plane at submit,
// carried by the request/completion, finalized at completion.
class TraceContext {
 public:
  TraceContext(Tracer* tracer, uint64_t id, OpKind kind, uint64_t offset,
               uint64_t length, sim::SimTime submit);

  uint64_t id() const { return id_; }
  OpKind kind() const { return kind_; }
  uint64_t offset() const { return offset_; }
  uint64_t length() const { return length_; }
  sim::SimTime submit_ns() const { return submit_; }
  Tracer* tracer() const { return tracer_; }

  // Stage nesting (reads the sim clock; adds no events). Multiple chunks
  // may enter the same stage concurrently — entries nest per stage.
  void Enter(Stage s);
  void Exit(Stage s);

  // Records a raw span into the tracer (accounting is separate; SpanScope
  // and the queue-stage hand-off use this).
  void RecordSpan(Stage s, sim::SimTime start, sim::SimTime dur) const;

  // Attributes [frontier, now) to the deepest active stage and advances
  // the frontier. Called implicitly by Enter/Exit; call once more at
  // completion so the partition covers the whole op.
  void AccountUpTo(sim::SimTime now);

  // The deepest currently-active stage (kOther when none).
  Stage Current() const;

  // Exclusive per-stage durations attributed so far. After a final
  // AccountUpTo(end), sums to exactly (end - submit_ns()).
  const std::array<sim::SimTime, kNumStages>& stage_ns() const {
    return stage_ns_;
  }

  // Non-mutating view for in-flight dumps: stage_ns() plus the pending
  // interval [frontier, now) attributed to the current stage.
  std::array<sim::SimTime, kNumStages> StageNsAt(sim::SimTime now) const;

 private:
  Tracer* tracer_;
  uint64_t id_;
  OpKind kind_;
  uint64_t offset_;
  uint64_t length_;
  sim::SimTime submit_;
  sim::SimTime frontier_;
  std::array<uint32_t, kNumStages> active_{};
  std::array<sim::SimTime, kNumStages> stage_ns_{};
};

// RAII stage bracket, null-safe: a null context makes every operation a
// no-op (disabled observability compiles to nothing but a branch).
class SpanScope {
 public:
  SpanScope(TraceContext* ctx, Stage s);
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() { End(); }

  // Closes the span early (idempotent); lets a scope end before values
  // computed inside it go out of scope.
  void End();

 private:
  TraceContext* ctx_;
  Stage stage_;
  sim::SimTime begin_ = 0;
};

}  // namespace vde::obs
