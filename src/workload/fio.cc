#include "workload/fio.h"

#include <algorithm>
#include <cstdio>
#include <optional>

#include "obs/trace.h"

namespace vde::workload {

namespace {

uint64_t RoundUpBlock(uint64_t v) {
  return (v + core::kBlockSize - 1) / core::kBlockSize * core::kBlockSize;
}

}  // namespace

Status FioConfig::Validate() const {
  if (io_size == 0) {
    return Status::InvalidArgument("fio: io_size must be at least 1 byte");
  }
  if (queue_depth == 0) {
    return Status::InvalidArgument("fio: queue_depth must be at least 1");
  }
  if (working_set != 0 && working_set < io_size) {
    return Status::InvalidArgument(
        "fio: working_set smaller than one io_size");
  }
  if (discard_pct > 100) {
    return Status::InvalidArgument("fio: discard_pct must be in 0..100");
  }
  if (rw_mix_pct < -1 || rw_mix_pct > 100) {
    return Status::InvalidArgument("fio: rw_mix_pct must be in -1..100");
  }
  if (compressibility_pct > 100) {
    return Status::InvalidArgument(
        "fio: compressibility_pct must be in 0..100");
  }
  return Status::Ok();
}

namespace {

// One value of a Summary() segment, read from the metrics delta: a
// counter or gauge, or the mean of a histogram (skipped while empty).
struct Field {
  std::string label;
  std::string path;
  const char* fmt = "%.0f";
  double scale = 1;      // printed value = raw / scale ...
  std::string per = {};  // ... / the counter at `per`, when set
};

struct Segment {
  std::string name;
  std::vector<Field> fields;
};

// Every Summary() segment with the registry paths it renders. A segment
// prints when any of its counters or histograms moved in the window;
// gauges (space, peak queue) only ride along.
std::vector<Segment> SummaryTable(const obs::Metrics& m,
                                  sim::SimTime duration) {
  constexpr double kMiB = 1 << 20;
  const double ns_per_pct =
      static_cast<double>(std::max<sim::SimTime>(duration, 1)) / 100;
  std::vector<Field> cores;
  for (size_t i = 0;; ++i) {
    const std::string busy = "sim.core" + std::to_string(i) + "_busy_ns";
    if (m.FindCounter(busy) == nullptr) break;
    cores.push_back({"cpu" + std::to_string(i), busy, "%.0f%%", ns_per_pct});
  }
  std::vector<Field> stages;
  for (size_t s = 0; s < obs::kNumStages; ++s) {
    const char* stage = obs::StageName(static_cast<obs::Stage>(s));
    stages.push_back(
        {stage, std::string("obs.stage_") + stage + "_ns", "%.1f", 1e3});
  }
  return {
      {"wb",
       {{"stages", "image.wb_stages"}, {"hits", "image.wb_hits"},
        {"flushes", "image.wb_flushes"}, {"rmw", "image.rmw_blocks"},
        {"rmw_merged", "image.rmw_merged"}}},
      {"iv",
       {{"hits", "image.iv_hits"}, {"misses", "image.iv_misses"},
        {"evictions", "image.iv_evictions"},
        {"invalidations", "image.iv_invalidations"},
        {"meta_saved", "image.iv_meta_bytes_saved"},
        {"meta_fetched", "image.iv_meta_bytes_fetched"}}},
      {"trim",
       {{"zero_reads", "image.trim_zero_reads"},
        {"bmp_updates", "image.trim_bitmap_updates"},
        {"loads", "image.trim_state_loads"}}},
      {"compress",
       {{"ratio", "image.compress_stored_bytes", "%.2f", 1,
         "image.compress_in_bytes"},
        {"blocks", "image.compress_blocks"},
        {"verbatim", "image.compress_verbatim_blocks"},
        {"expanded", "image.compress_expanded_blocks"}}},
      {"qos",
       {{"submitted", "image.qos_submitted"}, {"queued", "image.qos_queued"},
        {"throttled", "image.qos_throttled"},
        {"peak_q", "image.qos_peak_queue"},
        {"wait_ms", "image.qos_wait_ns", "%.1f", 1e6}}},
      {"meta",
       {{"warm", "image.meta_warm_hits"}, {"rows", "image.meta_recovered_rows"},
        {"spills", "image.meta_spills"},
        {"flushes", "image.meta_journal_flushes"},
        {"epoch_rej", "image.meta_epoch_rejections"},
        {"cold", "image.meta_cold_resets"}, {"gc", "image.meta_gc_rows"},
        {"wal_kb", "image.meta_kv_wal_bytes", "%.1f", 1024},
        {"comp_kb", "image.meta_kv_compaction_bytes", "%.1f", 1024}}},
      {"store",
       {{"trims", "cluster.store.trim_ops"},
        {"free_mb", "cluster.space.free_bytes", "%.1f", kMiB},
        {"punched_mb", "cluster.space.punched_bytes", "%.1f", kMiB},
        {"frags", "cluster.space.fragments"},
        {"punched_frags", "cluster.space.punched_fragments"}}},
      {"cores", std::move(cores)},
      {"stages_us", std::move(stages)},
  };
}

}  // namespace

std::string FioResult::Summary() const {
  char buf[256];
  std::snprintf(
      buf, sizeof(buf),
      "ops=%llu (reads=%llu writes=%llu discards=%llu) bw=%.1f MB/s "
      "iops=%.0f lat_us[p50=%.1f p99=%.1f max=%.1f]",
      static_cast<unsigned long long>(ops),
      static_cast<unsigned long long>(read_ops),
      static_cast<unsigned long long>(write_ops),
      static_cast<unsigned long long>(discards), BandwidthMBps(), Iops(),
      latency_ns.Percentile(50) / 1e3, latency_ns.Percentile(99) / 1e3,
      static_cast<double>(latency_ns.max()) / 1e3);
  std::string out = buf;
  for (const Segment& seg : SummaryTable(metrics, duration)) {
    std::string text;
    bool moved = false;
    for (const Field& f : seg.fields) {
      const uint64_t* counter = metrics.FindCounter(f.path);
      const double* gauge = metrics.FindGauge(f.path);
      const Histogram* hist = metrics.FindHist(f.path);
      if (hist != nullptr && hist->count() == 0) continue;
      moved = moved || hist != nullptr || (counter != nullptr && *counter > 0);
      double v = counter != nullptr ? static_cast<double>(*counter)
                 : gauge != nullptr ? *gauge
                 : hist != nullptr  ? hist->Mean()
                                    : 0;
      v /= f.scale;
      if (!f.per.empty()) {
        const double den = static_cast<double>(metrics.CounterOr(f.per));
        v = den > 0 ? v / den : 0;
      }
      std::snprintf(buf, sizeof(buf), f.fmt, v);
      text += (text.empty() ? "" : " ") + f.label + "=" + buf;
    }
    if (moved) out += " " + seg.name + "[" + text + "]";
  }
  return out;
}

std::string FioResult::ToJson() const {
  char buf[256];
  std::string out = "{";
  std::snprintf(
      buf, sizeof(buf),
      "\"ops\":%llu,\"read_ops\":%llu,\"write_ops\":%llu,"
      "\"discards\":%llu,\"bytes\":%llu,\"duration_ns\":%llu,",
      static_cast<unsigned long long>(ops),
      static_cast<unsigned long long>(read_ops),
      static_cast<unsigned long long>(write_ops),
      static_cast<unsigned long long>(discards),
      static_cast<unsigned long long>(bytes),
      static_cast<unsigned long long>(duration));
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "\"bandwidth_mbps\":%.6g,\"iops\":%.6g,", BandwidthMBps(),
                Iops());
  out += buf;
  out += "\"latency_ns\":" + latency_ns.ToJson();
  if (!metrics.empty()) {
    out += ",\"metrics\":";
    metrics.AppendJson(out);
  }
  out += "}";
  return out;
}

FioRunner::FioRunner(rbd::Image& image, FioConfig config)
    : image_(image), config_(config), rng_(config.seed) {
  // An invalid config is remembered (Run/Prefill report it) and clamped
  // below so the derived-geometry math here stays well-defined either way.
  valid_ = config_.Validate();
  config_.io_size = std::max<uint64_t>(config_.io_size, 1);
  config_.queue_depth = std::max<size_t>(config_.queue_depth, 1);
  uint64_t ws = config_.working_set == 0
                    ? config_.total_ops * config_.io_size
                    : config_.working_set;
  ws = std::min(std::max(ws, config_.io_size), image_.size());
  align_ = config_.offset_align == 0 ? config_.io_size : config_.offset_align;
  // Offsets form a grid of `align_` steps; the last slot still fits a
  // whole IO inside the working set. An io_size beyond the image leaves a
  // single slot (the image will reject the IO with InvalidArgument).
  slots_ = ws >= config_.io_size ? (ws - config_.io_size) / align_ + 1 : 1;
  working_set_ = (slots_ - 1) * align_ + config_.io_size;
  if (config_.verify) {
    // The content model marks state at issue time; that is consistent at
    // any queue depth because the image applies overlapping IO in
    // submission order (write-back block-range guards) and writes carry
    // offset-derived content, so no clamp is needed for mutating runs.
    block_state_.assign(RoundUpBlock(working_set_) / core::kBlockSize,
                        BlockExpect{});
  }
}

void FioRunner::FillBlock(uint64_t offset, MutByteSpan out) const {
  // Content = xoshiro stream seeded by (workload seed, block number):
  // reproducible without storing a model of the whole image.
  const uint64_t block_no = offset / core::kBlockSize;
  Rng content(config_.seed * 0x9E3779B97F4A7C15ULL + block_no);
  if (config_.compressibility_pct == 0) {
    content.Fill(out);
    return;
  }
  // Mixed fill: the leading compressibility_pct% of the block is a single
  // repeated byte (an LZ codec reduces it to almost nothing), the tail is
  // the same random stream as the classic fill — so the achieved stored/
  // logical ratio tracks (100 - compressibility_pct)% closely.
  const size_t repeat =
      out.size() * std::min<uint32_t>(config_.compressibility_pct, 100) / 100;
  const uint8_t run = static_cast<uint8_t>((config_.seed ^ block_no) | 1);
  std::fill(out.begin(), out.begin() + static_cast<long>(repeat), run);
  content.Fill(out.subspan(repeat));
}

void FioRunner::ExpectedRange(uint64_t offset, MutByteSpan out) const {
  Bytes block(core::kBlockSize);
  uint64_t pos = offset;
  size_t out_off = 0;
  while (out_off < out.size()) {
    const uint64_t bstart = pos / core::kBlockSize * core::kBlockSize;
    FillBlock(bstart, block);
    const uint64_t in_block = pos - bstart;
    const size_t take = std::min<size_t>(core::kBlockSize - in_block,
                                         out.size() - out_off);
    std::copy(block.begin() + static_cast<long>(in_block),
              block.begin() + static_cast<long>(in_block + take),
              out.begin() + static_cast<long>(out_off));
    pos += take;
    out_off += take;
  }
}

std::vector<FioRunner::BlockExpect> FioRunner::StateSnapshot(
    uint64_t offset, uint64_t length) const {
  const uint64_t first = offset / core::kBlockSize;
  const uint64_t last = (offset + length - 1) / core::kBlockSize;
  std::vector<BlockExpect> out;
  out.reserve(last - first + 1);
  for (uint64_t b = first; b <= last; ++b) {
    out.push_back(b < block_state_.size() ? block_state_[b] : BlockExpect{});
  }
  return out;
}

Status FioRunner::VerifyRead(uint64_t offset, ByteSpan got,
                             const std::vector<BlockExpect>& expected) const {
  Bytes expect(core::kBlockSize);
  const uint64_t first = offset / core::kBlockSize;
  uint64_t pos = offset;
  size_t got_off = 0;
  while (got_off < got.size()) {
    const uint64_t block = pos / core::kBlockSize;
    const uint64_t bstart = block * core::kBlockSize;
    const uint64_t in_block = pos - bstart;
    const size_t take = std::min<size_t>(core::kBlockSize - in_block,
                                         got.size() - got_off);
    const BlockExpect& exp = expected[block - first];
    bool ok = true;
    auto zeros_at = [&](uint64_t lo, uint64_t hi) {
      return std::all_of(got.begin() + static_cast<long>(got_off + lo -
                                                         in_block),
                         got.begin() + static_cast<long>(got_off + hi -
                                                         in_block),
                         [](uint8_t v) { return v == 0; });
    };
    switch (exp.state) {
      case BlockState::kContent:
        FillBlock(bstart, expect);
        ok = std::equal(expect.begin() + static_cast<long>(in_block),
                        expect.begin() + static_cast<long>(in_block + take),
                        got.begin() + static_cast<long>(got_off));
        break;
      case BlockState::kZero:
        ok = zeros_at(in_block, in_block + take);
        break;
      case BlockState::kZeroPartial: {
        // Trimmed block overwritten in [lo, hi): seed content inside the
        // written range, and — the discard assertion — zeros outside it.
        // A resurrected pre-trim byte fails here.
        FillBlock(bstart, expect);
        const uint64_t r_lo = std::max<uint64_t>(in_block, exp.lo);
        const uint64_t r_hi =
            std::min<uint64_t>(in_block + take, exp.hi);
        if (r_lo < r_hi) {
          ok = std::equal(expect.begin() + static_cast<long>(r_lo),
                          expect.begin() + static_cast<long>(r_hi),
                          got.begin() + static_cast<long>(got_off + r_lo -
                                                          in_block));
        }
        if (ok && in_block < std::min<uint64_t>(exp.lo, in_block + take)) {
          ok = zeros_at(in_block, std::min<uint64_t>(exp.lo, in_block + take));
        }
        if (ok && std::max<uint64_t>(exp.hi, in_block) < in_block + take) {
          ok = zeros_at(std::max<uint64_t>(exp.hi, in_block), in_block + take);
        }
        break;
      }
      case BlockState::kUnknown:
        break;  // disjoint partial writes over a trimmed block: skip
    }
    if (!ok) {
      return Status::Corruption("read verification failed at " +
                                std::to_string(pos));
    }
    pos += take;
    got_off += take;
  }
  return Status::Ok();
}

void FioRunner::MarkWrite(uint64_t offset, uint64_t length) {
  // A verify-mode write carries seed-derived content, so fully covered
  // blocks return to kContent; a partial write over a trimmed block keeps
  // the zero background checkable (kZeroPartial) as long as the written
  // sub-ranges stay contiguous.
  const uint64_t first = offset / core::kBlockSize;
  const uint64_t last = (offset + length - 1) / core::kBlockSize;
  for (uint64_t b = first; b <= last && b < block_state_.size(); ++b) {
    const uint64_t bstart = b * core::kBlockSize;
    const bool full = offset <= bstart &&
                      offset + length >= bstart + core::kBlockSize;
    BlockExpect& exp = block_state_[b];
    if (full || exp.state == BlockState::kContent) {
      exp = BlockExpect{};  // kContent
      continue;
    }
    const auto w_lo = static_cast<uint32_t>(
        std::max<uint64_t>(offset, bstart) - bstart);
    const auto w_hi = static_cast<uint32_t>(
        std::min<uint64_t>(offset + length, bstart + core::kBlockSize) -
        bstart);
    switch (exp.state) {
      case BlockState::kZero:
        exp = BlockExpect{BlockState::kZeroPartial, w_lo, w_hi};
        break;
      case BlockState::kZeroPartial:
        if (w_lo <= exp.hi && exp.lo <= w_hi) {
          // Overlapping or touching: one contiguous written range.
          exp.lo = std::min(exp.lo, w_lo);
          exp.hi = std::max(exp.hi, w_hi);
        } else {
          exp = BlockExpect{BlockState::kUnknown, 0, 0};
        }
        break;
      case BlockState::kContent:
      case BlockState::kUnknown:
        exp = BlockExpect{BlockState::kUnknown, 0, 0};
        break;
    }
    if (exp.state == BlockState::kZeroPartial && exp.lo == 0 &&
        exp.hi == core::kBlockSize) {
      exp = BlockExpect{};  // the writes covered the whole block
    }
  }
}

void FioRunner::MarkDiscard(uint64_t offset, uint64_t length) {
  // Discard rounds inward to whole blocks (mirrors rbd::Image semantics).
  const uint64_t first = (offset + core::kBlockSize - 1) / core::kBlockSize;
  const uint64_t last = (offset + length) / core::kBlockSize;
  for (uint64_t b = first; b < last && b < block_state_.size(); ++b) {
    block_state_[b] = BlockExpect{BlockState::kZero, 0, 0};
  }
}

sim::Task<Status> FioRunner::Prefill() {
  VDE_CO_RETURN_IF_ERROR(valid_);
  // Prefill whole blocks covering the working set (block-aligned so the
  // content model holds even for unaligned io_size).
  const uint64_t span = std::min(RoundUpBlock(working_set_), image_.size());
  const uint64_t chunk = std::max<uint64_t>(RoundUpBlock(config_.io_size),
                                            1 << 20);
  Bytes buf;
  for (uint64_t off = 0; off < span; off += chunk) {
    const uint64_t len = std::min(chunk, span - off);
    buf.resize(len);
    for (uint64_t b = 0; b < len; b += core::kBlockSize) {
      FillBlock(off + b, MutByteSpan(buf.data() + b, core::kBlockSize));
    }
    VDE_CO_RETURN_IF_ERROR(co_await image_.Write(off, buf));
  }
  co_return Status::Ok();
}

uint64_t FioRunner::NextOffset() {
  if (config_.pattern == FioConfig::Pattern::kSequential) {
    const uint64_t off = (seq_cursor_ % slots_) * align_;
    seq_cursor_++;
    return off;
  }
  return rng_.NextBelow(slots_) * align_;
}

sim::Task<void> FioRunner::Worker(size_t worker_id, FioResult* result,
                                  Status* status) {
  (void)worker_id;
  const uint32_t write_pct = config_.WritePct();
  Bytes write_buf;
  if (write_pct > 0) {
    write_buf.resize(config_.io_size);
    rng_.Fill(write_buf);
  }
  const uint64_t warmup =
      config_.warmup_ops == 0 ? config_.queue_depth : config_.warmup_ops;
  // Keep issuing while the measured-op quota is unfilled so the queue depth
  // stays constant through the whole timing window (no ramp-down bias);
  // completions beyond the quota are simply not counted.
  while (!stop_ && measured_done_ < config_.total_ops && status->ok()) {
    issued_++;
    const bool measured = issued_ > warmup;
    if (measured && !measuring_) {
      // First measured op: open the timing window at steady state.
      measuring_ = true;
      measure_start_ = sim::Scheduler::Current().now();
      window_open_ = image_.MetricsSnapshot();
    }
    const uint64_t offset = NextOffset();
    const bool do_discard =
        config_.discard_pct > 0 && rng_.NextBelow(100) < config_.discard_pct;
    // Pure runs (0 or 100) skip the roll, keeping their rng stream — and
    // therefore every existing bench figure — byte-identical.
    const bool do_write =
        write_pct == 100 ||
        (write_pct > 0 && rng_.NextBelow(100) < write_pct);
    const sim::SimTime start = sim::Scheduler::Current().now();
    bool was_discard = false;
    bool was_write = false;
    if (do_discard) {
      was_discard = true;
      if (config_.verify) MarkDiscard(offset, config_.io_size);
      const Status s = co_await image_.Discard(offset, config_.io_size);
      if (!s.ok()) {
        *status = s;
        co_return;
      }
    } else if (do_write) {
      was_write = true;
      if (config_.verify || config_.compressibility_pct > 0) {
        // Content-true writes keep the verify model consistent — and carry
        // the compressibility shape, which the cheap stamped payload below
        // (pure random) would defeat.
        ExpectedRange(offset, write_buf);
        if (config_.verify) MarkWrite(offset, config_.io_size);
      } else {
        // Vary the payload cheaply per op (keeps real encryption honest
        // without regenerating the whole buffer).
        if (config_.io_size >= 8) {
          StoreU64Le(write_buf.data(), issued_);
        }
        if (config_.io_size >= 16) {
          StoreU64Le(write_buf.data() + config_.io_size - 8, offset);
        }
      }
      const Status s = co_await image_.Write(offset, write_buf);
      if (!s.ok()) {
        *status = s;
        co_return;
      }
    } else {
      // Capture the expected state at issue time: a discard issued after
      // this read (but before it completes) flips the live model, yet the
      // read — ordered first by the image's guards — returns the content
      // as of its own submission.
      std::vector<BlockExpect> expected;
      if (config_.verify) {
        expected = StateSnapshot(offset, config_.io_size);
      }
      auto got = co_await image_.Read(offset, config_.io_size);
      if (!got.ok()) {
        *status = got.status();
        co_return;
      }
      if (config_.verify) {
        const Status s = VerifyRead(offset, *got, expected);
        if (!s.ok()) {
          *status = s;
          co_return;
        }
      }
    }
    const sim::SimTime end = sim::Scheduler::Current().now();
    if (measured && measured_done_ < config_.total_ops) {
      measured_done_++;
      result->ops++;
      // Discards move no data: counting them as bytes would inflate the
      // reported bandwidth (fio tracks the trim ddir separately too).
      if (was_discard) {
        result->discards++;
      } else {
        result->bytes += config_.io_size;
        if (was_write) {
          result->write_ops++;
        } else {
          result->read_ops++;
        }
      }
      result->latency_ns.Add(end - start);
      // Tracks the last counted completion, so a run stopped early
      // (RequestStop) still reports a closed timing window.
      measure_end_ = end;
    }
  }
}

sim::Task<Result<FioResult>> FioRunner::Run() {
  VDE_CO_RETURN_IF_ERROR(valid_);
  FioResult result;
  Status status;
  issued_ = 0;
  measured_done_ = 0;
  measuring_ = false;
  stop_ = false;
  measure_start_ = sim::Scheduler::Current().now();
  measure_end_ = measure_start_;
  // Replaced when the first measured op opens the window; a run stopped
  // before that reports its deltas from here.
  window_open_ = image_.MetricsSnapshot();

  std::vector<sim::Task<void>> workers;
  for (size_t w = 0; w < config_.queue_depth; ++w) {
    workers.push_back(Worker(w, &result, &status));
  }
  co_await sim::WhenAll(std::move(workers));

  // Ops straddling the window's opening land on whichever side completed
  // them, for every counter and histogram alike.
  result.duration = measure_end_ - measure_start_;
  result.metrics = image_.MetricsSnapshot().DeltaSince(window_open_);
  if (!status.ok()) co_return status;
  co_return result;
}

// --- MultiFioRunner ---

MultiFioRunner::MultiFioRunner(std::vector<FioTenant> tenants)
    : tenants_(std::move(tenants)) {
  runners_.reserve(tenants_.size());
  for (const FioTenant& t : tenants_) {
    runners_.push_back(std::make_unique<FioRunner>(*t.image, t.fio));
  }
}

sim::Task<Status> MultiFioRunner::Prefill() {
  for (auto& runner : runners_) {
    VDE_CO_RETURN_IF_ERROR(co_await runner->Prefill());
  }
  co_return Status::Ok();
}

sim::Task<Result<std::vector<FioTenantResult>>> MultiFioRunner::Run() {
  const size_t n = tenants_.size();
  size_t foreground = 0;
  for (const FioTenant& t : tenants_) {
    if (!t.background) foreground++;
  }
  if (n == 0 || foreground == 0) {
    co_return Status::InvalidArgument(
        "multi-fio: need at least one foreground tenant");
  }

  // Every tenant runs concurrently. Foreground tenants run to their op
  // quota; once the last one finishes, background tenants are asked to
  // stop so "the neighbor was hammering the whole time" holds for every
  // measured sample.
  std::vector<std::optional<Result<FioResult>>> slots(n);
  sim::WaitGroup fg_done(foreground);
  sim::WaitGroup all_done(n);
  for (size_t i = 0; i < n; ++i) {
    sim::Scheduler::Current().Spawn(
        [](MultiFioRunner* self, size_t idx,
           std::optional<Result<FioResult>>* slot, sim::WaitGroup* fg,
           sim::WaitGroup* all) -> sim::Task<void> {
          slot->emplace(co_await self->runners_[idx]->Run());
          if (!self->tenants_[idx].background) fg->Done();
          all->Done();
        }(this, i, &slots[i], &fg_done, &all_done));
  }
  co_await fg_done.Wait();
  for (size_t i = 0; i < n; ++i) {
    if (tenants_[i].background) runners_[i]->RequestStop();
  }
  co_await all_done.Wait();

  std::vector<FioTenantResult> results;
  results.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (!slots[i]->ok()) co_return slots[i]->status();
    results.push_back({tenants_[i].name, std::move(**slots[i])});
  }
  co_return results;
}

}  // namespace vde::workload
