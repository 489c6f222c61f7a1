#include <algorithm>
#include <cstring>

#include "bench.h"
#include "sim/sync.h"

namespace vde::bench {

namespace {

uint64_t HashStep(uint64_t h, uint64_t v) {
  return (h ^ v) * 0x100000001B3ull;
}

uint64_t Now() { return sim::Scheduler::Current().now(); }

}  // namespace

void FillSector(uint64_t seed, uint32_t compressible_pct, uint64_t sector,
                uint32_t version, uint8_t* out) {
  uint64_t state = seed;
  state = SplitMix(state) ^ sector;
  state = SplitMix(state) ^ version;
  const size_t run = (kSector * compressible_pct / 100) & ~size_t{7};
  std::memset(out, static_cast<int>(SplitMix(state) | 1) & 0xFF, run);
  for (size_t i = run; i < kSector; i += 8) {
    const uint64_t word = SplitMix(state);
    std::memcpy(out + i, &word, sizeof(word));
  }
}

LoadGen::LoadGen(rbd::Image& image, const Workload& w, uint64_t seed)
    : image_(image),
      w_(w),
      seed_(seed),
      rng_(seed),
      version_(w.working_set / kSector, 1),
      live_sectors_(w.working_set / kSector) {}

void LoadGen::Fill(uint64_t offset, MutByteSpan out) const {
  for (uint64_t i = 0; i < out.size(); i += kSector) {
    const uint64_t sector = (offset + i) / kSector;
    FillSector(seed_, w_.compressible_pct, sector, version_[sector],
               out.data() + i);
  }
}

void LoadGen::Mark(uint64_t offset, uint64_t length, uint32_t version) {
  for (uint64_t s = offset / kSector; s < (offset + length) / kSector; ++s) {
    if (version_[s] == kZero && version != kZero) live_sectors_++;
    if (version_[s] != kZero && version == kZero) live_sectors_--;
    version_[s] = version;
  }
}

bool LoadGen::Verify(uint64_t offset, ByteSpan got,
                     const std::vector<uint32_t>& expect) const {
  uint8_t want[kSector];
  for (size_t i = 0; i < expect.size(); ++i) {
    const uint8_t* have = got.data() + i * kSector;
    if (expect[i] == kUnknown) continue;
    if (expect[i] == kZero) {
      std::memset(want, 0, kSector);
    } else {
      FillSector(seed_, w_.compressible_pct, offset / kSector + i, expect[i],
                 want);
    }
    if (std::memcmp(want, have, kSector) != 0) return false;
  }
  return true;
}

sim::Task<Status> LoadGen::Prefill(HostSpan* span) {
  constexpr uint64_t kChunk = 1 << 20;
  Bytes buf;
  for (uint64_t off = 0; off < w_.working_set; off += kChunk) {
    buf.resize(std::min(kChunk, w_.working_set - off));
    Fill(off, buf);
    const Status s = co_await image_.Write(off, buf);
    if (!s.ok()) co_return s;
    span->Sample();
  }
  co_return Status::Ok();
}

sim::Task<void> LoadGen::Issue(Kind kind, uint64_t offset, uint64_t length,
                               Bytes& buf) {
  win_->attempted++;
  if (kind == Kind::kRead) {
    // The expectation is the model as of this op's submission.
    const std::vector<uint32_t> expect(
        version_.begin() + static_cast<long>(offset / kSector),
        version_.begin() + static_cast<long>((offset + length) / kSector));
    auto got = co_await image_.Read(offset, length);
    if (!got.ok()) {
      win_->failed++;
    } else if (!Verify(offset, *got, expect)) {
      win_->mismatched++;
    }
    co_return;
  }
  Status s;
  if (kind == Kind::kWrite) {
    Mark(offset, length, next_version_++);
    const MutByteSpan data(buf.data(), length);
    Fill(offset, data);
    written_blocks_.push_back(offset / core::kBlockSize);
    s = co_await image_.Write(offset, data);
  } else {
    Mark(offset, length, kZero);
    s = co_await image_.Discard(offset, length);
  }
  if (!s.ok()) {
    // Whether the mutation landed is unknown: stop checking those sectors.
    Mark(offset, length, kUnknown);
    win_->failed++;
  }
}

void LoadGen::OpenWindow() {
  open_ = true;
  image_.ExportMetrics(win_->open);
  const sim::Scheduler& sched = sim::Scheduler::Current();
  win_->open_ns = sched.now();
  win_->open_events = sched.events_processed();
  open_cpu_ = CpuNs();
  chunk_ = HostSpan{};
}

void LoadGen::EndChunk() {
  const double own_us = chunk_.OwnUs();
  win_->chunk_cpu_us_per_op.push_back(own_us /
                                      static_cast<double>(chunk_done_));
  win_->chunk_ref_us.push_back(chunk_.RefMeanUs());
  if (!closed_) win_->window_cpu_ns += static_cast<uint64_t>(own_us * 1e3);
  chunk_ = HostSpan{};
  chunk_done_ = 0;
}

void LoadGen::CountInChunk() {
  // Ten reference-loop samples spread over each chunk.
  if (++chunk_done_ % std::max<uint64_t>(chunk_ops_ / 10, 1) == 0) {
    chunk_.Sample();
  }
}

void LoadGen::MaybeExtend() {
  if (static_cast<double>(CpuNs() - open_cpu_) < min_cpu_seconds_ * 1e9) {
    extra_target_ += chunk_ops_;
  }
}

void LoadGen::OnComplete(bool measured, uint64_t lat_ns) {
  if (closed_) {
    if (extra_target_ == 0) return;  // the in-flight tail of the window
    extra_done_++;
    CountInChunk();
    if (chunk_done_ == chunk_ops_) {
      EndChunk();
      MaybeExtend();
    }
    return;
  }
  if (!measured) return;
  measured_done_++;
  CountInChunk();
  win_->lat_ns.push_back(lat_ns);
  if (w_.kill_osd && measured_done_ == w_.ops / 4) pause_ = true;
  if (measured_done_ < w_.ops) {
    if (chunk_done_ == chunk_ops_) EndChunk();
    return;
  }
  // The window closes at its last measured completion; the ops still in
  // flight complete outside it.
  EndChunk();
  const sim::Scheduler& sched = sim::Scheduler::Current();
  win_->close_ns = sched.now();
  win_->close_events = sched.events_processed();
  win_->live_bytes_at_close = live_sectors_ * kSector;
  image_.ExportMetrics(win_->close);
  closed_ = true;
  chunk_ = HostSpan{};
  MaybeExtend();
}

sim::Task<void> LoadGen::Worker() {
  Bytes buf(w_.io_size);
  while (Continue()) {
    if (pause_) co_await resume_.Wait();
    const bool measured = issued_ >= w_.warmup;
    if (measured && !open_) OpenWindow();
    issued_++;
    Kind kind = Kind::kRead;
    uint64_t length = w_.io_size;
    uint64_t offset = 0;
    if (w_.discard_pct > 0 && rng_.NextBelow(100) < w_.discard_pct) {
      // Discards round inward to whole blocks, so they are block-sized.
      kind = Kind::kDiscard;
      length = core::kBlockSize;
      offset = rng_.NextBelow(w_.working_set / length) * length;
    } else {
      offset = rng_.NextBelow(w_.working_set / length) * length;
      if (w_.write_pct == 100 ||
          (w_.write_pct > 0 && rng_.NextBelow(100) < w_.write_pct)) {
        kind = Kind::kWrite;
      }
    }
    win_->stream_hash = HashStep(
        HashStep(win_->stream_hash, static_cast<uint64_t>(kind)), offset);
    const uint64_t start = Now();
    inflight_++;
    co_await Issue(kind, offset, length, buf);
    inflight_--;
    OnComplete(measured, Now() - start);
    if (pause_ && inflight_ == 0) {
      // The last op in flight has drained: lose OSD 0 and let recovery run
      // with the guest paused (see README.md, known defects, for why).
      SpanScope span(spans_, "kill_osd_wait_clean");
      image_.cluster().MarkOsdDown(0);
      win_->kill_ns = Now();
      co_await image_.cluster().WaitForClean();
      win_->clean_ns = Now();
      pause_ = false;
      resume_.Fire();
    }
  }
}

sim::Task<void> LoadGen::Run(double min_cpu_seconds, Window* win,
                             SpanLog* spans) {
  win_ = win;
  spans_ = spans;
  win_->stream_hash = 0xCBF29CE484222325ull;
  min_cpu_seconds_ = min_cpu_seconds;
  chunk_ops_ = std::max<uint64_t>(w_.ops / 10, 1);
  std::vector<sim::Task<void>> workers;
  for (size_t i = 0; i < w_.qd; ++i) workers.push_back(Worker());
  co_await sim::WhenAll(std::move(workers));
}

sim::Task<void> LoadGen::ReadBackWorker(std::vector<uint64_t>* blocks,
                                        size_t* next) {
  Bytes unused;
  while (*next < blocks->size()) {
    const uint64_t block = (*blocks)[(*next)++];
    co_await Issue(Kind::kRead, block * core::kBlockSize, core::kBlockSize,
                   unused);
  }
}

sim::Task<void> LoadGen::ReadBack(uint64_t blocks, Window* win) {
  win_ = win;
  const size_t n = written_blocks_.size();
  if (n == 0 || blocks == 0) co_return;
  std::vector<uint64_t> pick;
  for (uint64_t i = 0; i < blocks; ++i) {
    pick.push_back(written_blocks_[i * n / blocks]);
  }
  size_t next = 0;
  std::vector<sim::Task<void>> workers;
  for (size_t i = 0; i < w_.qd; ++i) {
    workers.push_back(ReadBackWorker(&pick, &next));
  }
  co_await sim::WhenAll(std::move(workers));
}

}  // namespace vde::bench
