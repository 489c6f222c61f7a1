#include "rbd/image.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <initializer_list>
#include <utility>

#include "util/crc32.h"

namespace vde::rbd {

namespace {

constexpr uint32_t kImageMagic = 0x52424431;  // "RBD1"

// Snapshot names ride a u16 length field in the serialized header.
constexpr size_t kMaxSnapNameLen = 0xFFFF;

// First read of the header object; if the total-length field says the
// metadata is larger (many snapshots, big LUKS blob), Open re-reads the
// full size instead of silently truncating.
constexpr uint64_t kHeaderFirstRead = 64 * 1024;

// Upper bound on a plausible header (corruption guard for the re-read).
constexpr uint32_t kMaxHeaderLen = 64u << 20;

// The layout rules shared by Create (user input, InvalidArgument) and
// ParseImageHeader (header bytes, Corruption): returns the broken rule, or
// nullptr. The stripe unit must be a whole number of crypto blocks and tile
// the object exactly, so chunk boundaries inside an object stay
// block-aligned; the encryption spec must pass core::SpecError.
const char* LayoutError(const ImageOptions& options) {
  if (options.size == 0 || options.object_size == 0 ||
      options.size % core::kBlockSize != 0 ||
      options.object_size % core::kBlockSize != 0) {
    return "image and object size must be non-zero and block-aligned";
  }
  const uint64_t su = options.stripe_unit;
  if (options.stripe_count == 0 ||
      (su != 0 && (su % core::kBlockSize != 0 || su > options.object_size ||
                    options.object_size % su != 0))) {
    return "stripe unit must be a block-aligned divisor of the object size";
  }
  if (const char* error = core::SpecError(options.enc)) return error;
  if (options.enc.compression.enabled() &&
      options.enc.compression.min_gain_pct >= 100) {
    return "compression min_gain_pct must be below 100";
  }
  return nullptr;
}

}  // namespace

Bytes SerializeMetadata(const ImageOptions& options,
                        const core::LuksHeader& luks, bool encrypted,
                        const std::deque<std::pair<uint64_t, std::string>>&
                            snaps) {
  Bytes out;
  AppendU32Le(out, kImageMagic);
  AppendU32Le(out, 0);  // total length, patched below
  AppendU64Le(out, options.size);
  AppendU64Le(out, options.object_size);
  AppendU64Le(out, options.stripe_unit);
  AppendU64Le(out, options.stripe_count);
  AppendU8(out, static_cast<uint8_t>(options.enc.mode));
  AppendU8(out, static_cast<uint8_t>(options.enc.layout));
  AppendU8(out, static_cast<uint8_t>(options.enc.integrity));
  AppendU8(out, encrypted ? 1 : 0);
  AppendU32Le(out, static_cast<uint32_t>(snaps.size()));
  for (const auto& [id, name] : snaps) {
    AppendU64Le(out, id);
    AppendU16Le(out, static_cast<uint16_t>(name.size()));
    AppendBytes(out, BytesOf(name));
  }
  const Bytes luks_blob = luks.Serialize();
  AppendU32Le(out, static_cast<uint32_t>(luks_blob.size()));
  AppendBytes(out, luks_blob);
  // Compression spec, appended only when enabled: compression-off headers
  // stay byte-identical to pre-compression images, and Open treats the
  // fields as optional, so both directions stay compatible.
  if (options.enc.compression.enabled()) {
    AppendU8(out, static_cast<uint8_t>(options.enc.compression.codec));
    AppendU32Le(out, options.enc.compression.min_gain_pct);
  }
  // CRC32-C trailer over everything before it. The store pads short reads
  // with zeros, so a genuinely truncated header object would otherwise
  // parse its padding as zeroed metadata; the checksum catches that (and
  // any other corruption) outright.
  StoreU32Le(out.data() + 4, static_cast<uint32_t>(out.size()) + 4);
  AppendU32Le(out, Crc32c(out));
  return out;
}

Result<ImageHeader> ParseImageHeader(ByteSpan data) {
  ByteReader in(data);
  uint32_t magic = 0, total_len = 0;
  if (!in.U32(&magic) || magic != kImageMagic) {
    return Status::Corruption("bad image header");
  }
  if (!in.U32(&total_len) || total_len < 12 || total_len > kMaxHeaderLen) {
    return Status::Corruption("bad image header length");
  }
  if (total_len > data.size()) {
    return Status::Corruption("truncated image header");
  }
  // Reads pad past the object's logical size; parse exactly the serialized
  // bytes. The checksum trailer rejects padded (truncated) and corrupted
  // headers before any field is trusted.
  const ByteSpan body = data.first(total_len - 4);
  if (LoadU32Le(data.data() + body.size()) != Crc32c(body)) {
    return Status::Corruption("image header checksum mismatch");
  }

  const Status truncated = Status::Corruption("truncated image header");
  in = ByteReader(body.subspan(8));
  ImageHeader h;
  ImageOptions& options = h.options;
  uint8_t mode = 0, layout = 0, integrity = 0, encrypted = 0;
  uint32_t snap_count = 0;
  if (!in.U64(&options.size) || !in.U64(&options.object_size) ||
      !in.U64(&options.stripe_unit) || !in.U64(&options.stripe_count) ||
      !in.U8(&mode) || !in.U8(&layout) || !in.U8(&integrity) ||
      !in.U8(&encrypted) || !in.U32(&snap_count)) {
    return truncated;
  }
  if (mode > static_cast<uint8_t>(core::CipherMode::kWideLba) ||
      layout > static_cast<uint8_t>(core::IvLayout::kOmap) ||
      integrity > static_cast<uint8_t>(core::Integrity::kHmac)) {
    return Status::Corruption("bad image header encryption spec");
  }
  options.enc.mode = static_cast<core::CipherMode>(mode);
  options.enc.layout = static_cast<core::IvLayout>(layout);
  options.enc.integrity = static_cast<core::Integrity>(integrity);
  h.encrypted = encrypted != 0;
  for (uint32_t i = 0; i < snap_count; ++i) {
    uint64_t id = 0;
    uint16_t name_len = 0;
    std::string snap_name;
    if (!in.U64(&id) || !in.U16(&name_len) || !in.Str(name_len, &snap_name)) {
      return truncated;
    }
    h.snaps.emplace_back(id, std::move(snap_name));
  }
  uint32_t luks_len = 0;
  ByteSpan luks_blob;
  if (!in.U32(&luks_len) || !in.Span(luks_len, &luks_blob)) return truncated;
  // Optional trailing compression spec (absent on compression-off and
  // pre-compression headers).
  uint8_t codec = 0;
  if (in.U8(&codec)) {
    if (codec == 0 || codec > static_cast<uint8_t>(core::Compression::kLz) ||
        !in.U32(&options.enc.compression.min_gain_pct)) {
      return Status::Corruption("bad image header compression spec");
    }
    options.enc.compression.codec = static_cast<core::Compression>(codec);
  }
  if (const char* error = LayoutError(options)) {
    return Status::Corruption(std::string("bad image header: ") + error);
  }
  if (h.encrypted) {
    auto luks = core::LuksHeader::Deserialize(luks_blob);
    if (!luks.ok()) return luks.status();
    h.luks = std::move(luks).value();
  }
  return h;
}

Image::Image(rados::Cluster& cluster, std::string name, ImageOptions options)
    : cluster_(cluster), name_(std::move(name)), options_(std::move(options)) {
  writeback_ = std::make_unique<Writeback>(*this, options_.writeback);
  obs_plane_ = std::make_unique<obs::Plane>(options_.obs);
  if (options_.qos_scheduler) {
    qos_tenant_ = options_.qos_scheduler->Attach(options_.qos);
  }
}

Image::~Image() {
  // The caller drains IO before dropping the image (same contract the
  // write-back buffer already imposes); the tenant slot is idle here.
  if (options_.qos_scheduler) options_.qos_scheduler->Detach(qos_tenant_);
}

void Image::ExportMetrics(obs::Metrics& root) const {
  obs::Metrics& n = root.Child("image");
  counters_.ExportTo(n);
  n.Gauge("wb_staged_blocks", static_cast<double>(writeback_->staged_blocks()));
  meta_->ExportMetrics(n);
  (options_.qos_scheduler ? options_.qos_scheduler->stats(qos_tenant_)
                          : qos::TenantStats{})
      .ExportMetrics(n);
  (format_ != nullptr ? format_->compress_stats() : core::CompressStats{})
      .ExportTo(n, "compress_");

  if (options_.qos_scheduler) {
    options_.qos_scheduler->ExportMetrics(root.Child("qos"));
  }
  obs_plane_->ExportMetrics(root.Child("obs"));
  cluster_.ExportMetrics(root.Child("cluster"));
  ExportSim(sim::Scheduler::Current(), root.Child("sim"));
}

obs::Metrics Image::MetricsSnapshot() const {
  obs::Metrics root;
  ExportMetrics(root);
  return root;
}

std::string Image::ObjectName(uint64_t object_no) const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(object_no));
  return "rbd_data." + name_ + "." + buf;
}

Image::StripeRun Image::MapOffset(uint64_t off) const {
  const uint64_t su = stripe_unit();
  const uint64_t sc = stripe_count();
  const uint64_t osize = options_.object_size;
  const uint64_t unit = off / su;  // global stripe-unit index
  const uint64_t rem = off % su;
  const uint64_t per_set = sc * (osize / su);  // units per object set
  const uint64_t set = unit / per_set;
  const uint64_t within = unit % per_set;
  const uint64_t object_no = set * sc + within % sc;
  const uint64_t in_obj = (within / sc) * su + rem;
  // With one column the rows of an object are back-to-back in image space,
  // so the contiguous run extends to the object end — the legacy layout.
  // With several columns the run ends at the stripe-unit boundary.
  const uint64_t run = sc == 1 ? osize - in_obj : su - rem;
  return {object_no, in_obj, run};
}

objstore::SnapContext Image::SnapContext() const {
  objstore::SnapContext snapc;
  if (!snaps_.empty()) {
    snapc.seq = snaps_.front().first;
    for (const auto& [id, name] : snaps_) snapc.snaps.push_back(id);
  }
  return snapc;
}

sim::Task<Result<std::shared_ptr<Image>>> Image::Create(
    rados::Cluster& cluster, const std::string& name,
    const std::string& passphrase, const ImageOptions& options) {
  ImageOptions normalized = options;
  if (normalized.stripe_count == 0) normalized.stripe_count = 1;
  if (const char* error = LayoutError(normalized)) {
    co_return Status::InvalidArgument(error);
  }
  if (normalized.tenant.id != 0) cluster.SetTenantSpec(normalized.tenant);
  std::shared_ptr<Image> image(new Image(cluster, name, normalized));
  image->encrypted_ = options.enc.mode != core::CipherMode::kNone;

  Bytes master_key(core::kMasterKeySize, 0);
  crypto::Drbg rng = options.enc.iv_seed == 0
                         ? crypto::Drbg()
                         : crypto::Drbg(options.enc.iv_seed ^ 0xBADC0DE);
  if (image->encrypted_) {
    rng.Generate(master_key);
    image->luks_ =
        core::LuksHeader::Format(master_key, passphrase, options.luks, rng);
  }
  image->format_ =
      core::MakeFormat(options.enc, master_key, options.object_size);

  VDE_CO_RETURN_IF_ERROR(co_await image->PersistMetadata());
  VDE_CO_RETURN_IF_ERROR(co_await image->OpenObjectMeta());
  co_return image;
}

sim::Task<Result<std::shared_ptr<Image>>> Image::Open(
    rados::Cluster& cluster, const std::string& name,
    const std::string& passphrase, ImageOptions runtime) {
  auto io = cluster.ioctx(runtime.tenant.id);
  const std::string header_oid = "rbd_header." + name;
  auto raw = co_await io.Read(header_oid, 0, kHeaderFirstRead);
  if (!raw.ok()) co_return raw.status();
  Bytes data = std::move(*raw);
  ByteReader peek(data);
  uint32_t magic = 0, total_len = 0;
  if (peek.U32(&magic) && magic == kImageMagic && peek.U32(&total_len) &&
      total_len > data.size() && total_len <= kMaxHeaderLen) {
    // Large metadata (many snapshots, big LUKS blob): read the whole
    // object instead of parsing a truncated prefix.
    auto full = co_await io.Read(header_oid, 0, total_len);
    if (!full.ok()) co_return full.status();
    data = std::move(*full);
  }
  auto header = ParseImageHeader(data);
  if (!header.ok()) co_return header.status();

  // The caller's runtime policy, under the header's persisted geometry and
  // encryption spec (the fields ParseImageHeader sets).
  ImageOptions options = std::move(runtime);
  options.size = header->options.size;
  options.object_size = header->options.object_size;
  options.stripe_unit = header->options.stripe_unit;
  options.stripe_count = header->options.stripe_count;
  options.enc = header->options.enc;
  if (options.tenant.id != 0) cluster.SetTenantSpec(options.tenant);
  std::shared_ptr<Image> image(new Image(cluster, name, options));
  image->encrypted_ = header->encrypted;
  image->snaps_ = std::move(header->snaps);
  Bytes master_key(core::kMasterKeySize, 0);
  if (image->encrypted_) {
    image->luks_ = std::move(header->luks);
    auto key = image->luks_.Unlock(passphrase);
    if (!key.ok()) co_return key.status();
    master_key = std::move(key).value();
  }
  image->format_ =
      core::MakeFormat(options.enc, master_key, options.object_size);
  VDE_CO_RETURN_IF_ERROR(co_await image->OpenObjectMeta());
  co_return image;
}

sim::Task<Status> Image::Close() {
  if (closed_) co_return Status::Ok();
  closed_ = true;
  // Same barrier SnapCreate uses: every completed write leaves the
  // volatile write-back buffer before the plane is declared clean.
  VDE_CO_RETURN_IF_ERROR(co_await writeback_->Drain());
  co_return co_await meta_->Close();
}

sim::Task<Status> Image::OpenObjectMeta() {
  meta_ = std::make_unique<ObjectMeta>(*this, *format_, options_.iv_cache);
  co_return co_await meta_->OpenPlane(options_.meta_store);
}

// --- The object IO steps ---

core::IvRows* Image::IvCapture(Mutation& m, uint64_t first_block) const {
  if (!meta_->records_rows() || !options_.enc.NeedsMetadata()) return nullptr;
  return &m.rows.emplace_back(first_block, core::IvRows{}).second;
}

sim::Task<Status> Image::PrepareMutation(uint64_t object_no,
                                         obs::TraceContext* trace) {
  VDE_CO_RETURN_IF_ERROR((co_await meta_->Load(object_no, trace)).status());
  if (meta_->NeedsDirtyMark()) {
    VDE_CO_RETURN_IF_ERROR(co_await meta_->MarkDirty());
  }
  co_return Status::Ok();
}

sim::Task<Status> Image::CommitMutation(uint64_t object_no,
                                        const std::string& oid, Mutation m,
                                        obs::TraceContext* trace) {
  // Blocks whose zero-legit bit flips carry the updated MAC'd bitmap in
  // the SAME transaction (steady-state overwrites of live blocks stage
  // nothing).
  auto update =
      co_await meta_->StageBitmap(object_no, m.written, m.trimmed, m.txn);
  VDE_CO_RETURN_IF_ERROR(update.status());
  co_await ChargeStep(sim::ShardOf(oid), m.crypto_cost, m.compress_cost,
                      trace);
  auto io = this->io();
  m.txn.trace = trace;
  obs::SpanScope store_span(trace, obs::Stage::kStore);
  VDE_CO_RETURN_IF_ERROR(
      co_await io.Operate(oid, std::move(m.txn), SnapContext()));
  store_span.End();
  meta_->Commit(std::move(*update));
  // Superseded or trimmed stages go (with their cached rows) so a later
  // flush cannot resurrect old data; trimmed blocks get cleared markers so
  // rereads zero-fill client-side, and the freshly persisted IVs replace
  // the stale rows in the same breath — a flush or snapshot drain never
  // leaves a row pointing at overwritten ciphertext.
  if (m.drop_stages) {
    uint64_t first = UINT64_MAX;
    uint64_t end = 0;
    for (const BlockRanges* ranges : {&m.written, &m.trimmed}) {
      for (const auto& [block, count] : *ranges) {
        first = std::min(first, block);
        end = std::max(end, block + count);
      }
    }
    if (first < end) writeback_->DropRange(object_no, first, end - 1);
  }
  for (const auto& [first, count] : m.trimmed) {
    meta_->PutCleared(object_no, first, count);
  }
  for (const auto& [first, rows] : m.rows) {
    meta_->PutRange(object_no, first, rows);
  }
  co_return co_await meta_->FlushPressuredJournal();
}

sim::Task<Result<Image::ReadCounts>> Image::ReadObject(
    std::span<const BlockRead> reads, objstore::SnapId snap,
    obs::TraceContext* trace) {
  // Head reads on an authenticating format carry the object's verified
  // discard bitmap into FinishRead (the erase-channel check) and plan
  // against the IV cache; snapshot reads carry neither (rows and bitmap
  // describe the head, and a clone's cleared blocks keep legacy
  // semantics).
  const bool head = snap == objstore::kHeadSnap;
  const core::ObjectExtent& first = reads.front().ext;
  const core::DiscardBitmap* zeros = nullptr;
  if (head && meta_->bitmaps_enabled()) {
    auto loaded = co_await meta_->Load(first.object_no, trace);
    VDE_CO_RETURN_IF_ERROR(loaded.status());
    zeros = *loaded;
  }
  // Each extent plans independently (a fully cached one reads data-only),
  // and the format decides what a block read needs for its layout
  // (data+IV range, IV region slice, OMAP rows).
  objstore::Transaction txn;
  std::vector<CachedExtentRead> plans;
  plans.reserve(reads.size());
  for (const BlockRead& r : reads) {
    plans.emplace_back(head ? meta_.get() : nullptr, *format_, r.ext, zeros);
    plans.back().AppendOps(txn);
  }
  ReadCounts counts;
  objstore::ReadResult fetched;
  if (!txn.ops.empty()) {
    auto io = this->io();
    txn.trace = trace;
    obs::SpanScope store_span(trace, obs::Stage::kStore);
    auto got = co_await io.OperateRead(first.oid, std::move(txn), snap);
    store_span.End();
    if (got.status().IsNotFound()) {
      // Never-written object: virtual disks read zeros.
      for (const BlockRead& r : reads) {
        std::fill(r.out.begin(), r.out.end(), 0);
      }
      co_return counts;
    }
    if (!got.ok()) co_return got.status();
    fetched = std::move(*got);
  }
  // Finish is synchronous, so the expanded-blocks delta around the
  // loop is exactly these extents' expansions.
  const uint64_t expanded_before = format_->compress_stats().expanded_blocks;
  size_t data_off = 0;
  for (size_t i = 0; i < plans.size(); ++i) {
    if (plans.size() == 1) {
      VDE_CO_RETURN_IF_ERROR(plans[i].Finish(fetched, reads[i].out));
    } else {
      // Several extents share the result: hand each its slice.
      const size_t nbytes = plans[i].read_bytes();
      if (data_off + nbytes > fetched.data.size()) {
        co_return Status::IoError("short block read");
      }
      objstore::ReadResult slice;
      slice.data.assign(
          fetched.data.begin() + static_cast<long>(data_off),
          fetched.data.begin() + static_cast<long>(data_off + nbytes));
      slice.omap_values = fetched.omap_values;  // formats match rows by key
      data_off += nbytes;
      VDE_CO_RETURN_IF_ERROR(plans[i].Finish(slice, reads[i].out));
    }
    if (!plans[i].zero_fill()) {
      counts.decrypted_blocks += reads[i].ext.block_count;
    }
  }
  counts.expanded_blocks =
      format_->compress_stats().expanded_blocks - expanded_before;
  co_return counts;
}

sim::Task<void> Image::ChargeRead(ReadCounts counts,
                                  obs::TraceContext* trace) {
  const sim::SimTime cipher =
      counts.decrypted_blocks > 0
          ? format_->CryptoCost(counts.decrypted_blocks * core::kBlockSize)
          : 0;
  co_await ChargeStep(
      std::nullopt, cipher,
      format_->DecompressCost(counts.expanded_blocks * core::kBlockSize),
      trace);
}

sim::Task<void> Image::ChargeStep(std::optional<uint64_t> shard,
                                  sim::SimTime cipher, sim::SimTime codec,
                                  obs::TraceContext* trace) {
  if (cipher + codec == 0) co_return;
  sim::Scheduler& sched = sim::Scheduler::Current();
  const sim::SimTime end = shard ? sched.ReserveCpu(*shard, cipher + codec)
                                 : sched.ReserveAnyCpu(cipher + codec);
  if (cipher > 0) {
    obs::SpanScope crypto_span(trace, obs::Stage::kCrypto);
    co_await sim::Sleep{end - codec - sched.now()};
  }
  if (codec > 0) {
    obs::SpanScope compress_span(trace, obs::Stage::kCompress);
    co_await sim::Sleep{end - sched.now()};
  }
}

sim::Task<Status> Image::PersistMetadata() {
  auto io = this->io();
  co_return co_await io.WriteFull(
      HeaderObject(), SerializeMetadata(options_, luks_, encrypted_, snaps_));
}

// --- Completion-based entry points ---

void Image::AioRead(MutByteSpan buf, uint64_t offset, CompletionPtr c,
                    objstore::SnapId snap) {
  ImageRequest::Submit(*this, obs::OpKind::kRead, offset, buf.size(), {}, buf,
                       snap, std::move(c));
}

void Image::AioWrite(ByteSpan buf, uint64_t offset, CompletionPtr c) {
  ImageRequest::Submit(*this, obs::OpKind::kWrite, offset, buf.size(), buf, {},
                       objstore::kHeadSnap, std::move(c));
}

void Image::AioDiscard(uint64_t offset, uint64_t length, CompletionPtr c) {
  ImageRequest::Submit(*this, obs::OpKind::kDiscard, offset, length, {}, {},
                       objstore::kHeadSnap, std::move(c));
}

void Image::AioWriteZeroes(uint64_t offset, uint64_t length, CompletionPtr c) {
  ImageRequest::Submit(*this, obs::OpKind::kWriteZeroes, offset, length, {}, {},
                       objstore::kHeadSnap, std::move(c));
}

void Image::AioFlush(CompletionPtr c) {
  ImageRequest::Submit(*this, obs::OpKind::kFlush, 0, 0, {}, {},
                       objstore::kHeadSnap, std::move(c));
}

// --- Coroutine sugar ---

sim::Task<Status> Image::Write(uint64_t offset, ByteSpan data) {
  auto c = Completion::Create();
  AioWrite(data, offset, c);
  co_await c->Wait();
  co_return c->status();
}

sim::Task<Result<Bytes>> Image::Read(uint64_t offset, uint64_t length,
                                     objstore::SnapId snap) {
  // Bounds-check before sizing the result (Validate would reject the
  // request anyway, but only after this allocation).
  if (length == 0 || offset + length < offset ||
      offset + length > options_.size) {
    co_return Status::InvalidArgument("IO past end of image");
  }
  Bytes out(length);
  auto c = Completion::Create();
  AioRead(MutByteSpan(out), offset, c, snap);
  co_await c->Wait();
  if (!c->status().ok()) co_return c->status();
  co_return out;
}

sim::Task<Status> Image::Discard(uint64_t offset, uint64_t length) {
  auto c = Completion::Create();
  AioDiscard(offset, length, c);
  co_await c->Wait();
  co_return c->status();
}

sim::Task<Status> Image::WriteZeroes(uint64_t offset, uint64_t length) {
  auto c = Completion::Create();
  AioWriteZeroes(offset, length, c);
  co_await c->Wait();
  co_return c->status();
}

sim::Task<Status> Image::Flush() {
  auto c = Completion::Create();
  AioFlush(c);
  co_await c->Wait();
  co_return c->status();
}

// --- Flush ordering ---

uint64_t Image::BeginWriteIo() {
  const uint64_t seq = next_write_seq_++;
  inflight_writes_.insert(seq);
  return seq;
}

bool Image::WritesRetiredBelow(uint64_t barrier) const {
  return inflight_writes_.empty() || *inflight_writes_.begin() >= barrier;
}

void Image::AddFlushWaiter(uint64_t barrier, sim::Gate* gate) {
  flush_waiters_.emplace_back(barrier, gate);
}

void Image::EndWriteIo(uint64_t seq) {
  inflight_writes_.erase(seq);
  auto it = flush_waiters_.begin();
  while (it != flush_waiters_.end()) {
    if (WritesRetiredBelow(it->first)) {
      it->second->Fire();
      it = flush_waiters_.erase(it);
    } else {
      ++it;
    }
  }
}

sim::Task<Result<uint64_t>> Image::SnapCreate(const std::string& snap_name) {
  if (snap_name.size() > kMaxSnapNameLen) {
    // The serialized header carries the name behind a u16 length field;
    // longer names used to truncate silently on the next Open.
    co_return Status::InvalidArgument("snapshot name longer than 65535 bytes");
  }
  // The snapshot must capture every completed write, including bytes still
  // sitting in the volatile write-back buffer.
  VDE_CO_RETURN_IF_ERROR(co_await writeback_->Drain());
  const uint64_t id = cluster_.AllocateSnapId();
  snaps_.emplace_front(id, snap_name);
  VDE_CO_RETURN_IF_ERROR(co_await PersistMetadata());
  co_return id;
}

}  // namespace vde::rbd
