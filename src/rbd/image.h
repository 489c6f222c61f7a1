// RBD-like virtual disk image: stripes a linear block space over 4 MiB
// RADOS objects and runs every IO through the pluggable encryption format
// (libRBD with the paper's modified crypto layer).
//
// The datapath is completion-based (librbd aio_*): Aio* entry points accept
// arbitrary offsets/lengths over one caller buffer, split the range into
// per-object requests, and resolve a Completion on the sim scheduler.
// Partial 4 KiB blocks are handled by read-modify-write inside the crypto
// layer; discard/write-zeroes clear data and IV metadata atomically per
// object. The coroutine methods (Read/Write/...) are thin sugar over the
// same path.
//
// A per-image write-back layer (rbd/writeback.h) sits between requests and
// the format: overlapping block ranges are admitted in submission order
// (fixing the RMW lost-update race) and sub-block writes coalesce in a
// volatile staging buffer — AioFlush is the durability barrier.
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/format.h"
#include "core/luks_header.h"
#include "obs/metrics.h"
#include "obs/plane.h"
#include "qos/scheduler.h"
#include "rados/cluster.h"
#include "rbd/completion.h"
#include "rbd/image_request.h"
#include "rbd/object_meta.h"
#include "rbd/writeback.h"

namespace vde::rbd {

struct ImageOptions {
  uint64_t size = 1ull << 30;
  uint64_t object_size = 4ull << 20;
  // Guest-side striping (RBD "fancy striping", persisted in the header).
  // stripe_unit bytes go to an object before the next unit moves to the
  // next object in a set of stripe_count objects; after stripe_count *
  // (object_size / stripe_unit) units the next object set begins. The
  // defaults (0 -> object_size, count 1) keep the legacy contiguous
  // layout bit-for-bit. stripe_unit must be a multiple of the 4 KiB
  // crypto block and divide object_size.
  uint64_t stripe_unit = 0;  // 0 = object_size (no striping)
  uint64_t stripe_count = 1;
  core::EncryptionSpec enc;
  core::LuksHeader::Params luks;
  WritebackConfig writeback;
  // Client-side IV-metadata cache (not persisted): random-IV reads whose
  // rows are resident issue data-only reads. No-op for formats without
  // per-sector metadata; disabled = zero-overhead passthrough.
  IvCacheConfig iv_cache;
  // Client-side QoS (not persisted): images sharing one scheduler are
  // tenants of one dispatch queue — the multi-tenant host serving many
  // virtual disks from one process. Null scheduler or a disabled policy is
  // a zero-overhead passthrough.
  std::shared_ptr<qos::Scheduler> qos_scheduler;
  qos::QosPolicy qos;
  // Persistent metadata plane (not persisted in the image header — it
  // binds to a local device): durable IV-cache rows + discard bitmaps so
  // a clean reopen against the same device starts warm. Disabled, or a
  // format without authenticated trims, is a zero-overhead passthrough.
  MetaStoreConfig meta_store;
  // Client-side observability plane (not persisted): request tracing,
  // per-stage latency histograms, slow-op tracking. Disabled (default) is
  // a bit-identical sim-clock passthrough.
  obs::Config obs;
  // Cluster-side QoS identity (not persisted): every RADOS op this image
  // issues carries tenant.id for the OSDs' mClock dequeues, and Open/Create
  // register the spec with the cluster. The default (id 0, no reservation
  // or limit) is the untagged tenant — a no-op unless cluster QoS is on.
  rados::TenantSpec tenant;
};

// --- The image header object ---
//
// [magic u32][total_len u32][size u64][object_size u64][stripe_unit u64]
// [stripe_count u64][mode u8][layout u8][integrity u8][encrypted u8]
// [snap_count u32] per snapshot: [id u64][name_len u16][name]
// [luks_len u32][luks blob] optional: [codec u8][min_gain_pct u32]
// [crc32c u32 over everything before it]

// What the header object persists. Only the geometry and encryption spec
// of `options` are set; runtime policy stays at its defaults.
struct ImageHeader {
  ImageOptions options;
  bool encrypted = false;
  core::LuksHeader luks;  // parsed only when `encrypted`
  std::deque<std::pair<uint64_t, std::string>> snaps;  // newest first
};

Bytes SerializeMetadata(const ImageOptions& options,
                        const core::LuksHeader& luks, bool encrypted,
                        const std::deque<std::pair<uint64_t, std::string>>&
                            snaps);

// Parses header object bytes (a read may pad past the serialized length).
// Untrusted input: anything truncated, out of range or breaking the layout
// rules Create enforces is Corruption. Pure: no cluster, no IO.
Result<ImageHeader> ParseImageHeader(ByteSpan data);

class Image {
 public:
  // Creates the image: generates a master key, formats the LUKS-like
  // header under `passphrase`, persists image metadata.
  static sim::Task<Result<std::shared_ptr<Image>>> Create(
      rados::Cluster& cluster, const std::string& name,
      const std::string& passphrase, const ImageOptions& options);

  // Opens an existing image, unlocking the header with `passphrase`.
  // `runtime` carries the client-side policy picked per open (write-back,
  // QoS scheduler and policy, IV cache, metadata plane, observability,
  // cluster tenant); the geometry and encryption spec persisted in the
  // header win over its own, so passing the options an image was created
  // with reopens it as it was.
  static sim::Task<Result<std::shared_ptr<Image>>> Open(
      rados::Cluster& cluster, const std::string& name,
      const std::string& passphrase, ImageOptions runtime = {});

  ~Image();

  // Flushes the write-back buffer and the metadata-plane journal, then
  // marks the plane clean — the next Open against the same meta device
  // starts warm. Idempotent: a second Close (or a Close on an image whose
  // open never finished) is a clean no-op. The destructor does NOT run
  // this (device IO needs the scheduler); an image dropped without Close
  // simply leaves the plane dirty, and the next open degrades to cold.
  sim::Task<Status> Close();

  // --- Completion-based async IO (librbd aio_*) ---
  //
  // Any offset/length within the image is valid; no alignment is required.
  // Buffers must stay alive until the completion resolves. Concurrent
  // requests touching overlapping block ranges apply in submission order
  // (per-object block-range guards in the write-back layer); disjoint
  // ranges run concurrently. A completed write may still sit in the
  // volatile write-back buffer — reads observe it, but AioFlush is the
  // durability barrier, exactly like a disk write cache.
  void AioRead(MutByteSpan buf, uint64_t offset, CompletionPtr c,
               objstore::SnapId snap = objstore::kHeadSnap);
  void AioWrite(ByteSpan buf, uint64_t offset, CompletionPtr c);
  // Discard rounds inward to whole 4 KiB blocks (TRIM granularity); a full
  // object range is removed outright when no snapshots pin it.
  void AioDiscard(uint64_t offset, uint64_t length, CompletionPtr c);
  // Write-zeroes zeroes the exact byte range: whole blocks are cleared with
  // kZero, partial edges merge zeros via RMW in the same transaction.
  void AioWriteZeroes(uint64_t offset, uint64_t length, CompletionPtr c);
  // Resolves once every write-class request issued before it completed.
  void AioFlush(CompletionPtr c);

  // --- Coroutine sugar over the aio path ---
  sim::Task<Status> Write(uint64_t offset, ByteSpan data);
  sim::Task<Result<Bytes>> Read(uint64_t offset, uint64_t length,
                                objstore::SnapId snap = objstore::kHeadSnap);
  sim::Task<Status> Discard(uint64_t offset, uint64_t length);
  sim::Task<Status> WriteZeroes(uint64_t offset, uint64_t length);
  sim::Task<Status> Flush();

  // Takes a snapshot; subsequent overwrites preserve this point in time.
  sim::Task<Result<uint64_t>> SnapCreate(const std::string& snap_name);

  uint64_t size() const { return options_.size; }
  uint64_t object_size() const { return options_.object_size; }
  uint64_t blocks_per_object() const {
    return options_.object_size / core::kBlockSize;
  }
  // Effective stripe geometry (defaults resolve to the contiguous layout).
  uint64_t stripe_unit() const {
    return options_.stripe_unit != 0 ? options_.stripe_unit
                                     : options_.object_size;
  }
  uint64_t stripe_count() const {
    return options_.stripe_count != 0 ? options_.stripe_count : 1;
  }

  // Striping map: where image byte `off` lives and how many bytes are
  // contiguous there before the layout jumps to another object (or to a
  // non-adjacent offset of the same object).
  struct StripeRun {
    uint64_t object_no;
    uint64_t in_obj;  // byte offset within the object
    uint64_t run;     // contiguous bytes available at in_obj
  };
  StripeRun MapOffset(uint64_t off) const;
  const core::EncryptionSpec& spec() const { return options_.enc; }
  const std::string& name() const { return name_; }
  const Writeback& writeback() const { return *writeback_; }
  // The client-side object-metadata table: IV rows, discard bitmaps and
  // the persistent plane.
  ObjectMeta& object_meta() const { return *meta_; }
  // Observability plane (always present; disabled = null trace contexts).
  obs::Plane& obs() const { return *obs_plane_; }
  // Full metrics snapshot: image counters, write-back/qos/obs state, the
  // cluster's store+device totals, and the sim core model — the one
  // walkable tree replacing per-layer stats plumbing. The `image` node
  // holds the request counters below plus the object-metadata table's
  // (IV rows, bitmaps, plane + KV), codec and qos-tenant counters, all
  // zero when that component is off.
  void ExportMetrics(obs::Metrics& root) const;
  // ExportMetrics into a fresh root: the snapshots FioRunner deltas, and
  // how tests and benches read a counter ("image.writes").
  obs::Metrics MetricsSnapshot() const;
  rados::Cluster& cluster() const { return cluster_; }
  // IoCtx carrying this image's cluster-QoS tenant tag. All image-issued
  // RADOS ops must go through this (not cluster().ioctx()) so mClock can
  // attribute them.
  rados::IoCtx io() const { return cluster_.ioctx(options_.tenant.id); }
  qos::Scheduler* qos_scheduler() const {
    return options_.qos_scheduler.get();
  }
  qos::TenantId qos_tenant() const { return qos_tenant_; }
  const std::deque<std::pair<uint64_t, std::string>>& snapshots() const {
    return snaps_;
  }

  // Object name for a given object number (tests/examples).
  std::string ObjectName(uint64_t object_no) const;

 private:
  friend class ImageRequest;
  friend class Writeback;

  Image(rados::Cluster& cluster, std::string name, ImageOptions options);

  sim::Task<Status> PersistMetadata();
  std::string HeaderObject() const { return "rbd_header." + name_; }
  objstore::SnapContext SnapContext() const;

  // Builds the object-metadata table over format_ and opens its plane.
  sim::Task<Status> OpenObjectMeta();

  // --- The object IO steps ---
  //
  // Every store mutation of an object is PrepareMutation, then the
  // format's ops built into one Mutation, then CommitMutation; every block
  // read of an object is one ReadObject. These two steps are the only
  // places the ciphertext, its IV/MAC and the sealed discard bitmap are
  // put into (or taken out of) one atomic object transaction (§3.1).

  // (first_block, count) runs of object-relative blocks.
  using BlockRanges = std::vector<std::pair<uint64_t, size_t>>;

  // One object mutation: the transaction the format built plus what the
  // commit does around it.
  struct Mutation {
    objstore::Transaction txn;
    BlockRanges written;  // blocks made live: their zero-legit bits clear
    BlockRanges trimmed;  // blocks made zero-legit: their bits set
    // CPU charged on the object's core just before the store call (after
    // the bitmap update is staged); zero schedules nothing.
    sim::SimTime crypto_cost = 0;
    sim::SimTime compress_cost = 0;
    // Drops every staged copy (and cached row) in the span written and
    // trimmed cover: the store content supersedes them. A stage flush
    // keeps its own stage.
    bool drop_stages = true;
    // Fresh IV rows by first block, captured through IvCapture.
    std::vector<std::pair<uint64_t, core::IvRows>> rows;
  };

  // Where MakeWrite should capture the metadata rows of blocks from
  // `first_block` on: a new rows entry of `m` when the object-metadata
  // table records rows, null (skip the copy) otherwise.
  core::IvRows* IvCapture(Mutation& m, uint64_t first_block) const;

  // Loads the object's metadata, then the plane's dirty mark: the first
  // store mutation of a session clears the plane's clean flag (write-
  // through) so a crash cold-starts the next open.
  sim::Task<Status> PrepareMutation(uint64_t object_no,
                                    obs::TraceContext* trace);

  // Appends the discard-bitmap update for m.written/m.trimmed to m.txn,
  // charges m's CPU costs, applies m.txn to `oid` under a kStore span and
  // commits the bitmap; then drops superseded stages, caches cleared
  // markers for m.trimmed and the rows in m.rows, and flushes a pressured
  // metadata journal.
  sim::Task<Status> CommitMutation(uint64_t object_no, const std::string& oid,
                                   Mutation m, obs::TraceContext* trace);

  // One block extent of a read and where its plaintext goes.
  struct BlockRead {
    core::ObjectExtent ext;
    MutByteSpan out;
  };
  struct ReadCounts {
    uint64_t decrypted_blocks = 0;
    uint64_t expanded_blocks = 0;  // of those, stored compressed
  };

  // Plans every extent (all of one object) against the IV rows and
  // issues them as one read transaction at `snap`; head reads first Load
  // the object's metadata and consult its rows and discard bitmap.
  // Extents resting on resident cleared markers read zeros without a
  // store round-trip, a never-written object zero-fills every `out`.
  // Returns what was decrypted; the caller charges it (ChargeRead).
  sim::Task<Result<ReadCounts>> ReadObject(std::span<const BlockRead> reads,
                                           objstore::SnapId snap,
                                           obs::TraceContext* trace);
  // Decrypt (and decompress) cost of `counts`, on the least-busy core: a
  // read's completion feeds no later store op, so it needs no affinity.
  sim::Task<void> ChargeRead(ReadCounts counts, obs::TraceContext* trace);
  // One client crypto step: `cipher` then `codec` ns in ONE core
  // reservation, on `shard`'s core (write-side encrypt, which orders
  // same-object transactions as they leave the client) or on the
  // least-busy core when `shard` is empty. The task resumes at the
  // boundary, so the kCrypto and kCompress spans keep their split; with
  // the core model off this is Sleep{cipher} then Sleep{codec}.
  sim::Task<void> ChargeStep(std::optional<uint64_t> shard,
                             sim::SimTime cipher, sim::SimTime codec,
                             obs::TraceContext* trace);

  // Flush ordering: write-class requests take a ticket at submit time and
  // retire it on completion; a flush barrier resolves once no ticket below
  // it is outstanding.
  uint64_t BeginWriteIo();
  void EndWriteIo(uint64_t seq);
  bool WritesRetiredBelow(uint64_t barrier) const;
  void AddFlushWaiter(uint64_t barrier, sim::Gate* gate);

  rados::Cluster& cluster_;
  std::string name_;
  ImageOptions options_;
  std::unique_ptr<core::EncryptionFormat> format_;
  std::unique_ptr<Writeback> writeback_;
  std::unique_ptr<ObjectMeta> meta_;  // built right after format_
  std::unique_ptr<obs::Plane> obs_plane_;
  core::LuksHeader luks_;
  bool encrypted_ = false;
  bool closed_ = false;
  std::deque<std::pair<uint64_t, std::string>> snaps_;  // newest first
  // Request-path counters, kept by ImageRequest and Writeback.
  struct Counters {
    uint64_t writes = 0;
    uint64_t reads = 0;
    uint64_t discards = 0;  // discard + write-zeroes requests
    uint64_t flushes = 0;
    uint64_t bytes_written = 0;
    uint64_t bytes_read = 0;
    uint64_t bytes_discarded = 0;
    uint64_t rmw_blocks = 0;  // partial blocks read back for merge
    uint64_t rmw_merged = 0;  // RMW edge reads served from the staging
                              // buffer (store read avoided)
    uint64_t wb_hits = 0;     // writes absorbed into an existing stage
    uint64_t wb_stages = 0;   // staged-block creations
    uint64_t wb_flushes = 0;  // staged-block flush transactions
    uint64_t wb_evictions = 0;  // of those, victims of buffer pressure
  };
  Counters counters_;
  qos::TenantId qos_tenant_ = 0;  // valid while options_.qos_scheduler set

  uint64_t next_write_seq_ = 0;
  std::set<uint64_t> inflight_writes_;
  std::vector<std::pair<uint64_t, sim::Gate*>> flush_waiters_;
};

}  // namespace vde::rbd
