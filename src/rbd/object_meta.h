// Client-side object-metadata table: what the client knows about each
// RADOS object's encryption metadata, one entry per object. This is the
// paper's "metadata in memory" discussion (§3.1) as a concrete layer, plus
// an optional persistent plane on fast local storage (as in HVSTO-style
// hybrid designs) so a cleanly closed image reopens warm.
//
// An entry holds
//  - IV rows: the per-block metadata rows the client has seen, populated
//    on write encrypt and on read completion. A read whose rows are all
//    resident issues a data-only read and decrypts with them. An empty row
//    is the block's authentic cleared marker (a negative entry), so a
//    reread of a TRIMmed extent whose markers are all resident needs no
//    store op at all. Rows are volatile, optional and bounded: LRU by
//    object keeps at most `max_objects` objects' rows resident; a disabled
//    cache is a zero-overhead passthrough, and snapshot reads bypass rows
//    (they describe the head);
//  - the verified sealed discard bitmap (core::DiscardBitmap) and its
//    write-generation epoch, for formats that authenticate trims. It says
//    which blocks legitimately read as zeros: FinishRead checks cleared
//    markers against it (closing the erase channel), and exactly the
//    transactions that flip bits (first writes, trims, rewrites after a
//    trim) carry the resealed record. Resident once loaded;
//  - the epoch floor the plane persisted for the object;
//  - one lane serializing the entry's load and every bitmap commit. Two
//    requests to disjoint blocks of one object are deliberately not
//    serialized by the write-back guards yet share the bitmap; without the
//    lane the second commit would overwrite the first one's bits. Lane
//    holders never wait on block guards, so the lane cannot deadlock
//    against the guard table.
//
// Row consistency rides the write-back layer's ordering: rows are consulted
// and updated only under the per-object block-range guards that serialize
// overlapping IO; discard, write-zeroes, remove and overwrites invalidate
// through Writeback::DropRange; the commit step puts fresh rows back right
// after its transaction applied, so a flush never leaves a stale row.
//
// The plane (MetaStoreConfig) journals rows, cleared markers and sealed
// bitmaps write-behind into a KvStore on a dedicated local device, keyed by
// (object_no, kind). Trust model: the plane is untrusted local disk. Every
// bitmap it returns re-verifies its MAC, and every row only ever decrypts
// authenticated ciphertext, so a stale row fails HMAC/GCM verification. A
// MAC cannot catch a validly sealed OLD record replayed over the current
// one; the per-object epoch catches that for the bitmap:
//  - every mutating transaction bumps the object's epoch, sealed into the
//    bitmap's MAC;
//  - the plane persists a monotone per-object floor (the highest sealed
//    epoch and the highest row stamp it committed);
//  - a bitmap sealed below the floor, presented by the store or by the
//    plane, is rejected as Corruption, and a persisted row stamped above
//    the floor's ceiling is refused.
// The epoch only guards the bitmap. A plain overwrite of a live block does
// not reseal it, so a store that rolls back that block's data and IV
// together serves the old content with status OK: data freshness is not
// covered yet.
//
// Plane consistency: a clean-flag row ('C') is cleared, write-through,
// before the first store-mutating transaction of a session, and set again
// by Close() after the journal flushed. A reopen that finds it cleared (a
// crash) purges the persisted bitmaps and rows but KEEPS the epoch floors.
// A torn KV or a plane bound to another image is wiped and starts cold:
// the plane is an optimization, never a correctness dependency.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/discard_bitmap.h"
#include "core/format.h"
#include "device/block_device.h"
#include "kv/db.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "util/status.h"

namespace vde::rbd {

class Image;

struct IvCacheConfig {
  bool enabled = false;
  // LRU-by-object capacity: touching a row moves its object to the front;
  // caching a row for an object beyond this evicts the least recently
  // touched object's rows wholesale. 0 keeps the consult path live but
  // retains nothing (every extent misses) — useful to prove the cache adds
  // zero sim-clock cost.
  size_t max_objects = 64;
};

struct MetaStoreConfig {
  bool enabled = false;
  // Dedicated local device (or region) backing the plane's KvStore.
  // Caller-owned and must outlive the image; reopening the image against
  // the SAME device is what makes a warm reopen possible.
  dev::BlockDevice* device = nullptr;
  // Pending journal entries that trigger a write-behind batch commit at
  // the end of a datapath request (one WAL frame per flush).
  size_t journal_flush_rows = 64;
};

// The table's counters, exported under these names in the image node.
#define VDE_OBJECT_META_STATS(C, G)                                      \
  C(iv_hits)               /* extents fully served from resident rows */ \
  C(iv_misses)             /* extents that had to fetch metadata */      \
  C(iv_evictions)          /* objects whose rows LRU pressure dropped */ \
  C(iv_invalidations)      /* rows dropped stale (trimmed, removed or    \
                              superseded by an overwrite) */             \
  C(iv_meta_bytes_saved)   /* metadata fetch bytes avoided */            \
  C(iv_meta_bytes_fetched) /* metadata bytes fetched on misses */        \
  C(trim_zero_reads)       /* hits served entirely from cleared markers, \
                              without reaching the store */              \
  C(trim_state_loads)      /* bitmap fetches from the store */           \
  C(trim_bitmap_updates)   /* transactions carrying a bitmap write */    \
  C(meta_warm_hits)        /* bitmaps/row sets served by the plane */    \
  C(meta_recovered_rows)   /* rows installed warm at reopen */           \
  C(meta_spills)           /* journal entries (rows + bitmaps) */        \
  C(meta_epoch_rejections) /* persisted rows refused by the floor */     \
  C(meta_cold_resets)      /* dirty, corrupt or foreign plane starts */  \
  C(meta_journal_flushes)  /* write-behind batches committed */          \
  C(meta_gc_rows)          /* 'B'/'I' rows deleted for removed objects */

struct ObjectMetaStats {
  VDE_STATS(ObjectMetaStats, VDE_OBJECT_META_STATS)
};

class ObjectMeta {
 private:
  struct Entry;
  // Releases an entry's lane (the deleter of Update's entry pointer).
  struct ReleaseLane {
    void operator()(Entry* e) const;
  };

 public:
  // `image` and `format` must outlive the table.
  ObjectMeta(const Image& image, core::EncryptionFormat& format,
             IvCacheConfig cache)
      : image_(image), format_(format), cache_(cache) {}

  // Opens (or initializes) the persistent plane. Stays plane-less when the
  // config is disabled, has no device, or the format does not authenticate
  // trims (persisting rows a read cannot verify would turn local staleness
  // into silent corruption). A corrupt or foreign plane is wiped and
  // starts cold, never failing the image open for it.
  sim::Task<Status> OpenPlane(const MetaStoreConfig& config);
  bool has_plane() const { return kv_ != nullptr; }

  // --- Per-object load ---

  // Whether the format authenticates trims (bitmaps are tracked at all).
  bool bitmaps_enabled() const { return format_.AuthenticatedTrim(); }

  // Makes the object's state resident, once per object, and returns its
  // verified bitmap: concurrent first touches serialize on the entry's
  // lane. On a warm plane, the floor, then the persisted rows (when the
  // cache retains rows), then the bitmap come off the plane; otherwise,
  // and when the plane holds no bitmap, the bitmap comes from the store
  // (NotFound = fresh object, all bits set), then the floor. Attributes
  // its round-trips to `trace`'s kStore stage. Returns null at once when
  // bitmaps are not tracked. The bitmap stays valid for the table's
  // lifetime; bits of blocks the caller holds guards over cannot change
  // underneath it.
  sim::Task<Result<const core::DiscardBitmap*>> Load(
      uint64_t object_no, obs::TraceContext* trace = nullptr);

  // --- Bitmap updates ---

  // A staged bitmap mutation tied to one transaction. Inactive when it
  // flips no bits. An active update holds the entry's lane until Commit;
  // dropping it uncommitted (the transaction failed) releases the lane.
  class Update {
    friend class ObjectMeta;
    std::unique_ptr<Entry, ReleaseLane> entry_;  // holds the lane
    uint64_t object_no_ = 0;
    core::DiscardBitmap pending_;
    uint64_t epoch_ = 0;  // generation the staged record was sealed under
    Bytes sealed_;        // the sealed record, kept for the journal
  };

  // Stages clearing the bits in `clear` (blocks being written) and setting
  // the bits in `set` (blocks being trimmed); ranges are (first_block,
  // count) pairs. If any bit flips, takes the entry's lane, appends the
  // sealed bitmap write to `txn` and returns an active update to Commit
  // once the transaction applied. Requires a successful Load.
  sim::Task<Result<Update>> StageBitmap(
      uint64_t object_no,
      const std::vector<std::pair<uint64_t, size_t>>& clear,
      const std::vector<std::pair<uint64_t, size_t>>& set,
      objstore::Transaction& txn);
  void Commit(Update&& update);

  // The whole object was removed from the store: every block reads zeros
  // again. Bumps the epoch (it never restarts with the store record),
  // caches cleared markers for every block, and marks the object's
  // persisted bitmap and rows for deletion at Close; a later journal entry
  // for the object (it was rewritten) cancels that.
  void OnRemove(uint64_t object_no);

  // --- IV rows ---

  bool rows_enabled() const { return cache_.enabled; }
  // Whether written rows and cleared markers are recorded: the cache is on,
  // or the plane must see every row a write supersedes, so that a later
  // warm session never installs a stale one.
  bool records_rows() const { return cache_.enabled || has_plane(); }
  // Whether inserted rows can stick (a zero-capacity cache consults and
  // counts, but retains nothing: callers skip the row copies).
  bool retains_rows() const {
    return cache_.enabled && cache_.max_objects > 0;
  }

  // Copies the rows for blocks [first_block, first_block + count) into
  // `rows` and returns true iff every block is resident (all-or-nothing).
  // Touches the object's LRU slot on success.
  bool TryGetRange(uint64_t object_no, uint64_t first_block, size_t count,
                   core::IvRows* rows);

  // Records `rows` for blocks from `first_block` on (row i belongs to block
  // first_block + i): journals them, stamped with the object's epoch,
  // then caches them if the cache retains rows. Callers hold a guard over
  // the blocks and only pass rows of durably applied state.
  void PutRange(uint64_t object_no, uint64_t first_block,
                const core::IvRows& rows);

  // PutRange of cleared markers for [first_block, first_block + count):
  // the caller just trimmed these blocks. A no-op unless records_rows().
  void PutCleared(uint64_t object_no, uint64_t first_block, size_t count);

  // Drops resident rows for blocks [first_block, last_block]. Rides
  // Writeback::DropRange, which every path that makes a row stale takes.
  void InvalidateRange(uint64_t object_no, uint64_t first_block,
                       uint64_t last_block);

  size_t cached_objects() const { return lru_.size(); }
  size_t cached_rows() const { return cached_rows_; }

  // CachedExtentRead's accounting of one extent: served from resident
  // rows (`zero_fill`: entirely from cleared markers) or, on a miss, with
  // `meta_bytes` of metadata fetched.
  void AccountRead(bool hit, bool zero_fill, size_t meta_bytes);

  // --- Plane journal and session ---
  //
  // Journal entries are synchronous enqueues; a flush commits them as one
  // atomic KV batch. All of these are no-ops without a plane.

  // Commits the journal once journal_flush_rows entries pend.
  sim::Task<Status> FlushPressuredJournal();
  sim::Task<Status> FlushJournal();

  // Whether the session's first store mutation still needs the clean flag
  // cleared (callers gate the MarkDirty coroutine frame on this).
  bool NeedsDirtyMark() const { return has_plane() && !dirty_; }
  // Clears the clean flag, write-through, before the first mutating store
  // transaction: a crash from here on makes the next open a cold start.
  sim::Task<Status> MarkDirty();

  // Flushes the journal, deletes the removed objects' rows (never their
  // epoch floors), and sets the clean flag. Idempotent; after a clean
  // Close the plane's contents are trusted by the next open.
  sim::Task<Status> Close();

  const ObjectMetaStats& stats() const { return stats_; }
  // Every counter of stats(), plus the plane's KV counters, into the image
  // node `n` (zeros when a component is off).
  void ExportMetrics(obs::Metrics& n) const;

 private:
  struct Entry {
    // By object-relative block. Non-empty exactly while the object sits in
    // lru_ at lru_it.
    std::map<uint64_t, Bytes> rows;
    std::list<uint64_t>::iterator lru_it;
    core::DiscardBitmap bits;
    uint64_t epoch = 0;  // write generation of the current sealed record
    bool loaded = false;
    // The plane's floor: the highest bitmap epoch sealed and the highest
    // epoch a committed row was stamped with. Fetched by the entry's Load,
    // before anything journals for the object.
    uint64_t floor_sealed = 0;
    uint64_t floor_ceiling = 0;
    sim::Semaphore lane{1};
  };

  // Entries are created on first use and never erased: references are held
  // across suspension points.
  Entry& At(uint64_t object_no);

  // Makes `e`'s rows the most recently used (`fresh`: they were empty
  // before this insert), then evicts objects beyond max_objects.
  void TouchRows(uint64_t object_no, Entry& e, bool fresh);
  // The warm half of Load: the floor, the persisted rows, then the bitmap
  // (the entry is loaded if the plane held one).
  sim::Task<Status> LoadWarm(uint64_t object_no, Entry& e);
  // Fetches the object's persisted floor into `e`.
  sim::Task<Status> FetchFloor(uint64_t object_no, Entry& e);

  void JournalRows(uint64_t object_no, Entry& e, uint64_t first_block,
                   const core::IvRows& rows);
  // Journals a sealed bitmap record and advances the floor to `epoch`.
  void JournalBitmap(uint64_t object_no, Entry& e, const Bytes& sealed,
                     uint64_t epoch);

  // Zeroes the KV superblock and WAL region and opens a fresh KvStore: a
  // cold start. (Stale WAL frames could otherwise replay.)
  sim::Task<Status> ResetPlane();
  // After a crash: deletes the persisted bitmaps and rows (the store is
  // authoritative) but KEEPS the epoch floors, so a later clean close
  // cannot bless rolled-back state.
  sim::Task<Status> PurgeStaleState();
  // Close-time GC: deletes the 'B'/'I' rows of every object in removed_.
  sim::Task<Status> GcRemovedObjects();
  // Writes `batch` and starts a fresh one once it holds `min` entries.
  sim::Task<Status> WriteBatchOf(kv::WriteBatch& batch, size_t min);

  const Image& image_;
  core::EncryptionFormat& format_;
  IvCacheConfig cache_;
  std::unordered_map<uint64_t, std::unique_ptr<Entry>> entries_;
  std::list<uint64_t> lru_;  // objects with rows, most recently used first
  size_t cached_rows_ = 0;

  MetaStoreConfig plane_;
  std::unique_ptr<kv::KvStore> kv_;  // null = no plane
  bool warm_ = false;
  bool dirty_ = false;
  bool closed_ = false;
  kv::WriteBatch pending_;
  std::set<uint64_t> dirty_floors_;  // floors the next flush persists
  std::set<uint64_t> removed_;       // objects whose rows go at Close
  sim::Semaphore flush_lane_{1};
  sim::Semaphore dirty_lane_{1};
  ObjectMetaStats stats_;
};

// Plans one extent's read against the table's rows: when every row is
// resident and the geometry profits, the plan appends data-only ops and
// decrypts with the resident rows; when every resident row is a cleared
// marker the extent is TRIMmed end to end and the plan appends NO ops at
// all (zero_fill()): the caller skips the store round-trip and Finish
// writes plain zeros; otherwise it appends the full ops and caches the
// fetched rows. A null table (or a disabled cache, a format without
// metadata, or a non-head snapshot read) degrades to the plain
// MakeRead/FinishRead path with zero overhead.
//
// `zeros` (may be null) is the object's verified discard bitmap; it is
// threaded into FinishRead/FinishReadWithIvs so cleared markers coming
// off the store are authenticated before they decrypt to zeros or are
// cached.
class CachedExtentRead {
 public:
  CachedExtentRead(ObjectMeta* meta, core::EncryptionFormat& fmt,
                   const core::ObjectExtent& ext,
                   const core::DiscardBitmap* zeros = nullptr);

  // Appends this extent's read ops (none on a zero-fill hit, data-only on
  // a row hit, full on a miss).
  void AppendOps(objstore::Transaction& txn);

  // Every block of the extent is a resident cleared marker: no ops were
  // appended, Finish needs no transaction result.
  bool zero_fill() const { return zero_fill_; }

  // Bytes of kRead payload the ops AppendOps appended produce — the split
  // boundary when several planned extents batch into one transaction.
  size_t read_bytes() const { return read_bytes_; }

  // Decrypts `result` (holding exactly read_bytes() of kRead payload, plus
  // any OMAP rows) into `out`; on a miss with an active cache, the fetched
  // rows are cached for the next read.
  Status Finish(const objstore::ReadResult& result, MutByteSpan out);

 private:
  ObjectMeta* meta_;  // null = passthrough
  core::EncryptionFormat& fmt_;
  core::ObjectExtent ext_;
  const core::DiscardBitmap* zeros_;  // may be null
  bool hit_ = false;
  bool zero_fill_ = false;
  size_t read_bytes_ = 0;
  core::IvRows rows_;
};

}  // namespace vde::rbd
