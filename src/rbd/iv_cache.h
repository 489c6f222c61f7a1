// Client-side IV-metadata cache for the random-IV formats — the paper's
// "metadata in memory" discussion (§3.1) as a concrete layer.
//
// Random-IV reads normally fetch the per-sector metadata with the data on
// EVERY request (interleaved bytes, an object-end region slice, or OMAP
// rows). This cache keeps the rows the client has already seen — populated
// on read completion and on write encrypt — so a read whose extent is
// fully cached issues a data-only read and decrypts with the resident
// rows: repeated reads and RMW merges skip the metadata fetch entirely.
//
// Consistency rides the write-back layer's existing ordering:
//  - rows are only consulted/updated under the same per-object block-range
//    guards that serialize overlapping IO (readers hold shared guards, so
//    no exclusive writer can swap an IV underneath a cached decrypt);
//  - discard / write-zeroes / full-object remove invalidate through the
//    same Writeback::DropRange call that drops superseded stages;
//  - flush and snapshot drains re-encrypt staged blocks with fresh IVs and
//    update their rows in the same breath (Image::CommitMutation, the
//    commit step every store mutation goes through), so a barrier never
//    leaves a stale row behind.
//
// The cache is volatile, strictly optional, and bounded: LRU-by-object
// eviction keeps at most `max_objects` objects' rows resident, a disabled
// cache is a zero-overhead passthrough (bit-identical on the sim clock),
// and snapshot reads bypass it (rows describe the head).
//
// Cleared rows are cached as NEGATIVE entries (an empty row = the block's
// authentic cleared marker): discard paths insert them via PutCleared and
// FinishRead re-populates them from authenticated reads, so a reread of a
// TRIMmed extent whose markers are all resident is satisfied client-side
// — zero store ops, zero device reads, zero metadata bytes (the trimmed
// fast path bench_trim gates).
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <unordered_map>

#include "core/format.h"
#include "objstore/types.h"
#include "util/status.h"

namespace vde::rbd {

class MetaStore;

struct IvCacheConfig {
  bool enabled = false;
  // LRU-by-object capacity: touching a row moves its object to the front;
  // caching a row for an object beyond this evicts the least recently
  // touched object's rows wholesale. 0 keeps the consult path live but
  // retains nothing (every extent misses) — useful to prove the cache adds
  // zero sim-clock cost.
  size_t max_objects = 64;
};

struct IvCacheStats {
  uint64_t hits = 0;           // extents fully served from cached rows
  uint64_t misses = 0;         // extents that had to fetch metadata
  uint64_t evictions = 0;      // objects evicted by LRU pressure
  uint64_t invalidations = 0;  // rows dropped stale: trimmed (discard/
                               // write-zeroes/remove) or superseded by an
                               // overwrite (fresh rows re-enter right after)
  uint64_t meta_bytes_saved = 0;    // metadata fetch bytes avoided on hits
  uint64_t meta_bytes_fetched = 0;  // metadata bytes fetched on misses
  uint64_t trim_hits = 0;  // hits served entirely from cleared markers:
                           // the read never reached the store at all
};

class IvCache {
 public:
  explicit IvCache(IvCacheConfig config) : config_(config) {}
  IvCache(const IvCache&) = delete;
  IvCache& operator=(const IvCache&) = delete;

  bool enabled() const { return config_.enabled; }
  // Whether inserted rows can actually stick (zero capacity consults and
  // counts, but retains nothing — callers skip the row copies).
  bool retains() const { return config_.max_objects > 0; }

  // Spill observer (the image's persistent metadata plane, or null): every
  // PutRange/PutCleared — write encrypts, read populates, cleared markers
  // — is mirrored into its write-behind journal BEFORE the retention
  // check, so even a zero-capacity RAM cache feeds the durable plane.
  void set_spill(MetaStore* spill) { spill_ = spill; }

  // Copies the rows for blocks [first_block, first_block + count) of
  // `object_no` into `rows` and returns true iff every block is cached
  // (all-or-nothing: a partial extent still needs the full metadata
  // fetch). Touches the object's LRU slot on success.
  bool TryGetRange(uint64_t object_no, uint64_t first_block, size_t count,
                   core::IvRows* rows);

  // Caches `rows` for blocks starting at `first_block` (row i belongs to
  // block first_block + i). Empty rows are cached as cleared markers
  // (negative entries). Touches the object's LRU slot and evicts under
  // pressure. Callers must hold a guard covering the blocks, and must only
  // insert rows that reflect durably applied state (post-Operate reads or
  // writes), never speculative ones.
  void PutRange(uint64_t object_no, uint64_t first_block,
                const core::IvRows& rows);

  // Caches cleared markers for [first_block, first_block + count): the
  // caller just trimmed (or removed) these blocks under an exclusive
  // guard, so rereads can be satisfied client-side as zeros.
  void PutCleared(uint64_t object_no, uint64_t first_block, size_t count);

  // Drops cached rows for [first_block, last_block] of `object_no`. Rides
  // Writeback::DropRange, so it covers every path that makes a row stale:
  // discard / write-zeroes / full-object remove AND write-through
  // overwrites (which put their fresh rows back right after the commit).
  void InvalidateRange(uint64_t object_no, uint64_t first_block,
                       uint64_t last_block);

  // Drops everything (tests; a client-side reset, not a data barrier).
  void Clear();

  const IvCacheStats& stats() const { return stats_; }
  size_t cached_objects() const { return objects_.size(); }
  size_t cached_rows() const { return cached_rows_; }

  // Accounting hooks for the planning layer (rbd::CachedExtentRead): an
  // extent served from cached rows / an extent that fetched metadata.
  void AccountHit(size_t meta_bytes) {
    stats_.hits++;
    stats_.meta_bytes_saved += meta_bytes;
  }
  void AccountMiss(size_t meta_bytes) {
    stats_.misses++;
    stats_.meta_bytes_fetched += meta_bytes;
  }
  // A zero-fill hit (on top of AccountHit): the whole extent was served
  // from cleared markers without reaching the store.
  void AccountTrimHit() { stats_.trim_hits++; }

 private:
  struct ObjectRows {
    std::map<uint64_t, Bytes> rows;       // by object-relative block
    std::list<uint64_t>::iterator lru_it; // position in lru_ (front = MRU)
  };

  // Moves `object_no`'s LRU slot to the front.
  void Touch(ObjectRows& obj);
  // Evicts least-recently-used objects until at most max_objects remain.
  void EvictToCapacity();

  IvCacheConfig config_;
  MetaStore* spill_ = nullptr;
  std::unordered_map<uint64_t, ObjectRows> objects_;
  std::list<uint64_t> lru_;  // object numbers, most recently used first
  size_t cached_rows_ = 0;
  IvCacheStats stats_;
};

// Plans one extent's read against the cache: when every row is resident
// and the geometry profits, the plan appends data-only ops and decrypts
// with the cached rows; when every resident row is a cleared marker the
// extent is TRIMmed end to end and the plan appends NO ops at all —
// zero_fill() — the caller skips the store round-trip and Finish writes
// plain zeros; otherwise it appends the full ops and populates the cache
// from the fetched metadata. Pass a null cache (or one that is disabled,
// or a format without metadata, or a non-head snapshot read) and the plan
// degrades to the plain MakeRead/FinishRead path with zero overhead.
//
// `zeros` (may be null) is the object's verified discard bitmap; it is
// threaded into FinishRead/FinishReadWithIvs so cleared markers coming
// off the store are authenticated before they decrypt to zeros — or are
// negatively cached.
class CachedExtentRead {
 public:
  CachedExtentRead(IvCache* cache, core::EncryptionFormat& fmt,
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

  bool hit() const { return hit_; }

  // Decrypts `result` (holding exactly read_bytes() of kRead payload, plus
  // any OMAP rows) into `out`; on a miss with an active cache, the fetched
  // rows are cached for the next read.
  Status Finish(const objstore::ReadResult& result, MutByteSpan out);

 private:
  IvCache* cache_;  // null = passthrough
  core::EncryptionFormat& fmt_;
  core::ObjectExtent ext_;
  const core::DiscardBitmap* zeros_;  // may be null
  bool hit_ = false;
  bool zero_fill_ = false;
  size_t read_bytes_ = 0;
  core::IvRows rows_;
};

}  // namespace vde::rbd
