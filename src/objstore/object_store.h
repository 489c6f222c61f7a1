// Per-OSD storage engine (a deliberately small BlueStore analogue).
//
// Device layout: [txn journal | OMAP KV store | object data extents].
//
// Commit protocol (models Ceph's WAL-then-apply):
//   1. The transaction (metadata + payload) is appended to the journal —
//      ONE contiguous device write, serialized straight into the journal's
//      sector buffer; this is the commit point. Payload bytes a later
//      kTrim/kZero of the same transaction discards are recorded as holes
//      (objstore/txn_record.h).
//   2. State becomes visible immediately (data plane is RAM); OMAP mutations
//      go through the LSM store synchronously (they ARE the OMAP cost).
//   3. A background applier charges the final-location device IO, including
//      read-modify-write of partial head/tail sectors — the cost the paper's
//      "unaligned" layout keeps paying. A partial sector the store wrote
//      or read recently is still in its sector cache
//      (objstore/sector_cache.h) and costs no device read.
// The store applies from memory and never replays its journal, so a frame
// is dead once its transaction is applied: the journal below the oldest
// unapplied frame holds no memory (released without simulated time), and a
// store's memory tracks its live data, not how many transactions it ran.
//
// Replicas share data pages: every replica of a write stores the same
// ciphertext, so the stores applying one replicated transaction share a
// PageShare. The first to apply a kWrite/kWriteFull payload or a
// kTrim/kZero punch records the pages it held before and after the op; the
// others adopt the after pages (shared copy-on-write, dev::SparseRam)
// wherever the op covers the whole page or their own page before the op is
// the recorded one, and copy elsewhere (a diverged page, an extent at a
// different in-page offset). Replicas in step therefore share the unaligned
// layout's interleaved slots and the sub-page IV records too. Like the
// instant-visibility write itself, this is host memory only: no simulated
// time, no device stats, and each store still charges its own apply IO.
// Snapshot clones copy their data.
//
// Snapshots: clone-on-first-write-after-snap. A clone captures object data
// AND its OMAP rows: random IVs stored via OMAP must remain readable for
// old snapshots, while inline and object-end IVs live in the object's bytes
// and travel with the data copy for free. A clone without its rows would
// pair old ciphertext with the head's IVs: garbage, or an authentication
// failure under HMAC or GCM.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "device/extent_allocator.h"
#include "device/nvme.h"
#include "device/region.h"
#include "kv/db.h"
#include "kv/wal.h"
#include "objstore/sector_cache.h"
#include "objstore/types.h"
#include "sim/sync.h"
#include "util/interval_map.h"
#include "util/stats.h"

namespace vde::objstore {

// Store-side software cost model. The values are hand-set model
// constants, not derived from a host measurement yet (ROADMAP item 11);
// docs/BENCH.md lists the measured host costs they are meant to track.
// One named struct consumed by both the apply path and the bench fixtures
// — the constants used to live loose in StoreConfig.
//
// The apply cost of a data op splits into two stages:
//  - prepare: payload staging — deferred-write bookkeeping for sub-sector
//    ops, boundary read-modify-write + realignment for unaligned ones.
//    Shared-stage work: runs before the per-object exclusive lock.
//  - commit: extent/onode bookkeeping + dispatch. The short exclusive
//    stage under the object lock.
// Under the sim's N-core model the prepare stage of transaction K+1
// overlaps the commit stage of transaction K (BlueStore-style pipelining);
// with the core model off, both charge inside the lock exactly as before.
struct CostModel {
  // Per write-class data op: extent/onode bookkeeping + dispatch (commit).
  sim::SimTime write_op_apply_cost = 35 * sim::kUs;
  // Sub-sector op: BlueStore-style deferred-write bookkeeping (the
  // object-end IV write pays this on every small IO).
  sim::SimTime small_write_penalty = 70 * sim::kUs;
  // Non-sector-aligned op: synchronous boundary read-modify-write and
  // payload re-alignment (the unaligned layout pays this on every write).
  sim::SimTime unaligned_penalty = 550 * sim::kUs;
  // Per OMAP key on the store's single kv commit lane (Ceph's
  // kv_sync_thread / OMAP encode path; this is what melts the OMAP layout
  // at large IOs where one write carries 1024 keys). Store-wide work: it
  // runs on the least-busy core, not on the object's.
  sim::SimTime omap_key_write_cost = 32 * sim::kUs;

  // Prepare-stage penalty of one data op (kTrim is metadata-only: no
  // payload to defer or re-align, so no size penalties).
  sim::SimTime PreparePenalty(bool is_trim, uint64_t offset, uint64_t length,
                              uint32_t sector) const {
    if (is_trim) return 0;
    if (length < sector) return small_write_penalty;
    if (offset % sector != 0 || length % sector != 0) {
      return unaligned_penalty;
    }
    return 0;
  }
};

// Pages of one replicated write, shared by every store that applies it
// (see the header comment). The caller that fans a transaction out owns one
// per write and passes it to each replica's Apply; it holds page references
// until destroyed, so a replica that applies late still adopts exactly the
// bytes the first one wrote.
struct PageShare {
  std::vector<dev::SparseRam::PageRun> ops;  // by op index; empty = unapplied
};

struct StoreConfig {
  uint64_t journal_size = 64ull << 20;
  uint64_t kv_region_size = 512ull << 20;
  // Per-object allocation: object payload + slack for end-of-object
  // metadata regions (IVs/tags) written past the nominal object size.
  uint64_t max_object_size = (4ull << 20) + (1ull << 20);
  // Granularity of the object-data extent allocator. 0 = the device sector
  // size (the classic layout). Compression-enabled images set 512 so the
  // sub-block tail trims of short ciphertexts release real capacity: at
  // sector (4 KiB) granularity a tail punch inside one block can never
  // cover a whole allocation unit.
  uint32_t alloc_unit = 0;
  // Tags in the partial-sector cache (objstore/sector_cache.h); 0 turns it
  // off, and every partial head or tail sector then costs a device read.
  size_t sector_cache_tags = 4096;
  kv::KvOptions kv;
  CostModel costs;
};

// The last four count the discard pipeline (kTrim): tracked trims,
// capacity movement, and reads served from the trimmed-extent map without
// touching the device.
#define VDE_STORE_STATS(C, G)                                             \
  C(transactions)                                                         \
  C(journal_bytes)                                                        \
  C(rmw_sectors)           /* partial-sector RMW device reads (misses) */ \
  C(sector_cache_hits)     /* partial-sector RMWs served from cache */    \
  C(apply_sectors_written) /* final-location data-path sectors */         \
  C(clones)                                                               \
  C(objects_created)                                                      \
  C(trim_ops)              /* kTrim ops applied */                        \
  C(bytes_trimmed)         /* logical bytes newly entered the map */      \
  C(bytes_restored)        /* punched bytes re-backed by later writes */  \
  C(trimmed_reads)         /* kRead ops served entirely from the map */

struct StoreStats {
  VDE_STATS(StoreStats, VDE_STORE_STATS)
};

// Allocator capacity gauges (point-in-time, not counters): what a TRIM
// actually reclaimed and how fragmented the pools are.
#define VDE_STORE_SPACE(C, G)                                              \
  G(total_bytes)                                                           \
  G(free_bytes)        /* general pool + punched (TRIMmed) capacity */     \
  G(punched_bytes)     /* capacity released by kTrim, owner-reclaimable */ \
  G(fragments)         /* general free-pool extents */                     \
  G(punched_fragments) /* punched-pool extents */

struct StoreSpace {
  VDE_STATS(StoreSpace, VDE_STORE_SPACE)
};

class ObjectStore : public std::enable_shared_from_this<ObjectStore> {
 public:
  // The store partitions `device` and shares its ownership: background
  // appliers keep both alive until their device charges finish, so callers
  // may drop the store at any time without use-after-free.
  static sim::Task<Result<std::shared_ptr<ObjectStore>>> Open(
      std::shared_ptr<dev::NvmeDevice> device, StoreConfig config);

  // Atomically applies `txn` under `snapc` (write-class ops only). Stores
  // applying the same replicated write pass the same `share`.
  sim::Task<Status> Apply(const Transaction& txn, const SnapContext& snapc,
                          PageShare* share = nullptr);

  // Executes read-class ops (kRead / kOmapGetRange) against `snap`.
  sim::Task<Result<ReadResult>> ExecuteRead(const Transaction& txn,
                                            SnapId snap);

  // Object metadata queries (tests/examples).
  bool ObjectExists(const std::string& oid) const;
  uint64_t ObjectSize(const std::string& oid) const;
  size_t CloneCount(const std::string& oid) const;
  // Bytes of `oid` currently in the trimmed-extent map (tests/benches).
  uint64_t TrimmedBytes(const std::string& oid) const;
  // The map's (offset, length) ranges, in order (tests).
  std::vector<IntervalMap::Interval> TrimmedRanges(
      const std::string& oid) const;

  // Capacity gauges for the object-data allocator.
  StoreSpace space() const;

  // --- Attack-surface hooks (tests/benches only) ---
  //
  // Model an attacker with raw access to the backing store: overwrite a
  // byte range of the live object's data extent, or replace an OMAP row,
  // WITHOUT going through the transaction path (no journal, no trimmed-map
  // bookkeeping — exactly what tampering below the client looks like).
  Status TamperObjectData(const std::string& oid, uint64_t offset,
                          ByteSpan data);
  sim::Task<Status> TamperOmapRow(const std::string& oid, ByteSpan key,
                                  Bytes value);

  // Peek counterparts (same raw access, read direction): capture the live
  // bytes of an object's data extent or an OMAP row without charging any
  // IO — the attacker snapshotting state to replay later.
  Result<Bytes> PeekObjectData(const std::string& oid, uint64_t offset,
                               size_t length) const;
  // Holders of the device page under byte `offset` of the live object
  // (0 for a hole): how many replicas share that page.
  Result<uint32_t> PeekPageRefs(const std::string& oid, uint64_t offset) const;
  sim::Task<Result<Bytes>> PeekOmapRow(const std::string& oid, ByteSpan key);

  // Waits until all background appliers finished (test determinism).
  sim::Task<void> Drain();

  const StoreStats& stats() const { return stats_; }
  dev::NvmeDevice& device() { return *device_; }
  kv::KvStore& kv_store() { return *kv_; }

 private:
  // Trimmed-extent map: object-relative byte ranges that read as zeros
  // without device IO (util/interval_map.h keeps it disjoint/coalesced).
  using TrimmedMap = IntervalMap;

  struct Clone {
    SnapId covers_up_to;  // newest snap id this clone serves
    uint64_t base;        // data extent base (data-region relative)
    uint64_t size;        // logical bytes captured
    TrimmedMap trimmed;   // trimmed state frozen at clone time
  };

  struct Onode {
    uint64_t base = 0;       // data-region-relative extent base
    uint64_t size = 0;       // logical object size (highest written byte)
    uint64_t head_seq = 0;   // snapc.seq at last write
    std::vector<Clone> clones;  // sorted by covers_up_to ascending
    TrimmedMap trimmed;      // ranges discarded via kTrim
  };

  ObjectStore(std::shared_ptr<dev::NvmeDevice> device, StoreConfig config);

  sim::Task<Status> Init();
  Result<Onode*> GetOrCreate(const std::string& oid);
  // Per-object lock (RADOS orders ops per object): transactions are
  // exclusive — an Onode reference held across a suspension point cannot
  // be invalidated by a concurrent remove, and readers never observe a
  // half-applied multi-op transaction (data punched, IVs not yet) — while
  // reads share, so read-only load stays fully parallel.
  sim::SharedLock& ObjectLock(const std::string& oid);
  // Drops `oid`'s lock entry when the object is gone and the lock is idle.
  void MaybePruneLock(const std::string& oid);
  sim::Task<Status> ApplyLocked(const Transaction& txn,
                                const SnapContext& snapc, PageShare* share);
  // Drops one applied (or failed) journal frame and releases the journal
  // memory below the oldest frame still unapplied.
  void RetireJournalFrame(std::multiset<uint64_t>::iterator frame);
  sim::Task<Result<ReadResult>> ExecuteReadLocked(const Transaction& txn,
                                                  SnapId snap);
  sim::Task<Status> MaybeClone(const std::string& oid, Onode& node,
                               const SnapContext& snapc,
                               obs::TraceContext* trace);
  // The one commit step for every store kv write (OMAP set, the remove's
  // head-row drop, the clone's row copy, a tampered row): takes the kv
  // lane, charges `cpu_cost` on the least-busy core and writes `batch`
  // under a kDevice span. The kv store takes concurrent writers (a flush
  // waits for the writes in flight); the lane is the model of BlueStore's
  // single kv_sync_thread, so the OMAP layout's per-key cost queues here.
  sim::Task<Status> KvCommit(kv::WriteBatch batch, sim::SimTime cpu_cost,
                             obs::TraceContext* trace);
  // Spawns the background charge of a data write to [abs_offset, +length):
  // each partial head or tail sector the sector cache misses is read first.
  void SpawnApplyCharge(uint64_t abs_offset, uint64_t length);
  // Caches the sectors [abs_offset, +length) covers partially (its edges).
  void CachePartialSectors(uint64_t abs_offset, uint64_t length);
  // Forgets the cached sectors a discard of [abs_offset, +length) covers
  // whole.
  void DropCachedSectors(uint64_t abs_offset, uint64_t length);
  // Static + shared self: the spawned frame owns a reference to the store
  // (and transitively the device), decoupling background charges from the
  // caller's lifetime.
  static sim::Task<void> ChargeApply(std::shared_ptr<ObjectStore> self,
                                     uint64_t abs_offset, uint64_t length,
                                     bool read_head, bool read_tail);
  static sim::Task<void> ChargeExtent(std::shared_ptr<ObjectStore> self,
                                      bool is_write, uint64_t abs_offset,
                                      uint64_t length);
  Bytes OmapKey(const std::string& oid, SnapId snap, ByteSpan user_key) const;

  std::shared_ptr<dev::NvmeDevice> device_;
  StoreConfig config_;
  uint64_t kv_base_ = 0;
  uint64_t data_base_ = 0;
  std::unique_ptr<dev::RegionDevice> journal_region_;
  std::unique_ptr<dev::RegionDevice> kv_region_;
  std::unique_ptr<kv::Wal> journal_;
  std::multiset<uint64_t> journal_unapplied_;  // start offsets of frames
  uint64_t journal_released_ = 0;  // journal bytes below hold no memory
  std::unique_ptr<kv::KvStore> kv_;
  std::unique_ptr<dev::ExtentAllocator> alloc_;
  SectorCache sector_cache_;
  std::map<std::string, Onode> objects_;
  std::map<std::string, std::unique_ptr<sim::SharedLock>> object_locks_;
  sim::WaitGroup appliers_{0};
  // Single kv commit thread, like BlueStore's kv_sync_thread: every store
  // kv write serializes here (KvCommit) and charges on any core.
  sim::Semaphore kv_lane_{1};
  StoreStats stats_;
};

}  // namespace vde::objstore
