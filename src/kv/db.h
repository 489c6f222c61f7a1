// KvStore: a small LSM database over one device region.
//
// Role in the reproduction: Ceph implements per-object OMAP on RocksDB; the
// paper's OMAP IV layout therefore pays RocksDB's cost structure. This store
// reproduces that structure honestly — every WAL commit, memtable flush and
// compaction issues real (simulated-time-charged) device IO, so the OMAP
// curve in Fig. 3b/4 *emerges* instead of being hard-coded.
//
// Region layout: [superblock sector | WAL region | table extents].
// Levels: L0 = newest-first overlapping tables; L1 = one fully-merged table.
// Compaction merges everything into L1 when L0 fills (tiered-to-full; simple
// and adequate for OMAP-scale databases — documented limit, not a surprise).
//
// Reads pin their table set. A flush publishes a new set with one more L0
// table; a compaction publishes its merged rows, held in memory, before it
// writes L1, then the set of that one table. A Get or Scan keeps reading
// the set it started with across its device reads, and a table's extent
// returns to the allocator only when the last holder (the current set, or
// a read still on an older one) drops it. With no read in flight that is
// the moment the set is replaced, so placement is the same as freeing
// eagerly. The store must outlive its reads.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "device/block_device.h"
#include "device/extent_allocator.h"
#include "device/region.h"
#include "kv/memtable.h"
#include "kv/options.h"
#include "kv/sstable.h"
#include "kv/wal.h"
#include "kv/write_batch.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "util/status.h"

namespace vde::kv {

class KvStore {
 public:
  // Opens (or initializes) a store on `region`. The region must outlive the
  // store.
  static sim::Task<Result<std::unique_ptr<KvStore>>> Open(
      dev::BlockDevice& region, KvOptions options);

  ~KvStore() = default;
  KvStore(const KvStore&) = delete;
  KvStore& operator=(const KvStore&) = delete;

  // Atomically applies all ops in `batch` (single WAL frame).
  sim::Task<Status> Write(WriteBatch batch);

  sim::Task<Status> Put(Bytes key, Bytes value);
  sim::Task<Status> Delete(Bytes key);

  // Point lookup; nullopt when absent or deleted.
  sim::Task<Result<std::optional<Bytes>>> Get(Bytes key);

  // Ordered scan of [start, end); end empty = unbounded. `limit` 0 = all.
  sim::Task<Result<std::vector<std::pair<Bytes, Bytes>>>> Scan(
      Bytes start, Bytes end, size_t limit = 0);

  // Ordered scan of every key starting with `prefix` (the exclusive upper
  // bound is derived internally; an empty or all-0xFF prefix scans to the
  // end of the keyspace). `limit` 0 = all.
  sim::Task<Result<std::vector<std::pair<Bytes, Bytes>>>> ScanPrefix(
      Bytes prefix, size_t limit = 0);

  // Forces the memtable out to an L0 table (no-op when empty).
  sim::Task<Status> Flush();

  const KvStats& stats() const { return stats_; }
  size_t l0_tables() const { return tables_->l0.size(); }
  bool has_l1() const { return tables_->l1 != nullptr; }
  size_t memtable_bytes() const { return mem_->bytes(); }

 private:
  // One table and the extent that holds it, freed with the table.
  struct Table {
    Table(std::unique_ptr<SSTable> sst, uint64_t offset, uint64_t length,
          dev::ExtentAllocator& alloc)
        : sst(std::move(sst)), offset(offset), length(length), alloc(alloc) {}
    ~Table() { alloc.Free(offset, length); }
    Table(const Table&) = delete;
    Table& operator=(const Table&) = delete;

    std::unique_ptr<SSTable> sst;
    uint64_t offset;
    uint64_t length;
    dev::ExtentAllocator& alloc;
  };
  // A published table set, never modified: L0 newest first, then L1 (null
  // when absent). While a compaction writes its L1 table, the set holds
  // only the merged rows it is writing (tombstones read as absent).
  struct Tables {
    std::vector<std::shared_ptr<Table>> l0;
    std::shared_ptr<Table> l1;
    std::shared_ptr<const std::map<Bytes, TableEntry>> compacting;
  };

  KvStore(dev::BlockDevice& region, KvOptions options);

  sim::Task<Status> Init();
  sim::Task<Status> Recover(ByteSpan superblock);
  sim::Task<Status> WriteSuperblock();
  bool FlushDue() const;
  sim::Task<Status> MaybeFlush();
  // Flush with flush_gate_ held exclusive: no write is between its WAL
  // append and its memtable insert.
  sim::Task<Status> FlushLocked();
  sim::Task<Status> Compact();
  sim::Task<Result<std::shared_ptr<Table>>> WriteTable(
      SSTableBuilder& builder);

  void ApplyToMemtable(const WriteBatch& batch);

  dev::BlockDevice& region_;
  KvOptions options_;
  uint64_t wal_offset_;
  uint64_t data_offset_;
  std::unique_ptr<dev::RegionDevice> wal_region_;
  std::unique_ptr<Wal> wal_;
  std::unique_ptr<dev::ExtentAllocator> alloc_;
  std::unique_ptr<MemTable> mem_;
  // Declared after alloc_: dropping the last set frees into it.
  std::shared_ptr<const Tables> tables_ = std::make_shared<const Tables>();
  // Writes hold it shared from WAL append to memtable insert, flushes
  // exclusive: a flush never swaps out a memtable, or resets a WAL
  // generation, that a write in flight still lands in.
  sim::SharedLock flush_gate_;
  KvStats stats_;
};

}  // namespace vde::kv
