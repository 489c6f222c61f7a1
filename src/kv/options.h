// Tuning knobs and counters for the LSM key-value store.
#pragma once

#include <cstddef>
#include <cstdint>

namespace vde::kv {

struct KvOptions {
  // WAL region size; a full WAL forces a memtable flush.
  uint64_t wal_size = 4ull << 20;
  // Flush the memtable once it holds this many bytes of keys+values.
  uint64_t memtable_limit = 4ull << 20;
  // Merge L0 into L1 once this many L0 tables accumulate.
  size_t l0_compaction_trigger = 4;
  // Target data-block size inside SSTables.
  size_t block_size = 8 * 1024;
};

struct KvStats {
  uint64_t wal_bytes = 0;
  uint64_t wal_commits = 0;
  uint64_t flushes = 0;
  uint64_t bytes_flushed = 0;
  uint64_t compactions = 0;
  uint64_t bytes_compacted = 0;
  uint64_t bloom_skips = 0;
};

}  // namespace vde::kv
