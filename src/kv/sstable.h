// Immutable sorted string table stored in one device extent.
//
// Layout:   [data blocks | meta blob | footer sector]
// Data block: repeated [klen u16][vlen u32][flags u8][key][value].
// Meta blob:  block index (last key + offset/len per block), bloom filter,
//             entry count — CRC-protected.
// Footer:     magic, meta offset/len, crc. One sector, at the extent end.
//
// The builder accumulates the full image in memory (tables are a few MB);
// the store writes it with a single device write. Point reads fetch just
// the sectors covering one data block.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "device/block_device.h"
#include "kv/options.h"
#include "sim/task.h"
#include "util/bytes.h"
#include "util/status.h"

namespace vde::kv {

// Key-value-liveness triple flowing through flush/compaction.
struct TableEntry {
  Bytes key;
  Bytes value;
  bool tombstone = false;
};

// In-memory metadata of an open table.
struct TableMeta {
  struct BlockRef {
    Bytes last_key;
    uint64_t offset;  // relative to table start
    uint32_t length;
  };
  std::vector<BlockRef> index;
  Bytes bloom;
  size_t bloom_hashes = 0;
  uint64_t entries = 0;
  Bytes min_key;
  Bytes max_key;
};

// Serialized-table construction.
class SSTableBuilder {
 public:
  explicit SSTableBuilder(const KvOptions& options);

  // Keys must arrive in strictly increasing order.
  void Add(ByteSpan key, ByteSpan value, bool tombstone);

  // Finalizes and returns the full table image plus its meta. The image
  // size is sector-aligned (footer occupies the final sector).
  struct Built {
    Bytes image;
    TableMeta meta;
  };
  Built Finish(uint32_t sector_size);

  uint64_t entries() const { return entries_; }
  size_t image_size_estimate() const { return data_.size(); }

 private:
  void CutBlock();

  const KvOptions& options_;
  Bytes data_;
  Bytes block_;
  Bytes last_key_in_block_;
  Bytes last_key_;
  bool have_last_key_ = false;
  std::vector<TableMeta::BlockRef> index_;
  std::vector<uint32_t> key_hashes_;  // for the bloom filter
  uint64_t entries_ = 0;
  Bytes min_key_;
};

// Read access to a table previously written at `table_offset` on `device`.
class SSTable {
 public:
  SSTable(dev::BlockDevice& device, uint64_t table_offset, TableMeta meta);

  // Loads meta from a table image on the device (recovery path).
  static sim::Task<Result<std::unique_ptr<SSTable>>> Open(
      dev::BlockDevice& device, uint64_t table_offset, uint64_t table_length);

  // Point lookup. Returns nullopt if the key is not present in this table
  // (bloom or index miss); a present tombstone returns a TableEntry with
  // tombstone=true.
  sim::Task<Result<std::optional<TableEntry>>> Get(ByteSpan key,
                                                   KvStats* stats);

  // All entries with start <= key < end (end empty = unbounded).
  sim::Task<Result<std::vector<TableEntry>>> Scan(ByteSpan start, ByteSpan end);

  const TableMeta& meta() const { return meta_; }

  // Bloom helpers shared with the builder.
  static uint32_t BloomHash(ByteSpan key);
  static bool BloomMayContain(const TableMeta& meta, ByteSpan key);

 private:
  sim::Task<Result<Bytes>> ReadBlock(const TableMeta::BlockRef& ref);
  static Status ParseBlock(ByteSpan block, std::vector<TableEntry>& out);

  dev::BlockDevice& device_;
  uint64_t table_offset_;
  TableMeta meta_;
};

}  // namespace vde::kv
