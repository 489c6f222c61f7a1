#include "kv/sstable.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "util/crc32.h"

namespace vde::kv {

namespace {

constexpr uint64_t kTableMagic = 0x56444553535441ULL;  // "VDESSTA"

int Compare(ByteSpan a, ByteSpan b) {
  const size_t n = std::min(a.size(), b.size());
  const int c = n == 0 ? 0 : std::memcmp(a.data(), b.data(), n);
  if (c != 0) return c;
  return a.size() < b.size() ? -1 : (a.size() > b.size() ? 1 : 0);
}

// Meta blob layout:
// [entries u64][nblocks u32]
//   per block: [klen u16][last_key][offset u64][len u32]
// [bloom_hashes u32][bloom_len u32][bloom]
// [min_klen u16][min_key][max_klen u16][max_key]
Bytes SerializeMeta(const TableMeta& meta) {
  Bytes out;
  AppendU64Le(out, meta.entries);
  AppendU32Le(out, static_cast<uint32_t>(meta.index.size()));
  for (const auto& b : meta.index) {
    AppendU16Le(out, static_cast<uint16_t>(b.last_key.size()));
    AppendBytes(out, b.last_key);
    AppendU64Le(out, b.offset);
    AppendU32Le(out, b.length);
  }
  AppendU32Le(out, static_cast<uint32_t>(meta.bloom_hashes));
  AppendU32Le(out, static_cast<uint32_t>(meta.bloom.size()));
  AppendBytes(out, meta.bloom);
  AppendU16Le(out, static_cast<uint16_t>(meta.min_key.size()));
  AppendBytes(out, meta.min_key);
  AppendU16Le(out, static_cast<uint16_t>(meta.max_key.size()));
  AppendBytes(out, meta.max_key);
  return out;
}

// Every index block ref must lie inside the data area [0, data_end):
// ReadBlock sizes its buffer from the ref.
Result<TableMeta> DeserializeMeta(ByteSpan blob, uint64_t data_end) {
  const Status truncated = Status::Corruption("truncated table meta");
  TableMeta meta;
  ByteReader in(blob);
  uint32_t nblocks = 0;
  if (!in.U64(&meta.entries) || !in.U32(&nblocks)) return truncated;
  for (uint32_t i = 0; i < nblocks; ++i) {
    uint16_t klen = 0;
    ByteSpan key;
    TableMeta::BlockRef ref;
    if (!in.U16(&klen) || !in.Span(klen, &key) || !in.U64(&ref.offset) ||
        !in.U32(&ref.length)) {
      return truncated;
    }
    if (ref.offset > data_end || ref.length > data_end - ref.offset) {
      return Status::Corruption("table block out of range");
    }
    ref.last_key.assign(key.begin(), key.end());
    meta.index.push_back(std::move(ref));
  }
  uint32_t bloom_hashes = 0, bloom_len = 0;
  ByteSpan bloom;
  if (!in.U32(&bloom_hashes) || !in.U32(&bloom_len) ||
      !in.Span(bloom_len, &bloom)) {
    return truncated;
  }
  meta.bloom_hashes = bloom_hashes;
  meta.bloom.assign(bloom.begin(), bloom.end());
  for (Bytes* key : {&meta.min_key, &meta.max_key}) {
    uint16_t klen = 0;
    ByteSpan bytes;
    if (!in.U16(&klen) || !in.Span(klen, &bytes)) return truncated;
    key->assign(bytes.begin(), bytes.end());
  }
  return meta;
}

}  // namespace

// --- Builder ---

SSTableBuilder::SSTableBuilder(const KvOptions& options) : options_(options) {}

void SSTableBuilder::Add(ByteSpan key, ByteSpan value, bool tombstone) {
  assert(!have_last_key_ || Compare(last_key_, key) < 0);
  if (!have_last_key_) min_key_.assign(key.begin(), key.end());
  last_key_.assign(key.begin(), key.end());
  have_last_key_ = true;

  AppendU16Le(block_, static_cast<uint16_t>(key.size()));
  AppendU32Le(block_, static_cast<uint32_t>(value.size()));
  AppendU8(block_, tombstone ? 1 : 0);
  AppendBytes(block_, key);
  AppendBytes(block_, value);
  last_key_in_block_ = last_key_;
  entries_++;
  key_hashes_.push_back(SSTable::BloomHash(key));

  if (block_.size() >= options_.block_size) CutBlock();
}

void SSTableBuilder::CutBlock() {
  if (block_.empty()) return;
  index_.push_back(TableMeta::BlockRef{
      last_key_in_block_, data_.size(), static_cast<uint32_t>(block_.size())});
  AppendBytes(data_, block_);
  block_.clear();
}

SSTableBuilder::Built SSTableBuilder::Finish(uint32_t sector_size) {
  CutBlock();

  TableMeta meta;
  meta.index = std::move(index_);
  meta.entries = entries_;
  meta.min_key = std::move(min_key_);
  meta.max_key = last_key_;

  // Bloom filter over all keys.
  if (options_.bloom_bits_per_key > 0 && !key_hashes_.empty()) {
    const size_t bits =
        std::max<size_t>(64, key_hashes_.size() * options_.bloom_bits_per_key);
    meta.bloom.assign((bits + 7) / 8, 0);
    meta.bloom_hashes = std::max<size_t>(
        1, std::min<size_t>(8, options_.bloom_bits_per_key * 69 / 100));
    for (uint32_t h : key_hashes_) {
      const uint32_t delta = (h >> 17) | (h << 15);
      for (size_t k = 0; k < meta.bloom_hashes; ++k) {
        const size_t bit = h % (meta.bloom.size() * 8);
        meta.bloom[bit / 8] |= static_cast<uint8_t>(1u << (bit % 8));
        h += delta;
      }
    }
  }

  Bytes image = std::move(data_);
  const Bytes meta_blob = SerializeMeta(meta);
  const uint64_t meta_off = image.size();
  AppendBytes(image, meta_blob);

  // Footer in its own final sector: [magic][meta_off][meta_len][crc].
  const size_t body_sectors =
      (image.size() + sector_size - 1) / sector_size;
  image.resize(body_sectors * sector_size, 0);
  Bytes footer;
  AppendU64Le(footer, kTableMagic);
  AppendU64Le(footer, meta_off);
  AppendU64Le(footer, meta_blob.size());
  AppendU32Le(footer, Crc32c(meta_blob));
  footer.resize(sector_size, 0);
  AppendBytes(image, footer);

  return Built{std::move(image), std::move(meta)};
}

// --- Reader ---

SSTable::SSTable(dev::BlockDevice& device, uint64_t table_offset,
                 TableMeta meta)
    : device_(device), table_offset_(table_offset), meta_(std::move(meta)) {}

uint32_t SSTable::BloomHash(ByteSpan key) {
  // CRC-based double hashing; not cryptographic, just well-spread.
  return Crc32c(key, 0xB100F11E);
}

bool SSTable::BloomMayContain(const TableMeta& meta, ByteSpan key) {
  if (meta.bloom.empty()) return true;
  uint32_t h = BloomHash(key);
  const uint32_t delta = (h >> 17) | (h << 15);
  for (size_t k = 0; k < meta.bloom_hashes; ++k) {
    const size_t bit = h % (meta.bloom.size() * 8);
    if ((meta.bloom[bit / 8] & (1u << (bit % 8))) == 0) return false;
    h += delta;
  }
  return true;
}

sim::Task<Result<std::unique_ptr<SSTable>>> SSTable::Open(
    dev::BlockDevice& device, uint64_t table_offset, uint64_t table_length) {
  const uint32_t sector = device.sector_size();
  if (table_length < sector) co_return Status::Corruption("table too small");
  Bytes footer(sector);
  {
    Status s =
        co_await device.Read(table_offset + table_length - sector, footer);
    if (!s.ok()) co_return s;
  }
  if (LoadU64Le(footer.data()) != kTableMagic) {
    co_return Status::Corruption("bad table magic");
  }
  const uint64_t meta_off = LoadU64Le(footer.data() + 8);
  const uint64_t meta_len = LoadU64Le(footer.data() + 16);
  const uint32_t crc = LoadU32Le(footer.data() + 24);
  const uint64_t body = table_length - sector;
  if (meta_off > body || meta_len > body - meta_off) {
    co_return Status::Corruption("meta out of range");
  }
  // Read the sectors covering the meta blob.
  const uint64_t first = meta_off / sector * sector;
  const uint64_t last = (meta_off + meta_len + sector - 1) / sector * sector;
  Bytes raw(last - first);
  {
    Status s = co_await device.Read(table_offset + first, raw);
    if (!s.ok()) co_return s;
  }
  const ByteSpan blob(raw.data() + (meta_off - first), meta_len);
  if (Crc32c(blob) != crc) co_return Status::Corruption("meta crc");
  auto meta = DeserializeMeta(blob, meta_off);
  if (!meta.ok()) co_return meta.status();
  co_return std::make_unique<SSTable>(device, table_offset,
                                      std::move(meta).value());
}

sim::Task<Result<Bytes>> SSTable::ReadBlock(const TableMeta::BlockRef& ref) {
  const uint32_t sector = device_.sector_size();
  const uint64_t first = ref.offset / sector * sector;
  const uint64_t last =
      (ref.offset + ref.length + sector - 1) / sector * sector;
  Bytes raw(last - first);
  {
    Status s = co_await device_.Read(table_offset_ + first, raw);
    if (!s.ok()) co_return s;
  }
  co_return Bytes(raw.begin() + static_cast<long>(ref.offset - first),
                  raw.begin() + static_cast<long>(ref.offset - first + ref.length));
}

Status SSTable::ParseBlock(ByteSpan block, std::vector<TableEntry>& out) {
  // Data blocks carry no checksum of their own: every length is checked
  // against the block before it is trusted.
  ByteReader in(block);
  while (!in.empty()) {
    uint16_t klen = 0;
    uint32_t vlen = 0;
    uint8_t tombstone = 0;
    ByteSpan key, value;
    if (!in.U16(&klen) || !in.U32(&vlen) || !in.U8(&tombstone) ||
        !in.Span(klen, &key) || !in.Span(vlen, &value)) {
      return Status::Corruption("truncated table block entry");
    }
    out.push_back(TableEntry{Bytes(key.begin(), key.end()),
                             Bytes(value.begin(), value.end()),
                             tombstone != 0});
  }
  return Status::Ok();
}

sim::Task<Result<std::optional<TableEntry>>> SSTable::Get(ByteSpan key,
                                                          KvStats* stats) {
  if (meta_.index.empty() || Compare(key, meta_.min_key) < 0 ||
      Compare(key, meta_.max_key) > 0) {
    co_return std::optional<TableEntry>{};
  }
  if (!BloomMayContain(meta_, key)) {
    if (stats) stats->bloom_skips++;
    co_return std::optional<TableEntry>{};
  }
  // First block whose last_key >= key.
  const auto it = std::lower_bound(
      meta_.index.begin(), meta_.index.end(), key,
      [](const TableMeta::BlockRef& ref, ByteSpan k) {
        return Compare(ref.last_key, k) < 0;
      });
  if (it == meta_.index.end()) co_return std::optional<TableEntry>{};
  auto block = co_await ReadBlock(*it);
  if (!block.ok()) co_return block.status();
  std::vector<TableEntry> entries;
  VDE_CO_RETURN_IF_ERROR(ParseBlock(*block, entries));
  for (auto& e : entries) {
    if (Compare(e.key, key) == 0) co_return std::optional<TableEntry>{std::move(e)};
  }
  co_return std::optional<TableEntry>{};
}

sim::Task<Result<std::vector<TableEntry>>> SSTable::Scan(ByteSpan start,
                                                         ByteSpan end) {
  std::vector<TableEntry> out;
  if (meta_.index.empty()) co_return out;
  // First candidate block: last_key >= start.
  auto it = start.empty()
                ? meta_.index.begin()
                : std::lower_bound(meta_.index.begin(), meta_.index.end(),
                                   start,
                                   [](const TableMeta::BlockRef& ref,
                                      ByteSpan k) {
                                     return Compare(ref.last_key, k) < 0;
                                   });
  for (; it != meta_.index.end(); ++it) {
    auto block = co_await ReadBlock(*it);
    if (!block.ok()) co_return block.status();
    std::vector<TableEntry> entries;
    VDE_CO_RETURN_IF_ERROR(ParseBlock(*block, entries));
    bool past_end = false;
    for (auto& e : entries) {
      if (!start.empty() && Compare(e.key, start) < 0) continue;
      if (!end.empty() && Compare(e.key, end) >= 0) {
        past_end = true;
        break;
      }
      out.push_back(std::move(e));
    }
    if (past_end) break;
  }
  co_return out;
}

}  // namespace vde::kv
