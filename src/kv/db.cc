#include "kv/db.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <map>

#include "device/region.h"
#include "util/crc32.h"

namespace vde::kv {

namespace {

constexpr uint64_t kSuperMagic = 0x564445534B5653ULL;  // "VDESKVS"

// Modeled CPU cost charged per key touched (RocksDB-like insert/seek cost).
constexpr sim::SimTime kCpuPerKey = 1200;  // 1.2 us

}  // namespace

KvStore::KvStore(dev::BlockDevice& region, KvOptions options)
    : region_(region), options_(options) {
  const uint32_t sector = region.sector_size();
  wal_offset_ = sector;  // superblock occupies sector 0
  data_offset_ = wal_offset_ + options_.wal_size;
  assert(data_offset_ < region.capacity_bytes() &&
         "KV region too small for WAL");
}

sim::Task<Result<std::unique_ptr<KvStore>>> KvStore::Open(
    dev::BlockDevice& region, KvOptions options) {
  std::unique_ptr<KvStore> store(new KvStore(region, options));
  Bytes super(region.sector_size());
  {
    Status s = co_await region.Read(0, super);
    if (!s.ok()) co_return s;
  }
  if (LoadU64Le(super.data()) == kSuperMagic) {
    Status s = co_await store->Recover(super);
    if (!s.ok()) co_return s;
  } else {
    Status s = co_await store->Init();
    if (!s.ok()) co_return s;
  }
  co_return store;
}

sim::Task<Status> KvStore::Init() {
  wal_region_ = std::make_unique<dev::RegionDevice>(region_, wal_offset_,
                                                    options_.wal_size);
  wal_ = std::make_unique<Wal>(*wal_region_, /*generation=*/1);
  alloc_ = std::make_unique<dev::ExtentAllocator>(
      region_.capacity_bytes() - data_offset_, region_.sector_size());
  mem_ = std::make_unique<MemTable>();
  co_return co_await WriteSuperblock();
}

// Superblock: [magic u64][wal_gen u64][n_tables u32]
//   per table (L0 newest first, then optionally L1): [level u8][off][len]
// [crc u32 over the above]
sim::Task<Status> KvStore::WriteSuperblock() {
  Bytes blob;
  AppendU64Le(blob, kSuperMagic);
  AppendU64Le(blob, wal_->generation());
  const Tables& tables = *tables_;
  const uint32_t n =
      static_cast<uint32_t>(tables.l0.size()) + (tables.l1 ? 1u : 0u);
  AppendU32Le(blob, n);
  const auto entry = [&blob](uint8_t level, const Table& t) {
    AppendU8(blob, level);
    AppendU64Le(blob, t.offset);
    AppendU64Le(blob, t.length);
  };
  for (const auto& t : tables.l0) entry(0, *t);
  if (tables.l1) entry(1, *tables.l1);
  AppendU32Le(blob, Crc32c(blob));
  assert(blob.size() <= region_.sector_size() &&
         "manifest exceeds superblock sector");
  blob.resize(region_.sector_size(), 0);
  co_return co_await region_.Write(0, blob);
}

sim::Task<Status> KvStore::Recover(ByteSpan super) {
  // The table count sizes the CRC-covered manifest; no entry is trusted
  // before the CRC holds.
  ByteReader in(super);
  ByteReader whole(super);
  uint64_t magic = 0, wal_gen = 0;
  uint32_t n = 0, crc = 0;
  ByteSpan manifest;
  if (!in.U64(&magic) || !in.U64(&wal_gen) || !in.U32(&n) ||
      !whole.Span(20 + size_t{n} * 17, &manifest) || !whole.U32(&crc)) {
    co_return Status::Corruption("manifest size");
  }
  if (Crc32c(manifest) != crc) co_return Status::Corruption("superblock crc");

  wal_region_ = std::make_unique<dev::RegionDevice>(region_, wal_offset_,
                                                    options_.wal_size);
  wal_ = std::make_unique<Wal>(*wal_region_, wal_gen);
  mem_ = std::make_unique<MemTable>();

  struct Entry {
    uint8_t level = 0;
    uint64_t offset = 0;
    uint64_t length = 0;
  };
  std::vector<Entry> entries(n);
  for (Entry& e : entries) {
    if (!in.U8(&e.level) || !in.U64(&e.offset) || !in.U64(&e.length)) {
      co_return Status::Corruption("manifest entry");  // inside the CRC
    }
  }
  // Rebuild the allocator: mark table extents as used by consuming the
  // whole space, then freeing the gaps between (sorted) extents. The tables
  // opened below own their extents from here on.
  {
    std::vector<std::pair<uint64_t, uint64_t>> live;
    for (const Entry& e : entries) live.emplace_back(e.offset, e.length);
    std::sort(live.begin(), live.end());
    const uint64_t total = region_.capacity_bytes() - data_offset_;
    alloc_ = std::make_unique<dev::ExtentAllocator>(total,
                                                    region_.sector_size());
    uint64_t cursor = 0;
    std::vector<std::pair<uint64_t, uint64_t>> gaps;
    for (const auto& [o, l] : live) {
      if (o > cursor) gaps.emplace_back(cursor, o - cursor);
      cursor = o + ((l + region_.sector_size() - 1) / region_.sector_size()) *
                       region_.sector_size();
    }
    if (cursor < total) gaps.emplace_back(cursor, total - cursor);
    if (total > 0) (void)alloc_->Allocate(total);  // consume everything
    for (const auto& [o, l] : gaps) alloc_->Free(o, l);
  }
  auto tables = std::make_shared<Tables>();
  for (const Entry& e : entries) {
    auto sst = co_await SSTable::Open(region_, data_offset_ + e.offset,
                                      e.length);
    if (!sst.ok()) co_return sst.status();
    auto t = std::make_shared<Table>(std::move(sst).value(), e.offset,
                                     e.length, *alloc_);
    if (e.level == 0) {
      tables->l0.push_back(std::move(t));
    } else {
      tables->l1 = std::move(t);  // a later L1 entry supersedes (and frees)
    }
  }
  tables_ = std::move(tables);

  // Replay the WAL into the memtable.
  auto frames = co_await wal_->Recover();
  if (!frames.ok()) co_return frames.status();
  for (const Bytes& frame : *frames) {
    auto batch = WriteBatch::Deserialize(frame);
    if (!batch.ok()) co_return batch.status();
    ApplyToMemtable(*batch);
  }
  co_return Status::Ok();
}

void KvStore::ApplyToMemtable(const WriteBatch& batch) {
  for (const auto& op : batch.ops()) {
    if (op.type == WriteBatch::OpType::kPut) {
      mem_->Put(op.key, op.value);
    } else {
      mem_->Delete(op.key);
    }
  }
}

sim::Task<Status> KvStore::Write(WriteBatch batch) {
  if (batch.empty()) co_return Status::Ok();
  const Bytes frame = batch.Serialize();
  // The frame and its rows land in one WAL generation and one memtable: a
  // flush waits for this write, and this write waits for a flush under way.
  co_await flush_gate_.AcquireShared();
  Status s = co_await wal_->Append(frame);
  if (s.code() == StatusCode::kOutOfSpace) {
    flush_gate_.ReleaseShared();
    VDE_CO_RETURN_IF_ERROR(co_await Flush());
    co_await flush_gate_.AcquireShared();
    s = co_await wal_->Append(frame);
  }
  if (!s.ok()) {
    flush_gate_.ReleaseShared();
    co_return s;
  }
  ApplyToMemtable(batch);
  flush_gate_.ReleaseShared();
  stats_.wal_bytes += frame.size();
  stats_.wal_commits++;
  // Modeled per-key CPU cost (RocksDB insert path).
  co_await sim::Sleep{kCpuPerKey * batch.size()};
  co_return co_await MaybeFlush();
}

sim::Task<Status> KvStore::Put(Bytes key, Bytes value) {
  WriteBatch b;
  b.Put(std::move(key), std::move(value));
  co_return co_await Write(std::move(b));
}

sim::Task<Status> KvStore::Delete(Bytes key) {
  WriteBatch b;
  b.Delete(std::move(key));
  co_return co_await Write(std::move(b));
}

bool KvStore::FlushDue() const {
  return mem_->bytes() >= options_.memtable_limit ||
         wal_->fill_fraction() > 0.9;
}

sim::Task<Status> KvStore::MaybeFlush() {
  if (!FlushDue()) co_return Status::Ok();
  co_await flush_gate_.AcquireExclusive();
  // A flush that ran while this one waited may have emptied the memtable.
  Status s = Status::Ok();
  if (FlushDue()) s = co_await FlushLocked();
  flush_gate_.ReleaseExclusive();
  co_return s;
}

sim::Task<Result<std::shared_ptr<KvStore::Table>>> KvStore::WriteTable(
    SSTableBuilder& builder) {
  auto built = builder.Finish(region_.sector_size());
  auto extent = alloc_->Allocate(built.image.size());
  if (!extent.ok()) co_return extent.status();
  const uint64_t offset = *extent;
  {
    Status s = co_await region_.Write(data_offset_ + offset, built.image);
    if (!s.ok()) co_return s;
  }
  co_return std::make_shared<Table>(
      std::make_unique<SSTable>(region_, data_offset_ + offset,
                                std::move(built.meta)),
      offset, built.image.size(), *alloc_);
}

sim::Task<Status> KvStore::Flush() {
  co_await flush_gate_.AcquireExclusive();
  Status s = co_await FlushLocked();
  flush_gate_.ReleaseExclusive();
  co_return s;
}

sim::Task<Status> KvStore::FlushLocked() {
  if (mem_->empty()) co_return Status::Ok();
  SSTableBuilder builder(options_);
  for (const auto& entry : mem_->ScanAll()) {
    builder.Add(entry.key, entry.value->value, entry.value->tombstone);
  }
  auto table = co_await WriteTable(builder);
  if (!table.ok()) co_return table.status();
  stats_.flushes++;
  stats_.bytes_flushed += (*table)->length;
  auto next = std::make_shared<Tables>();
  next->l0.reserve(tables_->l0.size() + 1);
  next->l0.push_back(std::move(table).value());
  next->l0.insert(next->l0.end(), tables_->l0.begin(), tables_->l0.end());
  next->l1 = tables_->l1;
  tables_ = std::move(next);
  mem_ = std::make_unique<MemTable>();
  co_await wal_->Idle();
  wal_->Reset(wal_->generation() + 1);
  VDE_CO_RETURN_IF_ERROR(co_await WriteSuperblock());
  if (tables_->l0.size() >= options_.l0_compaction_trigger) {
    co_return co_await Compact();
  }
  co_return Status::Ok();
}

sim::Task<Status> KvStore::Compact() {
  // Full merge: newest source wins; tombstones drop out at the bottom.
  auto merged = std::make_shared<std::map<Bytes, TableEntry>>();
  auto absorb = [&merged](std::vector<TableEntry> entries) {
    for (auto& e : entries) {
      merged->try_emplace(e.key, std::move(e));  // keep newest
    }
  };
  std::shared_ptr<const Tables> old = tables_;
  for (const auto& t : old->l0) {
    auto entries = co_await t->sst->Scan({}, {});
    if (!entries.ok()) co_return entries.status();
    absorb(std::move(entries).value());
  }
  if (old->l1) {
    auto entries = co_await old->l1->sst->Scan({}, {});
    if (!entries.ok()) co_return entries.status();
    absorb(std::move(entries).value());
  }

  SSTableBuilder builder(options_);
  uint64_t kept = 0;
  for (const auto& [key, entry] : *merged) {
    if (entry.tombstone) continue;  // bottom level: drop tombstones
    builder.Add(key, entry.value, false);
    kept++;
  }

  // Drop the old tables first so the new table can reuse their space (a
  // read still on them keeps their extents until it finishes). Reads that
  // start before L1 lands find the merged rows in memory.
  auto compacting = std::make_shared<Tables>();
  compacting->compacting = std::move(merged);
  tables_ = std::move(compacting);
  old.reset();

  if (kept > 0) {
    auto table = co_await WriteTable(builder);
    if (!table.ok()) co_return table.status();
    stats_.bytes_compacted += (*table)->length;
    auto next = std::make_shared<Tables>();
    next->l1 = std::move(table).value();
    tables_ = std::move(next);
  } else {
    tables_ = std::make_shared<const Tables>();
  }
  stats_.compactions++;
  co_return co_await WriteSuperblock();
}

sim::Task<Result<std::optional<Bytes>>> KvStore::Get(Bytes key) {
  co_await sim::Sleep{kCpuPerKey};
  if (const MemValue* v = mem_->Get(key)) {
    if (v->tombstone) co_return std::optional<Bytes>{};
    co_return std::optional<Bytes>{v->value};
  }
  const std::shared_ptr<const Tables> pinned = tables_;
  for (const auto& t : pinned->l0) {
    auto found = co_await t->sst->Get(key, &stats_);
    if (!found.ok()) co_return found.status();
    if (found->has_value()) {
      if ((*found)->tombstone) co_return std::optional<Bytes>{};
      co_return std::optional<Bytes>{std::move((*found)->value)};
    }
  }
  if (pinned->l1) {
    auto found = co_await pinned->l1->sst->Get(key, &stats_);
    if (!found.ok()) co_return found.status();
    if (found->has_value() && !(*found)->tombstone) {
      co_return std::optional<Bytes>{std::move((*found)->value)};
    }
  }
  if (pinned->compacting) {
    auto it = pinned->compacting->find(key);
    if (it != pinned->compacting->end() && !it->second.tombstone) {
      co_return std::optional<Bytes>{it->second.value};
    }
  }
  co_return std::optional<Bytes>{};
}

sim::Task<Result<std::vector<std::pair<Bytes, Bytes>>>> KvStore::Scan(
    Bytes start, Bytes end, size_t limit) {
  // Merge all sources, newest first.
  std::map<Bytes, TableEntry> merged;
  for (const auto& entry : mem_->Scan(start, end)) {
    TableEntry e;
    e.key.assign(entry.key.begin(), entry.key.end());
    e.value = entry.value->value;
    e.tombstone = entry.value->tombstone;
    merged.try_emplace(e.key, std::move(e));
  }
  const std::shared_ptr<const Tables> pinned = tables_;
  for (const auto& t : pinned->l0) {
    auto entries = co_await t->sst->Scan(start, end);
    if (!entries.ok()) co_return entries.status();
    for (auto& e : *entries) merged.try_emplace(e.key, std::move(e));
  }
  if (pinned->l1) {
    auto entries = co_await pinned->l1->sst->Scan(start, end);
    if (!entries.ok()) co_return entries.status();
    for (auto& e : *entries) merged.try_emplace(e.key, std::move(e));
  }
  if (pinned->compacting) {
    for (auto it = pinned->compacting->lower_bound(start);
         it != pinned->compacting->end() && (end.empty() || it->first < end);
         ++it) {
      merged.try_emplace(it->first, it->second);
    }
  }
  std::vector<std::pair<Bytes, Bytes>> out;
  for (auto& [key, entry] : merged) {
    if (entry.tombstone) continue;
    out.emplace_back(key, std::move(entry.value));
    if (limit != 0 && out.size() >= limit) break;
  }
  co_await sim::Sleep{kCpuPerKey * (out.size() + 1)};
  co_return out;
}

sim::Task<Result<std::vector<std::pair<Bytes, Bytes>>>> KvStore::ScanPrefix(
    Bytes prefix, size_t limit) {
  // Exclusive upper bound: increment the last non-0xFF byte and drop
  // everything after it. A prefix of all 0xFF bytes (or an empty one) has
  // no finite successor — scan to the end of the keyspace.
  Bytes end = prefix;
  while (!end.empty() && end.back() == 0xFF) end.pop_back();
  if (!end.empty()) end.back()++;
  co_return co_await Scan(std::move(prefix), std::move(end), limit);
}

}  // namespace vde::kv
