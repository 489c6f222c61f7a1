// Journal record tests: payload bytes a later discard of the same
// transaction covers become holes, a record without such an overlap keeps
// the layout it had before holes, and a decoded record applies exactly like
// the transaction it came from.
#include <gtest/gtest.h>

#include <string>

#include "../testutil.h"
#include "core/format.h"
#include "device/nvme.h"
#include "objstore/object_store.h"
#include "objstore/txn_record.h"
#include "util/rng.h"

namespace vde::objstore {
namespace {

OsdOp RangeOp(OsdOp::Type type, uint64_t offset, uint64_t length,
              Bytes data = {}) {
  OsdOp op;
  op.type = type;
  op.offset = offset;
  op.length = length;
  op.data = std::move(data);
  return op;
}

OsdOp WriteOp(uint64_t offset, Bytes data) {
  const uint64_t length = data.size();
  return RangeOp(OsdOp::Type::kWrite, offset, length, std::move(data));
}

// The record layout with no holes, written out field by field.
Bytes PlainRecord(const Transaction& txn, uint64_t seq) {
  Bytes out;
  AppendU32Le(out, static_cast<uint32_t>(txn.oid.size()));
  AppendBytes(out, BytesOf(txn.oid));
  AppendU64Le(out, seq);
  AppendU32Le(out, static_cast<uint32_t>(txn.ops.size()));
  for (const OsdOp& op : txn.ops) {
    AppendU8(out, static_cast<uint8_t>(op.type));
    AppendU64Le(out, op.offset);
    AppendU64Le(out, op.length);
    AppendU32Le(out, static_cast<uint32_t>(op.data.size()));
    AppendBytes(out, op.data);
    AppendU32Le(out, static_cast<uint32_t>(op.omap_kvs.size()));
    for (const auto& [k, v] : op.omap_kvs) {
      AppendU16Le(out, static_cast<uint16_t>(k.size()));
      AppendBytes(out, k);
      AppendU32Le(out, static_cast<uint32_t>(v.size()));
      AppendBytes(out, v);
    }
  }
  return out;
}

constexpr uint64_t kMaxObject = StoreConfig{}.max_object_size;

// Without a discard after a write, the record is the plain layout byte for
// byte; a discard before the write leaves no hole either.
TEST(TxnRecord, NoLaterDiscardKeepsThePlainLayout) {
  Rng rng(1);
  Transaction txn;
  txn.oid = "rbd_data.1";
  txn.ops.push_back(RangeOp(OsdOp::Type::kTrim, 0, 8192));
  txn.ops.push_back(WriteOp(100, rng.RandomBytes(5000)));
  txn.ops.push_back(RangeOp(OsdOp::Type::kWriteFull, 0, 0,
                            rng.RandomBytes(300)));
  OsdOp omap;
  omap.type = OsdOp::Type::kOmapSet;
  omap.omap_kvs.emplace_back(BytesOf("iv"), rng.RandomBytes(16));
  txn.ops.push_back(omap);
  const Bytes record = EncodeTxn(txn, {7, {7}});
  EXPECT_EQ(record, PlainRecord(txn, 7));
  EXPECT_EQ(TxnRecord(txn, {}).size(), record.size());

  auto decoded = DecodeTxn(record, kMaxObject);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->snapc.seq, 7u);
  EXPECT_EQ(EncodeTxn(decoded->txn, decoded->snapc), record);
}

// Three discards cover parts of one payload (1292 bytes) and all of a
// second (100): the record leaves those bytes out for 40 bytes of hole
// lists, and decoding puts zeros there.
TEST(TxnRecord, LaterDiscardsBecomeHoles) {
  Rng rng(2);
  Transaction txn;
  txn.oid = "o";
  const Bytes payload = rng.RandomBytes(8192);
  txn.ops.push_back(WriteOp(4096, payload));
  txn.ops.push_back(WriteOp(20000, rng.RandomBytes(100)));
  txn.ops.push_back(RangeOp(OsdOp::Type::kTrim, 0, 4096 + 100));
  txn.ops.push_back(RangeOp(OsdOp::Type::kZero, 4096 + 5000, 1000));
  txn.ops.push_back(RangeOp(OsdOp::Type::kTrim, 4096 + 8000, 30000));
  const Bytes record = EncodeTxn(txn, {});
  EXPECT_EQ(record.size(),
            PlainRecord(txn, 0).size() - 1292 - 100 + (4 + 3 * 8) + (4 + 8));

  auto decoded = DecodeTxn(record, kMaxObject);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->txn.ops.size(), txn.ops.size());
  Bytes expect = payload;
  std::fill(expect.begin(), expect.begin() + 100, 0);
  std::fill(expect.begin() + 5000, expect.begin() + 6000, 0);
  std::fill(expect.begin() + 8000, expect.end(), 0);
  EXPECT_EQ(decoded->txn.ops[0].data, expect);
  EXPECT_EQ(decoded->txn.ops[1].data, Bytes(100, 0)) << "inside the trim";
  for (size_t i = 2; i < txn.ops.size(); ++i) {
    EXPECT_EQ(decoded->txn.ops[i].type, txn.ops[i].type);
    EXPECT_EQ(decoded->txn.ops[i].offset, txn.ops[i].offset);
    EXPECT_EQ(decoded->txn.ops[i].length, txn.ops[i].length);
  }
  EXPECT_EQ(EncodeTxn(decoded->txn, decoded->snapc), record);

  // A hole must lie under a later discard, and decode within the object.
  // Moving the last trim's offset (the 8 bytes before its length, data
  // length and row count) leaves the first payload's last hole uncovered.
  Bytes bad = record;
  StoreU64Le(bad.data() + bad.size() - 24, 4096 + 8100);
  EXPECT_EQ(DecodeTxn(bad, kMaxObject).status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(DecodeTxn(record, 4096).status().code(), StatusCode::kCorruption);
}

// A payload carried as device pages (a recovery push) encodes byte for
// byte as the same payload carried as bytes: holes read as zeros, the run
// may start mid-page, and a later discard still leaves its holes out.
TEST(TxnRecord, PageBackedPayloadEncodesAsItsBytes) {
  Rng rng(4);
  dev::SparseRam ram(1 << 20);
  ram.WriteAt(300, rng.RandomBytes(5000));
  ram.WriteAt(3 * 4096 + 17, rng.RandomBytes(2000));  // page 2 is a hole
  constexpr uint64_t kLength = 4 * 4096;
  Bytes bytes(kLength);
  ram.ReadAt(100, bytes);
  for (const bool discard : {false, true}) {
    Transaction by_bytes;
    by_bytes.oid = "rbd_data.2";
    by_bytes.ops.push_back(RangeOp(OsdOp::Type::kWriteFull, 0, 0, bytes));
    Transaction by_pages;
    by_pages.oid = by_bytes.oid;
    OsdOp op = RangeOp(OsdOp::Type::kWriteFull, 0, 0);
    ram.Record(100, kLength, op.pages);
    by_pages.ops.push_back(std::move(op));
    if (discard) {
      by_bytes.ops.push_back(RangeOp(OsdOp::Type::kTrim, 4000, 5000));
      by_pages.ops.push_back(by_bytes.ops.back());
    }
    EXPECT_EQ(by_pages.PayloadBytes(), by_bytes.PayloadBytes());
    EXPECT_EQ(TxnRecord(by_pages, {}).size(), TxnRecord(by_bytes, {}).size());
    EXPECT_EQ(EncodeTxn(by_pages, {3, {3}}), EncodeTxn(by_bytes, {3, {3}}))
        << "discard " << discard;
  }
}

// Compressible plaintext: a random head of 0-4 KiB per block, zeros after,
// so the blocks of one write store anywhere from a few bytes to all 4 KiB.
Bytes Plaintext(Rng& rng, size_t blocks) {
  Bytes out(blocks * core::kBlockSize);
  for (size_t b = 0; b < blocks; ++b) {
    const size_t random_bytes = rng.NextBelow(5) * 1024;
    rng.Fill(MutByteSpan(out.data() + b * core::kBlockSize, random_bytes));
  }
  return out;
}

// One random write transaction on one of three objects within 96 KiB:
// compressed multi-block writes with their slot-tail trims (the
// compressed unaligned layout's shape), a trim before an overlapping
// write, discards that cover parts of two writes, and random op mixes.
Transaction RandomTxn(Rng& rng, core::EncryptionFormat& format) {
  constexpr uint64_t kSpan = 96 << 10;
  Transaction txn;
  txn.oid = "obj" + std::to_string(rng.NextBelow(3));
  const auto range = [&](OsdOp::Type type) {
    const uint64_t offset = rng.NextBelow(kSpan);
    return RangeOp(type, offset, rng.NextInRange(1, 9000));
  };
  const auto write = [&] {
    const uint64_t offset = rng.NextBelow(kSpan);
    return WriteOp(offset, rng.RandomBytes(rng.NextInRange(1, 9000)));
  };
  switch (rng.NextBelow(6)) {
    case 0:
    case 1: {
      core::ObjectExtent ext;
      ext.oid = txn.oid;
      ext.first_block = rng.NextBelow(16);
      ext.block_count = rng.NextInRange(1, 4);
      ext.image_block = ext.first_block;
      const Bytes plain = Plaintext(rng, ext.block_count);
      EXPECT_TRUE(format.MakeWrite(ext, plain, txn).ok());
      break;
    }
    case 2: {  // trim, then a write over part of it: no hole
      OsdOp trim = range(OsdOp::Type::kTrim);
      const uint64_t at = trim.offset + rng.NextBelow(trim.length);
      txn.ops.push_back(trim);
      txn.ops.push_back(WriteOp(at, rng.RandomBytes(rng.NextInRange(1, 6000))));
      break;
    }
    case 3: {  // a write, a trim over its head, a write, a zero over both
      OsdOp first = write();
      const uint64_t head = first.offset >= 50 ? first.offset - 50 : 0;
      const uint64_t mid = first.offset + first.data.size() / 2;
      txn.ops.push_back(first);
      txn.ops.push_back(
          RangeOp(OsdOp::Type::kTrim, head, 100 + rng.NextBelow(200)));
      txn.ops.push_back(WriteOp(mid, rng.RandomBytes(300)));
      txn.ops.push_back(RangeOp(OsdOp::Type::kZero, mid >= 10 ? mid - 10 : 0,
                                rng.NextInRange(1, 600)));
      break;
    }
    default:
      for (uint64_t n = rng.NextInRange(1, 6); n > 0; --n) {
        switch (rng.NextBelow(6)) {
          case 0:
          case 1:
            txn.ops.push_back(write());
            break;
          case 2:
            txn.ops.push_back(range(OsdOp::Type::kTrim));
            break;
          case 3:
            txn.ops.push_back(range(OsdOp::Type::kZero));
            break;
          case 4:
            txn.ops.push_back(RangeOp(OsdOp::Type::kWriteFull, 0, 0,
                                      rng.RandomBytes(rng.NextBelow(20000))));
            break;
          default: {
            OsdOp omap;
            omap.type = OsdOp::Type::kOmapSet;
            omap.omap_kvs.emplace_back(rng.RandomBytes(8),
                                       rng.RandomBytes(rng.NextBelow(40)));
            txn.ops.push_back(omap);
          }
        }
      }
  }
  return txn;
}

StoreConfig RoundTripStore() {
  StoreConfig c;
  c.journal_size = 8ull << 20;
  c.kv_region_size = 32ull << 20;
  c.kv.wal_size = 1ull << 20;
  c.alloc_unit = 512;  // as compression-enabled images configure it
  return c;
}

// Transactions applied to one store and their decoded records applied to
// another leave the same bytes and trimmed maps, and every decoded record
// re-encodes to itself.
TEST(TxnRecord, DecodedRecordsApplyLikeTheirTransactions) {
  testutil::RunSim([]() -> sim::Task<void> {
    const StoreConfig cfg = RoundTripStore();
    auto original =
        co_await ObjectStore::Open(std::make_shared<dev::NvmeDevice>(), cfg);
    auto replayed =
        co_await ObjectStore::Open(std::make_shared<dev::NvmeDevice>(), cfg);
    CO_ASSERT_OK(original.status());
    CO_ASSERT_OK(replayed.status());
    Rng rng(3);
    core::EncryptionSpec spec{core::CipherMode::kGcmRandom,
                              core::IvLayout::kUnaligned};
    spec.compression.codec = core::Compression::kLz;
    spec.iv_seed = 3;
    auto format = core::MakeFormat(spec, rng.RandomBytes(64), 4ull << 20);
    size_t holed = 0;
    for (int i = 0; i < 300; ++i) {
      Transaction txn;
      if (i % 60 == 59) {
        txn.oid = "obj" + std::to_string(rng.NextBelow(3));
        txn.ops.push_back(RangeOp(OsdOp::Type::kRemove, 0, 0));
      } else {
        txn = RandomTxn(rng, *format);
      }
      const SnapContext snapc{rng.NextBelow(3), {}};
      const Bytes record = EncodeTxn(txn, snapc);
      if (record.size() < PlainRecord(txn, snapc.seq).size()) holed++;
      auto decoded = DecodeTxn(record, cfg.max_object_size);
      CO_ASSERT_OK(decoded.status());
      EXPECT_EQ(EncodeTxn(decoded->txn, decoded->snapc), record) << i;
      const Status a = co_await (*original)->Apply(txn, snapc);
      const Status b =
          co_await (*replayed)->Apply(decoded->txn, decoded->snapc);
      EXPECT_EQ(a.code(), b.code()) << i;
    }
    EXPECT_GT(holed, 50u);
    co_await (*original)->Drain();
    co_await (*replayed)->Drain();
    for (int o = 0; o < 3; ++o) {
      const std::string oid = "obj" + std::to_string(o);
      SCOPED_TRACE(oid);
      CO_ASSERT_EQ((*original)->ObjectExists(oid),
                   (*replayed)->ObjectExists(oid));
      if (!(*original)->ObjectExists(oid)) continue;
      EXPECT_EQ((*original)->ObjectSize(oid), (*replayed)->ObjectSize(oid));
      EXPECT_EQ((*original)->TrimmedRanges(oid),
                (*replayed)->TrimmedRanges(oid));
      auto a = (*original)->PeekObjectData(oid, 0, cfg.max_object_size);
      auto b = (*replayed)->PeekObjectData(oid, 0, cfg.max_object_size);
      CO_ASSERT_OK(a.status());
      CO_ASSERT_OK(b.status());
      EXPECT_TRUE(*a == *b);
    }
  });
}

}  // namespace
}  // namespace vde::objstore
