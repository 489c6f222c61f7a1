// Seeded mutation loops over the parsers of untrusted bytes: the image
// header, LUKS key slots, SSTables, write batches, the KV WAL, the object
// store's journal records, the LZ stream and the per-block metadata record
// with its discard bitmap. Each loop checks that the valid input still
// parses, then feeds it bit flips, byte overwrites, truncations and
// extensions: every mutation must come back as OK or an error Status. A
// read past a buffer fails the sanitizer build (-DVDE_SANITIZE=ON), which
// runs this suite under ctest label `fuzz`.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "../testutil.h"
#include "core/format.h"
#include "core/luks_header.h"
#include "device/nvme.h"
#include "device/region.h"
#include "kv/sstable.h"
#include "kv/wal.h"
#include "kv/write_batch.h"
#include "objstore/object_store.h"
#include "objstore/txn_record.h"
#include "rbd/image.h"
#include "util/crc32.h"
#include "util/lz.h"
#include "util/rng.h"

namespace vde {
namespace {

constexpr int kMutations = 2000;

// One random mutation of `in`; small inputs grow back through extension.
Bytes Mutate(Rng& rng, ByteSpan in) {
  Bytes out(in.begin(), in.end());
  const uint64_t kind = out.empty() ? 3 : rng.NextBelow(4);
  const uint64_t n = rng.NextInRange(1, 4);
  switch (kind) {
    case 0:  // bit flips
      for (uint64_t i = 0; i < n; ++i) {
        out[rng.NextBelow(out.size())] ^=
            static_cast<uint8_t>(1u << rng.NextBelow(8));
      }
      break;
    case 1:  // byte overwrites, biased to the values length fields break on
      for (uint64_t i = 0; i < n; ++i) {
        static constexpr uint8_t kEdges[] = {0x00, 0x01, 0x7F, 0x80, 0xFF};
        out[rng.NextBelow(out.size())] =
            rng.NextBool() ? kEdges[rng.NextBelow(5)]
                           : static_cast<uint8_t>(rng.Next());
      }
      break;
    case 2:  // truncation
      out.resize(rng.NextBelow(out.size()));
      break;
    default: {  // extension
      const Bytes tail = rng.RandomBytes(rng.NextInRange(1, 64));
      out.insert(out.end(), tail.begin(), tail.end());
      break;
    }
  }
  return out;
}

core::LuksHeader FastLuks(crypto::Drbg& rng, ByteSpan master_key) {
  core::LuksHeader::Params params;
  params.pbkdf2_iterations = 10;
  params.af_stripes = 8;
  return core::LuksHeader::Format(master_key, "pw", params, rng);
}

TEST(ParserFuzz, ImageHeader) {
  crypto::Drbg drbg(1);
  rbd::ImageOptions options;
  options.size = 64ull << 20;
  options.stripe_unit = 1 << 20;
  options.stripe_count = 2;
  options.enc.mode = core::CipherMode::kXtsRandom;
  options.enc.layout = core::IvLayout::kObjectEnd;
  options.enc.integrity = core::Integrity::kHmac;
  options.enc.compression.codec = core::Compression::kLz;
  const Bytes key = drbg.Generate(core::kMasterKeySize);
  const Bytes header = rbd::SerializeMetadata(
      options, FastLuks(drbg, key), /*encrypted=*/true,
      {{7, "newest"}, {3, "oldest"}});
  auto parsed = rbd::ParseImageHeader(header);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->options.stripe_count, 2u);
  EXPECT_EQ(parsed->snaps.size(), 2u);
  EXPECT_EQ(*parsed->luks.Unlock("pw"), key);

  Rng rng(0x1EADE5);
  for (int i = 0; i < kMutations; ++i) {
    Bytes bad = Mutate(rng, header);
    (void)rbd::ParseImageHeader(bad).ok();
    // Re-sealed, so the fields behind the checksum are parsed too.
    if (bad.size() >= 12) {
      StoreU32Le(bad.data() + 4, static_cast<uint32_t>(bad.size()));
      StoreU32Le(bad.data() + bad.size() - 4,
                 Crc32c(ByteSpan(bad.data(), bad.size() - 4)));
      (void)rbd::ParseImageHeader(bad).ok();
    }
  }
}

TEST(ParserFuzz, LuksHeader) {
  crypto::Drbg drbg(2);
  const Bytes key = drbg.Generate(core::kMasterKeySize);
  core::LuksHeader luks = FastLuks(drbg, key);
  ASSERT_TRUE(luks.AddKeyslot(key, "pw2", drbg).ok());
  const Bytes blob = luks.Serialize();
  auto parsed = core::LuksHeader::Deserialize(blob);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->ActiveKeyslots(), 2u);

  // Unlock stays out of the loop: a mutated iteration count can ask for
  // billions of PBKDF2 rounds.
  Rng rng(0x1005);
  for (int i = 0; i < kMutations; ++i) {
    (void)core::LuksHeader::Deserialize(Mutate(rng, blob)).ok();
  }
}

TEST(ParserFuzz, SSTable) {
  kv::KvOptions options;
  options.block_size = 256;
  constexpr uint32_t kSector = 512;
  kv::SSTableBuilder builder(options);
  Rng values(3);
  for (int i = 0; i < 48; ++i) {
    const std::string key = "key" + std::to_string(100 + i);
    builder.Add(BytesOf(key), values.RandomBytes(values.NextBelow(24)),
                /*tombstone=*/i % 7 == 0);
  }
  const Bytes image = builder.Finish(kSector).image;

  testutil::RunSim([&image]() -> sim::Task<void> {
    dev::NvmeConfig config;
    config.sector_size = kSector;
    // Opens `table` as if read back from a device, then reads it through
    // Get and Scan. Returns the scanned entry count (0 on any error).
    auto read_back = [&config](Bytes table) -> sim::Task<size_t> {
      dev::NvmeDevice nvme(config);
      const uint64_t length = table.size();
      table.resize((length + kSector - 1) / kSector * kSector);
      if (!table.empty() && !(co_await nvme.Write(0, table)).ok()) {
        co_return 0;
      }
      auto sst = co_await kv::SSTable::Open(nvme, 0, length);
      if (!sst.ok()) co_return 0;
      for (const char* key : {"key100", "key123", "key147", "key999"}) {
        (void)(co_await (*sst)->Get(BytesOf(key), nullptr)).ok();
      }
      auto all = co_await (*sst)->Scan({}, {});
      co_return all.ok() ? all->size() : 0;
    };
    EXPECT_EQ(co_await read_back(image), 48u);
    Rng rng(0x557AB1E);
    for (int i = 0; i < kMutations; ++i) {
      (void)co_await read_back(Mutate(rng, image));
    }
  });
}

kv::WriteBatch SampleBatch(Rng& rng, int ops) {
  kv::WriteBatch batch;
  for (int i = 0; i < ops; ++i) {
    Bytes key = rng.RandomBytes(rng.NextInRange(1, 16));
    if (rng.NextBool(0.25)) {
      batch.Delete(std::move(key));
    } else {
      batch.Put(std::move(key), rng.RandomBytes(rng.NextBelow(40)));
    }
  }
  return batch;
}

TEST(ParserFuzz, WriteBatch) {
  Rng rng(4);
  const Bytes wire = SampleBatch(rng, 12).Serialize();
  auto parsed = kv::WriteBatch::Deserialize(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->size(), 12u);
  for (int i = 0; i < kMutations; ++i) {
    (void)kv::WriteBatch::Deserialize(Mutate(rng, wire)).ok();
  }
}

// A journal record with every op kind, holes in two payloads (a slot-tail
// trim and a zero) and OMAP rows: mutated, and random bytes, each decode or
// come back as Corruption.
TEST(ParserFuzz, TxnRecord) {
  using objstore::OsdOp;
  Rng rng(8);
  objstore::Transaction txn;
  txn.oid = "rbd_data.7";
  const auto op = [&txn](OsdOp::Type type, uint64_t offset, uint64_t length,
                         Bytes data) {
    OsdOp& o = txn.ops.emplace_back();
    o.type = type;
    o.offset = offset;
    o.length = length;
    o.data = std::move(data);
    return &o;
  };
  op(OsdOp::Type::kCreate, 0, 0, {});
  op(OsdOp::Type::kWrite, 4127, 4127, rng.RandomBytes(4127));
  op(OsdOp::Type::kWriteFull, 0, 0, rng.RandomBytes(200));
  op(OsdOp::Type::kTrim, 4127 + 900, 4096 - 900, {});
  op(OsdOp::Type::kZero, 150, 20, {});
  OsdOp* omap = op(OsdOp::Type::kOmapSet, 0, 0, {});
  omap->omap_kvs.emplace_back(BytesOf("iv.1"), rng.RandomBytes(28));
  omap->omap_kvs.emplace_back(BytesOf("iv.2"), Bytes{});
  const Bytes record = objstore::EncodeTxn(txn, {5, {}});
  constexpr uint64_t kMaxObject = objstore::StoreConfig{}.max_object_size;
  auto parsed = objstore::DecodeTxn(record, kMaxObject);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->txn.ops.size(), txn.ops.size());
  EXPECT_EQ(objstore::EncodeTxn(parsed->txn, parsed->snapc), record);
  for (int i = 0; i < kMutations; ++i) {
    (void)objstore::DecodeTxn(Mutate(rng, record), kMaxObject).ok();
    (void)objstore::DecodeTxn(rng.RandomBytes(rng.NextBelow(128)), kMaxObject)
        .ok();
  }
}

TEST(ParserFuzz, Wal) {
  testutil::RunSim([]() -> sim::Task<void> {
    constexpr uint64_t kRegion = 16 << 10;
    Rng rng(5);
    dev::NvmeDevice nvme;
    dev::RegionDevice region(nvme, 0, kRegion);
    kv::Wal wal(region, /*generation=*/3);
    constexpr size_t kFrames = 8;
    for (size_t i = 0; i < kFrames; ++i) {
      CO_ASSERT_OK(co_await wal.Append(SampleBatch(rng, 3).Serialize()));
    }
    Bytes log(kRegion);
    CO_ASSERT_OK(co_await region.Read(0, log));
    log.resize(wal.bytes_used());

    // Recovers a region holding `prefix` and then zeros, as KvStore does:
    // every frame must also deserialize as a batch. Returns the frames.
    auto recover = [](const Bytes& prefix) -> sim::Task<size_t> {
      dev::NvmeDevice fresh;
      dev::RegionDevice area(fresh, 0, kRegion);
      Bytes raw(prefix.begin(), prefix.end());
      raw.resize(kRegion);
      if (!(co_await area.Write(0, raw)).ok()) co_return 0;
      kv::Wal reopened(area, /*generation=*/3);
      auto frames = co_await reopened.Recover();
      if (!frames.ok()) co_return 0;
      for (const Bytes& frame : *frames) {
        (void)kv::WriteBatch::Deserialize(frame).ok();
      }
      co_return frames->size();
    };
    EXPECT_EQ(co_await recover(log), kFrames);
    for (int i = 0; i < kMutations; ++i) {
      Bytes bad = Mutate(rng, log);
      bad.resize(std::min<size_t>(bad.size(), kRegion));
      // A failed frame ends the log: the recovered frames are a prefix.
      EXPECT_LE(co_await recover(bad), kFrames);
    }
  });
}

// One literal run, one match of `length` bytes from `offset` back, then an
// empty final record: the match's last byte is the block's last byte.
Bytes OneMatchStream(ByteSpan literals, size_t offset, size_t length) {
  Bytes s;
  auto put_length = [&s](size_t v) {
    for (; v >= 255; v -= 255) s.push_back(255);
    s.push_back(static_cast<uint8_t>(v));
  };
  const size_t lit = literals.size();
  const size_t ml = length - 4;
  s.push_back(static_cast<uint8_t>(std::min<size_t>(lit, 15) << 4 |
                                   std::min<size_t>(ml, 15)));
  if (lit >= 15) put_length(lit - 15);
  s.insert(s.end(), literals.begin(), literals.end());
  s.push_back(static_cast<uint8_t>(offset & 0xff));
  s.push_back(static_cast<uint8_t>(offset >> 8));
  if (ml >= 15) put_length(ml - 15);
  s.push_back(0);
  return s;
}

// Streams at the decoder's copy boundaries, for ParserFuzz.LzStream. Every
// `out` is its own heap buffer of the exact size, so under the sanitizer
// build a match copy that writes one byte past `out` faults here.
//  - a match ending exactly at out.size();
//  - offsets 1-7, whose matches overlap their own output, with long
//    lengths; and offsets 8-17 around the 8-byte copy step;
//  - `out` one byte short (must fail without writing past it) and one
//    byte long (must fail as a short stream).
void CheckLzCopyBoundaries() {
  Rng rng(16);
  for (size_t offset = 1; offset <= 17; ++offset) {
    for (size_t length : {4, 5, 7, 8, 9, 15, 16, 17, 18, 19, 23, 24, 25, 31,
                          64, 255, 270, 1000, 4000}) {
      const Bytes literals = rng.RandomBytes(offset + rng.NextBelow(9));
      const Bytes stream = OneMatchStream(literals, offset, length);
      Bytes want = literals;
      for (size_t k = 0; k < length; ++k) {
        want.push_back(want[want.size() - offset]);
      }
      Bytes out(want.size());
      ASSERT_TRUE(LzDecompress(stream, out).ok()) << offset << "/" << length;
      ASSERT_EQ(out, want) << offset << "/" << length;
      Bytes short_out(want.size() - 1);
      EXPECT_FALSE(LzDecompress(stream, short_out).ok());
      Bytes long_out(want.size() + 1);
      EXPECT_FALSE(LzDecompress(stream, long_out).ok());
    }
  }
  // Compressor-made streams whose last record is a match: periodic data
  // with periods 1-7, so every match overlaps, ending on the last byte.
  for (size_t period = 1; period <= 7; ++period) {
    for (size_t n : {size_t{12}, size_t{100}, size_t{4096}}) {
      const Bytes seed = rng.RandomBytes(period);
      Bytes plain(n);
      for (size_t i = 0; i < n; ++i) plain[i] = seed[i % period];
      Bytes packed(n + 16);
      packed.resize(LzCompress(plain, packed));
      ASSERT_GT(packed.size(), 0u);
      ASSERT_EQ(packed.back(), 0u) << "stream must end on a match";
      Bytes out(n);
      ASSERT_TRUE(LzDecompress(packed, out).ok());
      EXPECT_EQ(out, plain);
      Bytes short_out(n - 1);
      EXPECT_FALSE(LzDecompress(packed, short_out).ok());
      for (int i = 0; i < kMutations / 20; ++i) {
        Bytes mutated_out(n);
        (void)LzDecompress(Mutate(rng, packed), mutated_out).ok();
      }
    }
  }
}

TEST(ParserFuzz, LzStream) {
  Rng rng(6);
  Bytes plain(core::kBlockSize);
  for (size_t i = 0; i < plain.size(); ++i) {
    plain[i] = static_cast<uint8_t>(i % 97 < 60 ? i % 13 : rng.Next());
  }
  Bytes packed(core::kBlockSize);
  packed.resize(LzCompress(plain, packed));
  ASSERT_GT(packed.size(), 0u);
  Bytes out(core::kBlockSize);
  ASSERT_TRUE(LzDecompress(packed, out).ok());
  EXPECT_EQ(out, plain);
  for (int i = 0; i < kMutations; ++i) {
    (void)LzDecompress(Mutate(rng, packed), out).ok();
  }
  CheckLzCopyBoundaries();
}

// An in-memory object and its OMAP: applies a format's write ops and serves
// its read ops.
struct FakeObject {
  Bytes data;
  std::map<Bytes, Bytes> omap;

  void Apply(const objstore::Transaction& txn) {
    for (const auto& op : txn.ops) {
      if (op.type == objstore::OsdOp::Type::kWrite) {
        if (data.size() < op.offset + op.data.size()) {
          data.resize(op.offset + op.data.size());
        }
        std::copy(op.data.begin(), op.data.end(),
                  data.begin() + static_cast<long>(op.offset));
      } else if (op.type == objstore::OsdOp::Type::kOmapSet) {
        for (const auto& [k, v] : op.omap_kvs) omap[k] = v;
      }
    }
  }

  objstore::ReadResult Serve(const objstore::Transaction& txn) {
    objstore::ReadResult result;
    for (const auto& op : txn.ops) {
      if (op.type == objstore::OsdOp::Type::kRead) {
        if (data.size() < op.offset + op.length) {
          data.resize(op.offset + op.length);
        }
        result.data.insert(
            result.data.end(), data.begin() + static_cast<long>(op.offset),
            data.begin() + static_cast<long>(op.offset + op.length));
      } else if (op.type == objstore::OsdOp::Type::kOmapGetRange) {
        for (auto it = omap.lower_bound(op.omap_start);
             it != omap.end() &&
             (op.omap_end.empty() || it->first < op.omap_end);
             ++it) {
          result.omap_values.emplace_back(it->first, it->second);
        }
      }
    }
    return result;
  }
};

TEST(ParserFuzz, BlockRecordAndDiscardBitmap) {
  constexpr uint64_t kObjectSize = 64 << 10;
  Rng rng(7);
  const Bytes key = rng.RandomBytes(core::kMasterKeySize);
  for (const core::IvLayout layout :
       {core::IvLayout::kUnaligned, core::IvLayout::kObjectEnd,
        core::IvLayout::kOmap}) {
    for (const bool gcm : {false, true}) {
      core::EncryptionSpec spec;
      spec.mode =
          gcm ? core::CipherMode::kGcmRandom : core::CipherMode::kXtsRandom;
      spec.layout = layout;
      spec.integrity = gcm ? core::Integrity::kNone : core::Integrity::kHmac;
      spec.iv_seed = 11;
      SCOPED_TRACE(spec.Name());
      auto format = core::MakeFormat(spec, key, kObjectSize);
      ASSERT_NE(format, nullptr);

      // The discard bitmap record: blocks 0 and 1 hold data, every other
      // block legitimately reads zeros.
      core::DiscardBitmap bitmap =
          core::DiscardBitmap::AllSet(kObjectSize / core::kBlockSize);
      bitmap.ClearRange(0, 2);
      const Bytes sealed = format->SealBitmap(0, bitmap, /*epoch=*/5);
      core::DiscardBitmap opened;
      ASSERT_TRUE(format->OpenBitmap(0, sealed, &opened).ok());
      EXPECT_EQ(opened, bitmap);

      // Two written blocks and their per-block records.
      core::ObjectExtent ext;
      ext.oid = "rbd_data.fuzz.0000000000000000";
      ext.block_count = 2;
      const Bytes plain = rng.RandomBytes(2 * core::kBlockSize);
      FakeObject object;
      objstore::Transaction write;
      ASSERT_TRUE(format->MakeWrite(ext, plain, write).ok());
      object.Apply(write);
      objstore::Transaction read;
      format->MakeRead(ext, read);
      const objstore::ReadResult fetched = object.Serve(read);
      Bytes out(plain.size());
      ASSERT_TRUE(format->FinishRead(ext, fetched, out, nullptr, &bitmap).ok());
      EXPECT_EQ(out, plain);

      for (int i = 0; i < kMutations; ++i) {
        (void)format->OpenBitmap(0, Mutate(rng, sealed), &opened).ok();
        objstore::ReadResult bad = fetched;
        if (!bad.omap_values.empty() && rng.NextBool()) {
          Bytes& row = bad.omap_values[rng.NextBelow(bad.omap_values.size())]
                           .second;
          row = Mutate(rng, row);
        } else {
          bad.data = Mutate(rng, bad.data);
        }
        (void)format->FinishRead(ext, bad, out, nullptr, &bitmap).ok();
      }
    }
  }
}

}  // namespace
}  // namespace vde
