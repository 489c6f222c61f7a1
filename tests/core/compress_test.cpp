// Tests of the compression-before-encryption stage: the in-tree LZ codec
// (round-trips, honest incompressibility, bounds-checked rejection of
// malformed streams) and the format-level record — 3-byte [codec][len]
// header, tail trims that make short ciphertexts sparse, verbatim
// fallback, and the geometry/authentication interactions.
#include "core/format.h"

#include <gtest/gtest.h>

#include <map>

#include "../testutil.h"
#include "util/lz.h"
#include "util/rng.h"

namespace vde::core {
namespace {

using objstore::OsdOp;
using objstore::ReadResult;
using objstore::Transaction;

constexpr uint64_t kObjectSize = 4ull << 20;

Bytes TestKey() {
  Rng rng(0xCAFE);
  return rng.RandomBytes(64);
}

ObjectExtent MakeExtent(uint64_t first_block, size_t count,
                        uint64_t image_block) {
  ObjectExtent ext;
  ext.oid = "rbd_data.test.0000000000000000";
  ext.object_no = 0;
  ext.first_block = first_block;
  ext.block_count = count;
  ext.image_block = image_block;
  return ext;
}

// Block with a pct%-long single-byte run up front and seed-random tail —
// the same shape the fio driver's compressibility knob produces.
Bytes CompressibleBlock(Rng& rng, uint32_t pct) {
  Bytes block(kBlockSize);
  const size_t run = block.size() * pct / 100;
  std::fill(block.begin(), block.begin() + static_cast<long>(run), 0xA7);
  const Bytes tail = rng.RandomBytes(block.size() - run);
  std::copy(tail.begin(), tail.end(), block.begin() + static_cast<long>(run));
  return block;
}

// In-memory object + omap model (same micro store as format_test). Trim
// ops are accepted and ignored: the data buffer's zero tail already equals
// what a punched range reads back as.
struct FakeObject {
  Bytes data = Bytes(kObjectSize + (1 << 20), 0);
  std::map<Bytes, Bytes> omap;

  void ApplyWrite(const Transaction& txn) {
    for (const auto& op : txn.ops) {
      if (op.type == OsdOp::Type::kWrite) {
        std::copy(op.data.begin(), op.data.end(),
                  data.begin() + static_cast<long>(op.offset));
      } else if (op.type == OsdOp::Type::kOmapSet) {
        for (const auto& [k, v] : op.omap_kvs) omap[k] = v;
      }
    }
  }

  ReadResult ServeRead(const Transaction& txn) const {
    ReadResult result;
    for (const auto& op : txn.ops) {
      if (op.type == OsdOp::Type::kRead) {
        result.data.insert(result.data.end(),
                           data.begin() + static_cast<long>(op.offset),
                           data.begin() +
                               static_cast<long>(op.offset + op.length));
      } else if (op.type == OsdOp::Type::kOmapGetRange) {
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

EncryptionSpec CompressedSpec(IvLayout layout,
                              Integrity integrity = Integrity::kNone,
                              CipherMode mode = CipherMode::kXtsRandom) {
  EncryptionSpec spec;
  spec.mode = mode;
  spec.layout = layout;
  spec.integrity = integrity;
  spec.iv_seed = 42;
  spec.compression.codec = Compression::kLz;
  return spec;
}

size_t CountTrims(const Transaction& txn) {
  size_t n = 0;
  for (const auto& op : txn.ops) {
    if (op.type == OsdOp::Type::kTrim) ++n;
  }
  return n;
}

// --- The codec itself ---

TEST(LzCodec, RoundTripsCompressiblePatterns) {
  Rng rng(1);
  const Bytes zeros(kBlockSize, 0);
  const Bytes run(kBlockSize, 0x5A);
  Bytes text;
  while (text.size() < kBlockSize) {
    const char* phrase = "rethinking block storage encryption ";
    text.insert(text.end(), phrase, phrase + 36);
  }
  text.resize(kBlockSize);

  const Bytes* inputs[] = {&zeros, &run, &text};
  for (const Bytes* in : inputs) {
    Bytes packed(kBlockSize);
    const size_t clen = LzCompress(*in, packed);
    ASSERT_GT(clen, 0u);
    ASSERT_LT(clen, in->size() / 2);  // these patterns compress hard
    Bytes out(in->size());
    ASSERT_TRUE(LzDecompress(ByteSpan(packed.data(), clen), out).ok());
    EXPECT_EQ(out, *in);
  }
}

TEST(LzCodec, RoundTripsMixedBlocksAtVariousSizes) {
  Rng rng(2);
  for (const size_t size : {size_t{64}, size_t{512}, size_t{4096},
                            size_t{65536}}) {
    Bytes in(size, 0x33);
    // Salt the run with random bytes so matches are short and scattered.
    for (size_t i = 0; i < size; i += 7) in[i] = rng.RandomBytes(1)[0];
    Bytes packed(size);
    const size_t clen = LzCompress(in, packed);
    ASSERT_GT(clen, 0u) << "size=" << size;
    Bytes out(size);
    ASSERT_TRUE(LzDecompress(ByteSpan(packed.data(), clen), out).ok());
    EXPECT_EQ(out, in) << "size=" << size;
  }
}

TEST(LzCodec, ReportsIncompressibleHonestly) {
  Rng rng(3);
  const Bytes in = rng.RandomBytes(kBlockSize);
  // Random data cannot fit under any gain threshold; the codec must say so
  // rather than overflow or pad.
  Bytes packed(kBlockSize - 1);
  EXPECT_EQ(LzCompress(in, packed), 0u);
  Bytes tight(kBlockSize / 2);
  EXPECT_EQ(LzCompress(in, tight), 0u);
}

TEST(LzCodec, RejectsCorruptedStreams) {
  const Bytes in(kBlockSize, 0x5A);
  Bytes packed(kBlockSize);
  const size_t clen = LzCompress(in, packed);
  ASSERT_GT(clen, 2u);
  Bytes out(kBlockSize);

  // Truncation: the stream ends mid-record or produces too few bytes.
  for (const size_t cut : {size_t{1}, clen / 2, clen - 1}) {
    EXPECT_FALSE(LzDecompress(ByteSpan(packed.data(), cut), out).ok())
        << "cut=" << cut;
  }
  // Empty stream cannot produce a 4 KiB block.
  EXPECT_FALSE(LzDecompress(ByteSpan(packed.data(), 0), out).ok());

  // Every single-byte corruption must either fail closed or still write
  // exactly out.size() bytes — never read or write out of bounds. (ASan in
  // the Debug CI job backs the "never" part.)
  for (size_t i = 0; i < clen; ++i) {
    Bytes bad(packed.begin(), packed.begin() + static_cast<long>(clen));
    bad[i] ^= 0xFF;
    (void)LzDecompress(bad, out);
  }

  // A zero match offset (copy from "0 bytes back") is always malformed.
  Bytes zeroes(16, 0);
  zeroes[0] = 0x41;  // 4 literals, match len 4+1
  EXPECT_FALSE(LzDecompress(zeroes, out).ok());
}

TEST(LzCodec, RejectsWrongOutputLength) {
  const Bytes in(kBlockSize, 0x77);
  Bytes packed(kBlockSize);
  const size_t clen = LzCompress(in, packed);
  ASSERT_GT(clen, 0u);
  // Decompress writes exactly out.size() bytes: a mismatched claim in the
  // metadata header surfaces as corruption, not silent truncation.
  Bytes small(kBlockSize / 2);
  EXPECT_FALSE(LzDecompress(ByteSpan(packed.data(), clen), small).ok());
  Bytes big(kBlockSize * 2);
  EXPECT_FALSE(LzDecompress(ByteSpan(packed.data(), clen), big).ok());
}

// --- Format-level: the per-block record across geometries ---

class CompressedFormat : public ::testing::TestWithParam<EncryptionSpec> {};

TEST_P(CompressedFormat, CompressedRoundtripWithTailTrims) {
  const auto spec = GetParam();
  auto format = MakeFormat(spec, TestKey(), kObjectSize);
  ASSERT_NE(format, nullptr);
  Rng rng(10);
  FakeObject obj;

  for (const size_t nblocks : {size_t{1}, size_t{3}, size_t{8}}) {
    const uint64_t first = rng.NextBelow(64);
    Bytes plain;
    for (size_t b = 0; b < nblocks; ++b) {
      const Bytes block = CompressibleBlock(rng, 75);
      plain.insert(plain.end(), block.begin(), block.end());
    }
    const auto ext = MakeExtent(first, nblocks, 1000 + first);

    Transaction wr;
    ASSERT_TRUE(format->MakeWrite(ext, plain, wr).ok());
    // 75%-runs compress well past min_gain: every block sheds its tail.
    EXPECT_EQ(CountTrims(wr), nblocks) << spec.Name();
    obj.ApplyWrite(wr);

    Transaction rd;
    format->MakeRead(ext, rd);
    Bytes out(plain.size());
    ASSERT_TRUE(format->FinishRead(ext, obj.ServeRead(rd), out).ok());
    EXPECT_EQ(out, plain) << spec.Name() << " nblocks=" << nblocks;
  }
  const CompressStats& stats = format->compress_stats();
  EXPECT_EQ(stats.compressed_blocks, 1u + 3u + 8u);
  EXPECT_EQ(stats.verbatim_blocks, 0u);
  EXPECT_EQ(stats.decompressed_blocks, stats.compressed_blocks);
  EXPECT_LT(stats.stored_bytes, stats.in_bytes / 2);
}

TEST_P(CompressedFormat, IncompressibleBlocksStoredVerbatim) {
  const auto spec = GetParam();
  auto format = MakeFormat(spec, TestKey(), kObjectSize);
  ASSERT_NE(format, nullptr);
  Rng rng(11);
  FakeObject obj;

  const Bytes plain = rng.RandomBytes(2 * kBlockSize);
  const auto ext = MakeExtent(0, 2, 0);
  Transaction wr;
  ASSERT_TRUE(format->MakeWrite(ext, plain, wr).ok());
  EXPECT_EQ(CountTrims(wr), 0u);  // full slots: nothing to release
  obj.ApplyWrite(wr);

  Transaction rd;
  format->MakeRead(ext, rd);
  Bytes out(plain.size());
  ASSERT_TRUE(format->FinishRead(ext, obj.ServeRead(rd), out).ok());
  EXPECT_EQ(out, plain);

  const CompressStats& stats = format->compress_stats();
  EXPECT_EQ(stats.compressed_blocks, 0u);
  EXPECT_EQ(stats.verbatim_blocks, 2u);
  EXPECT_EQ(stats.stored_bytes, 2u * kBlockSize);
  EXPECT_EQ(stats.decompressed_blocks, 0u);  // verbatim reads skip the codec
}

TEST_P(CompressedFormat, RewriteRestoresThenRepunchesTheSlot) {
  const auto spec = GetParam();
  auto format = MakeFormat(spec, TestKey(), kObjectSize);
  ASSERT_NE(format, nullptr);
  Rng rng(12);
  FakeObject obj;
  const auto ext = MakeExtent(4, 1, 4);

  // Compressible write, then an incompressible rewrite of the same block:
  // the full-slot data op must overwrite the stale compressed bytes.
  Transaction wr1;
  ASSERT_TRUE(format->MakeWrite(ext, CompressibleBlock(rng, 80), wr1).ok());
  EXPECT_EQ(CountTrims(wr1), 1u);
  obj.ApplyWrite(wr1);

  const Bytes plain2 = rng.RandomBytes(kBlockSize);
  Transaction wr2;
  ASSERT_TRUE(format->MakeWrite(ext, plain2, wr2).ok());
  EXPECT_EQ(CountTrims(wr2), 0u);
  obj.ApplyWrite(wr2);

  Transaction rd;
  format->MakeRead(ext, rd);
  Bytes out(kBlockSize);
  ASSERT_TRUE(format->FinishRead(ext, obj.ServeRead(rd), out).ok());
  EXPECT_EQ(out, plain2);
}

TEST_P(CompressedFormat, TamperedMetadataHeaderFailsClosed) {
  const auto spec = GetParam();
  auto format = MakeFormat(spec, TestKey(), kObjectSize);
  ASSERT_NE(format, nullptr);
  Rng rng(13);
  FakeObject obj;
  const auto ext = MakeExtent(2, 1, 2);

  Transaction wr;
  ASSERT_TRUE(format->MakeWrite(ext, CompressibleBlock(rng, 80), wr).ok());
  obj.ApplyWrite(wr);

  // Corrupt the stored length in the per-block record. Authenticated
  // formats fail the MAC/AAD (the header is bound into the tag); the
  // unauthenticated format still fails on header validation or inside the
  // bounds-checked decompressor — never silently returns garbage lengths.
  FakeObject bad = obj;
  const size_t meta = spec.MetaPerBlock();
  switch (spec.layout) {
    case IvLayout::kUnaligned:
      bad.data[ext.first_block * (kBlockSize + meta) + kBlockSize + 1] ^= 0x44;
      break;
    case IvLayout::kObjectEnd:
      bad.data[kObjectSize + ext.first_block * meta + 1] ^= 0x44;
      break;
    case IvLayout::kOmap:
      for (auto& [k, v] : bad.omap) v[1] ^= 0x44;
      break;
    case IvLayout::kNone:
      FAIL();
  }

  Transaction rd;
  format->MakeRead(ext, rd);
  Bytes out(kBlockSize);
  const Status s = format->FinishRead(ext, bad.ServeRead(rd), out);
  EXPECT_FALSE(s.ok()) << spec.Name();
}

INSTANTIATE_TEST_SUITE_P(
    AllGeometries, CompressedFormat,
    ::testing::Values(
        CompressedSpec(IvLayout::kUnaligned),
        CompressedSpec(IvLayout::kObjectEnd),
        CompressedSpec(IvLayout::kOmap),
        CompressedSpec(IvLayout::kUnaligned, Integrity::kHmac),
        CompressedSpec(IvLayout::kObjectEnd, Integrity::kHmac),
        CompressedSpec(IvLayout::kOmap, Integrity::kHmac),
        CompressedSpec(IvLayout::kObjectEnd, Integrity::kNone,
                       CipherMode::kGcmRandom),
        CompressedSpec(IvLayout::kOmap, Integrity::kNone,
                       CipherMode::kGcmRandom)),
    [](const auto& info) {
      std::string name = info.param.Name();
      for (char& c : name) {
        if (c == '/' || c == '-' || c == '+') c = '_';
      }
      return name;
    });

// --- Spec plumbing ---

TEST(CompressedSpecTest, HeaderGrowsMetaPerBlockByThree) {
  EXPECT_EQ(CompressedSpec(IvLayout::kObjectEnd).MetaPerBlock(), 16u + 3u);
  EXPECT_EQ(
      CompressedSpec(IvLayout::kObjectEnd, Integrity::kHmac).MetaPerBlock(),
      48u + 3u);
  EXPECT_EQ(CompressedSpec(IvLayout::kOmap, Integrity::kNone,
                           CipherMode::kGcmRandom)
                .MetaPerBlock(),
            28u + 3u);
}

TEST(CompressedSpecTest, NameCarriesCodecSuffix) {
  EXPECT_EQ(CompressedSpec(IvLayout::kObjectEnd).Name(),
            "xts-random/object-end+lz");
  EXPECT_EQ(
      CompressedSpec(IvLayout::kOmap, Integrity::kHmac).Name(),
      "xts-random/omap+hmac+lz");
}

TEST(CompressedSpecTest, LengthPreservingFormatsRejectCompression) {
  // The paper's point: a format with no per-block record has nowhere to
  // put {codec, stored_len}, so compression cannot be expressed there —
  // nor a layout or an HMAC tag. The rest of the spec-validity table rides
  // along: random IVs need a layout, and GCM takes no HMAC. (Every valid
  // spec builds in format_golden_test.)
  for (const EncryptionSpec& spec : testutil::RejectedSpecs()) {
    EXPECT_NE(SpecError(spec), nullptr) << spec.Name();
    EXPECT_EQ(MakeFormat(spec, TestKey(), kObjectSize), nullptr)
        << spec.Name();
  }
}

TEST(CompressedSpecTest, CompressionOffIsByteIdenticalMetadata) {
  // The compression-off spec must keep its exact pre-compression record:
  // same MetaPerBlock, same name — so existing images stay readable and
  // the sim's event stream stays identical.
  EncryptionSpec off = CompressedSpec(IvLayout::kObjectEnd);
  off.compression = {};
  EXPECT_EQ(off.MetaPerBlock(), 16u);
  EXPECT_EQ(off.Name(), "xts-random/object-end");
}

}  // namespace
}  // namespace vde::core
