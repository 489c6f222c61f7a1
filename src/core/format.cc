#include "core/format.h"

#include <cassert>
#include <cstring>

#include "util/lz.h"

namespace vde::core {

namespace {

using objstore::OsdOp;
using objstore::Transaction;

constexpr size_t kIvSize = 16;
constexpr size_t kHmacTagSize = 32;
constexpr size_t kGcmMetaSize = crypto::kGcmIvSize + crypto::kGcmTagSize;

// Compression-enabled formats prepend [codec u8][stored_len u16le] to every
// per-block metadata row. A written block's header is never all-zero
// (verbatim is {kNone, 4096}), so the all-zero cleared marker is preserved.
constexpr size_t kCompressHeaderSize = 3;
// Shortest ciphertext we store: XTS ciphertext stealing needs one full AES
// block, so compressed payloads are zero-padded up to it before encryption
// (the header records the true compressed length; the pad is dropped after
// decrypt).
constexpr size_t kMinCipherLen = 16;

// Bytes a compressed payload occupies on disk (and under the cipher).
size_t StoredLen(size_t clen) { return std::max(clen, kMinCipherLen); }

Bytes DeriveSubkey(ByteSpan master, std::string_view label, size_t n) {
  Bytes out(n);
  crypto::HkdfSha256(master, /*salt=*/{}, BytesOf(label), out);
  return out;
}

OsdOp DataWriteOp(uint64_t offset, Bytes data) {
  OsdOp op;
  op.type = OsdOp::Type::kWrite;
  op.offset = offset;
  op.length = data.size();
  op.data = std::move(data);
  return op;
}

OsdOp DataReadOp(uint64_t offset, uint64_t length) {
  OsdOp op;
  op.type = OsdOp::Type::kRead;
  op.offset = offset;
  op.length = length;
  return op;
}

Bytes BlockKey(uint64_t block_in_object) {
  Bytes key(8);
  StoreU64Be(key.data(), block_in_object);
  return key;
}

// Tracked discard: the store releases the backing sectors and serves reads
// of the range from its trimmed-extent map.
OsdOp TrimOp(uint64_t offset, uint64_t length) {
  OsdOp op;
  op.type = OsdOp::Type::kTrim;
  op.offset = offset;
  op.length = length;
  return op;
}

constexpr size_t kBitmapMacSize = 32;  // HMAC-SHA256 over (bitmap, object
                                       //                   [, epoch])
// Little-endian write-generation epoch trailing the MAC. A legacy record
// stops at the MAC; a current record appends the epoch it was sealed under
// (never 0 — SealBitmap emits the legacy layout for epoch 0, so an
// all-zero trailer always means legacy-plus-zero-padding).
constexpr size_t kBitmapEpochSize = 8;

// Reserved OMAP row for the sealed discard bitmap. Block keys are 8-byte
// big-endian block numbers (first byte 0x00 for any realistic object), so
// this one-byte key never collides and sorts outside every block range.
const Bytes& BitmapOmapKey() {
  static const Bytes key{uint8_t{'B'}};
  return key;
}

bool AllZero(ByteSpan data) {
  for (const uint8_t b : data) {
    if (b != 0) return false;
  }
  return true;
}

// --- Deterministic formats (no persisted metadata) ---

class DeterministicFormat final : public EncryptionFormat {
 public:
  DeterministicFormat(EncryptionSpec spec, ByteSpan master_key)
      : EncryptionFormat(spec) {
    switch (spec_.mode) {
      case CipherMode::kNone:
        break;
      case CipherMode::kXtsLba:
        xts_.emplace(master_key);
        break;
      case CipherMode::kXtsEssiv:
        xts_.emplace(master_key);
        essiv_.emplace(master_key);
        break;
      case CipherMode::kWideLba:
        wide_.emplace(ByteSpan(DeriveSubkey(master_key, "wide-block", 64)));
        break;
      default:
        assert(false && "random-IV modes use RandomIvFormat");
    }
  }

  Status MakeWrite(const ObjectExtent& ext, ByteSpan plain,
                   Transaction& txn, IvRows* ivs_out) override {
    assert(plain.size() == ext.block_count * kBlockSize);
    static_cast<void>(ivs_out);  // no per-sector metadata to report
    Bytes cipher(plain.size());
    for (size_t b = 0; b < ext.block_count; ++b) {
      CryptBlock(ext.image_block + b, plain.subspan(b * kBlockSize, kBlockSize),
                 MutByteSpan(cipher.data() + b * kBlockSize, kBlockSize),
                 /*encrypt=*/true);
    }
    txn.ops.push_back(
        DataWriteOp(ext.first_block * kBlockSize, std::move(cipher)));
    return Status::Ok();
  }

  void MakeRead(const ObjectExtent& ext, Transaction& txn) const override {
    txn.ops.push_back(DataReadOp(ext.first_block * kBlockSize,
                                 ext.block_count * kBlockSize));
  }

  size_t ReadBytes(const ObjectExtent& ext) const override {
    return ext.block_count * kBlockSize;
  }

  Status FinishRead(const ObjectExtent& ext,
                    const objstore::ReadResult& result,
                    MutByteSpan out, IvRows* ivs_out,
                    const DiscardBitmap* zeros) override {
    static_cast<void>(ivs_out);  // no per-sector metadata to report
    static_cast<void>(zeros);    // no authentication: legacy marker only
    if (result.data.size() != ext.block_count * kBlockSize) {
      return Status::IoError("short read");
    }
    for (size_t b = 0; b < ext.block_count; ++b) {
      const ByteSpan ct(result.data.data() + b * kBlockSize, kBlockSize);
      MutByteSpan dst = out.subspan(b * kBlockSize, kBlockSize);
      // All-zero ciphertext is the cleared marker (trimmed / never written);
      // decrypting it would fabricate garbage where the disk holds nothing.
      if (spec_.mode != CipherMode::kNone && AllZero(ct)) {
        std::fill(dst.begin(), dst.end(), 0);
        continue;
      }
      CryptBlock(ext.image_block + b, ct, dst, /*encrypt=*/false);
    }
    return Status::Ok();
  }

  void MakeDiscard(const ObjectExtent& ext, Transaction& txn) override {
    txn.ops.push_back(TrimOp(ext.first_block * kBlockSize,
                             ext.block_count * kBlockSize));
  }

 private:
  void CryptBlock(uint64_t lba, ByteSpan in, MutByteSpan out, bool encrypt) {
    uint8_t tweak[16] = {};
    switch (spec_.mode) {
      case CipherMode::kNone:
        std::memcpy(out.data(), in.data(), in.size());
        return;
      case CipherMode::kXtsLba:
        // LUKS2 convention: little-endian sector number as the XTS tweak.
        StoreU64Le(tweak, lba);
        break;
      case CipherMode::kXtsEssiv:
        essiv_->DeriveIv(lba, tweak);
        break;
      case CipherMode::kWideLba: {
        StoreU64Le(tweak, lba);
        if (encrypt) {
          wide_->Encrypt(ByteSpan(tweak, 16), in, out);
        } else {
          wide_->Decrypt(ByteSpan(tweak, 16), in, out);
        }
        return;
      }
      default:
        assert(false);
    }
    if (encrypt) {
      xts_->Encrypt(ByteSpan(tweak, 16), in, out);
    } else {
      xts_->Decrypt(ByteSpan(tweak, 16), in, out);
    }
  }

  std::optional<crypto::XtsCipher> xts_;
  std::optional<crypto::Essiv> essiv_;
  std::optional<crypto::WideBlockCipher> wide_;
};

// --- Random-IV formats: the paper's scheme ---

class RandomIvFormat final : public EncryptionFormat {
 public:
  RandomIvFormat(EncryptionSpec spec, ByteSpan master_key,
                 uint64_t object_size)
      : EncryptionFormat(spec),
        object_size_(object_size),
        rng_(spec.iv_seed == 0 ? crypto::Drbg() : crypto::Drbg(spec.iv_seed)),
        iv_mask_(crypto::MakeAes(DeriveSubkey(master_key, "iv-mask", 32))) {
    if (spec_.mode == CipherMode::kGcmRandom) {
      gcm_.emplace(DeriveSubkey(master_key, "gcm", 32));
    } else {
      xts_.emplace(master_key);
      if (spec_.integrity == Integrity::kHmac) {
        hmac_key_ = DeriveSubkey(master_key, "integrity", 32);
      }
    }
    if (AuthenticatedTrim()) {
      trim_key_ = DeriveSubkey(master_key, "discard-bitmap", 32);
    }
  }

  Status MakeWrite(const ObjectExtent& ext, ByteSpan plain,
                   Transaction& txn, IvRows* ivs_out) override {
    assert(plain.size() == ext.block_count * kBlockSize);
    const size_t meta = spec_.MetaPerBlock();
    // Per-block ciphertext and metadata. With compression on, a block's
    // ciphertext occupies only stored[b] bytes at the head of its 4 KiB
    // slot (the buffer's zero tail fills the rest of the slot on disk, and
    // a tail trim below releases its capacity).
    Bytes cipher(plain.size());
    Bytes metas(ext.block_count * meta);
    std::vector<size_t> stored(ext.block_count, kBlockSize);
    for (size_t b = 0; b < ext.block_count; ++b) {
      stored[b] = EncryptBlock(
          ext.image_block + b, plain.subspan(b * kBlockSize, kBlockSize),
          MutByteSpan(cipher.data() + b * kBlockSize, kBlockSize),
          MutByteSpan(metas.data() + b * meta, meta));
    }
    if (ivs_out != nullptr) {
      for (size_t b = 0; b < ext.block_count; ++b) {
        ivs_out->emplace_back(metas.begin() + static_cast<long>(b * meta),
                              metas.begin() + static_cast<long>((b + 1) * meta));
      }
    }

    switch (spec_.layout) {
      case IvLayout::kUnaligned: {
        // Interleave: [ct0|m0|ct1|m1|...] at stride boundaries (Fig. 2a).
        const size_t stride = kBlockSize + meta;
        Bytes buf(ext.block_count * stride);
        for (size_t b = 0; b < ext.block_count; ++b) {
          std::memcpy(buf.data() + b * stride, cipher.data() + b * kBlockSize,
                      kBlockSize);
          std::memcpy(buf.data() + b * stride + kBlockSize,
                      metas.data() + b * meta, meta);
        }
        txn.ops.push_back(
            DataWriteOp(ext.first_block * stride, std::move(buf)));
        break;
      }
      case IvLayout::kObjectEnd: {
        // Data in place + batched IV region after the object (Fig. 2b);
        // both ops ride one atomic transaction.
        txn.ops.push_back(
            DataWriteOp(ext.first_block * kBlockSize, std::move(cipher)));
        txn.ops.push_back(DataWriteOp(object_size_ + ext.first_block * meta,
                                      std::move(metas)));
        break;
      }
      case IvLayout::kOmap: {
        txn.ops.push_back(
            DataWriteOp(ext.first_block * kBlockSize, std::move(cipher)));
        OsdOp op;
        op.type = OsdOp::Type::kOmapSet;
        op.omap_kvs.reserve(ext.block_count);
        for (size_t b = 0; b < ext.block_count; ++b) {
          op.omap_kvs.emplace_back(
              BlockKey(ext.first_block + b),
              Bytes(metas.begin() + static_cast<long>(b * meta),
                    metas.begin() + static_cast<long>((b + 1) * meta)));
        }
        txn.ops.push_back(std::move(op));
        break;
      }
      case IvLayout::kNone:
        return Status::InvalidArgument("random IV requires a layout");
    }
    // Short ciphertexts become genuinely sparse: release each block's slot
    // tail through the store's punched pool, in the SAME transaction as the
    // data and metadata ops (§3.1 atomicity — a reader never sees the data
    // without its tail state). A rewrite's full-slot data op restores the
    // punched range before the new tail trim re-punches it.
    if (HeaderBytes() > 0) {
      const size_t slot = spec_.layout == IvLayout::kUnaligned
                              ? kBlockSize + meta
                              : kBlockSize;
      for (size_t b = 0; b < ext.block_count; ++b) {
        if (stored[b] < kBlockSize) {
          txn.ops.push_back(TrimOp((ext.first_block + b) * slot + stored[b],
                                   kBlockSize - stored[b]));
        }
      }
    }
    return Status::Ok();
  }

  void MakeRead(const ObjectExtent& ext, Transaction& txn) const override {
    const size_t meta = spec_.MetaPerBlock();
    switch (spec_.layout) {
      case IvLayout::kUnaligned: {
        const size_t stride = kBlockSize + meta;
        txn.ops.push_back(
            DataReadOp(ext.first_block * stride, ext.block_count * stride));
        break;
      }
      case IvLayout::kObjectEnd: {
        txn.ops.push_back(DataReadOp(ext.first_block * kBlockSize,
                                     ext.block_count * kBlockSize));
        txn.ops.push_back(DataReadOp(object_size_ + ext.first_block * meta,
                                     ext.block_count * meta));
        break;
      }
      case IvLayout::kOmap: {
        txn.ops.push_back(DataReadOp(ext.first_block * kBlockSize,
                                     ext.block_count * kBlockSize));
        OsdOp op;
        op.type = OsdOp::Type::kOmapGetRange;
        op.omap_start = BlockKey(ext.first_block);
        op.omap_end = BlockKey(ext.first_block + ext.block_count);
        txn.ops.push_back(std::move(op));
        break;
      }
      case IvLayout::kNone:
        assert(false && "random IV requires a layout");
    }
  }

  size_t ReadBytes(const ObjectExtent& ext) const override {
    const size_t meta = spec_.MetaPerBlock();
    switch (spec_.layout) {
      case IvLayout::kUnaligned:
      case IvLayout::kObjectEnd:
        // Interleaved stride or data range + IV-region slice: same total.
        return ext.block_count * (kBlockSize + meta);
      case IvLayout::kOmap:
        return ext.block_count * kBlockSize;
      case IvLayout::kNone:
        break;
    }
    return 0;
  }

  bool DataOnlyReadProfitable(const ObjectExtent& ext) const override {
    switch (spec_.layout) {
      case IvLayout::kUnaligned:
        // Data-only must skip the inline IV after every block: one op per
        // block, so the per-op OSD cost swamps the byte savings except for
        // the single-block RMW edge reads.
        return ext.block_count == 1;
      case IvLayout::kObjectEnd:
      case IvLayout::kOmap:
        return true;  // drops the IV-region read / the OMAP lookup outright
      case IvLayout::kNone:
        break;
    }
    return false;
  }

  void MakeReadDataOnly(const ObjectExtent& ext,
                        Transaction& txn) const override {
    const size_t meta = spec_.MetaPerBlock();
    switch (spec_.layout) {
      case IvLayout::kUnaligned: {
        // One data op per block at its stride position, skipping the
        // interleaved IV bytes.
        const size_t stride = kBlockSize + meta;
        for (size_t b = 0; b < ext.block_count; ++b) {
          txn.ops.push_back(
              DataReadOp((ext.first_block + b) * stride, kBlockSize));
        }
        break;
      }
      case IvLayout::kObjectEnd:
      case IvLayout::kOmap:
        txn.ops.push_back(DataReadOp(ext.first_block * kBlockSize,
                                     ext.block_count * kBlockSize));
        break;
      case IvLayout::kNone:
        assert(false && "random IV requires a layout");
    }
  }

  size_t MetaReadBytes(const ObjectExtent& ext) const override {
    const size_t meta = spec_.MetaPerBlock();
    switch (spec_.layout) {
      case IvLayout::kUnaligned:
      case IvLayout::kObjectEnd:
        return ext.block_count * meta;
      case IvLayout::kOmap:
        // Rows come back as (8-byte block key, value) pairs.
        return ext.block_count * (8 + meta);
      case IvLayout::kNone:
        break;
    }
    return 0;
  }

  Status FinishRead(const ObjectExtent& ext,
                    const objstore::ReadResult& result,
                    MutByteSpan out, IvRows* ivs_out,
                    const DiscardBitmap* zeros) override {
    const size_t meta = spec_.MetaPerBlock();
    const size_t n = ext.block_count;
    // Gather (ciphertext, metadata) per block from the layout. An empty
    // metadata span marks a block with no stored IV (OMAP row absent).
    std::vector<ByteSpan> cts(n), ms(n);
    switch (spec_.layout) {
      case IvLayout::kUnaligned: {
        const size_t stride = kBlockSize + meta;
        if (result.data.size() != n * stride) {
          return Status::IoError("short unaligned read");
        }
        for (size_t b = 0; b < n; ++b) {
          cts[b] = ByteSpan(result.data.data() + b * stride, kBlockSize);
          ms[b] = ByteSpan(result.data.data() + b * stride + kBlockSize, meta);
        }
        break;
      }
      case IvLayout::kObjectEnd: {
        // ExecuteRead concatenates op results: data then IV region.
        if (result.data.size() != n * (kBlockSize + meta)) {
          return Status::IoError("short object-end read");
        }
        const uint8_t* metas_base = result.data.data() + n * kBlockSize;
        for (size_t b = 0; b < n; ++b) {
          cts[b] = ByteSpan(result.data.data() + b * kBlockSize, kBlockSize);
          ms[b] = ByteSpan(metas_base + b * meta, meta);
        }
        break;
      }
      case IvLayout::kOmap: {
        if (result.data.size() != n * kBlockSize) {
          return Status::IoError("short omap-layout read");
        }
        // Rows are matched by block key: `result` may carry rows for other
        // extents batched into the same transaction, and rows for trimmed
        // or never-written blocks are absent or empty.
        for (size_t b = 0; b < n; ++b) {
          cts[b] = ByteSpan(result.data.data() + b * kBlockSize, kBlockSize);
        }
        for (const auto& [k, value] : result.omap_values) {
          if (k.size() != 8) continue;
          const uint64_t blk = LoadU64Be(k.data());
          if (blk < ext.first_block || blk >= ext.first_block + n) continue;
          if (!value.empty() && value.size() != meta) {
            return Status::Corruption("omap IV size mismatch");
          }
          ms[blk - ext.first_block] = ByteSpan(value);
        }
        break;
      }
      case IvLayout::kNone:
        return Status::InvalidArgument("random IV requires a layout");
    }

    VDE_RETURN_IF_ERROR(DecryptGathered(ext, cts, ms, out, zeros));
    if (ivs_out != nullptr) {
      for (size_t b = 0; b < n; ++b) {
        // Cleared/absent rows are reported empty — the cache layer treats
        // them as "nothing to cache" (no negative caching of trims).
        ivs_out->emplace_back(AllZero(ms[b]) ? Bytes{}
                                             : Bytes(ms[b].begin(),
                                                     ms[b].end()));
      }
    }
    return Status::Ok();
  }

  Status FinishReadWithIvs(const ObjectExtent& ext,
                           const objstore::ReadResult& result,
                           const IvRows& ivs, MutByteSpan out,
                           const DiscardBitmap* zeros) override {
    const size_t n = ext.block_count;
    if (ivs.size() != n) {
      return Status::InvalidArgument("IV row count mismatch");
    }
    if (result.data.size() != n * kBlockSize) {
      return Status::IoError("short data-only read");
    }
    std::vector<ByteSpan> cts(n), ms(n);
    for (size_t b = 0; b < n; ++b) {
      cts[b] = ByteSpan(result.data.data() + b * kBlockSize, kBlockSize);
      ms[b] = ByteSpan(ivs[b]);
    }
    return DecryptGathered(ext, cts, ms, out, zeros);
  }

  void MakeDiscard(const ObjectExtent& ext, Transaction& txn) override {
    const size_t meta = spec_.MetaPerBlock();
    switch (spec_.layout) {
      case IvLayout::kUnaligned: {
        // Interleaved data+IV release in one range — inherently atomic.
        const size_t stride = kBlockSize + meta;
        txn.ops.push_back(
            TrimOp(ext.first_block * stride, ext.block_count * stride));
        break;
      }
      case IvLayout::kObjectEnd: {
        // Data release + IV-region release ride ONE transaction (§3.1).
        txn.ops.push_back(TrimOp(ext.first_block * kBlockSize,
                                 ext.block_count * kBlockSize));
        txn.ops.push_back(TrimOp(object_size_ + ext.first_block * meta,
                                 ext.block_count * meta));
        break;
      }
      case IvLayout::kOmap: {
        txn.ops.push_back(TrimOp(ext.first_block * kBlockSize,
                                 ext.block_count * kBlockSize));
        // Empty row value = cleared marker (a deleted row is
        // indistinguishable from "IV lost" for snapshots, so keep the key).
        OsdOp op;
        op.type = OsdOp::Type::kOmapSet;
        op.omap_kvs.reserve(ext.block_count);
        for (size_t b = 0; b < ext.block_count; ++b) {
          op.omap_kvs.emplace_back(BlockKey(ext.first_block + b), Bytes{});
        }
        txn.ops.push_back(std::move(op));
        break;
      }
      case IvLayout::kNone:
        assert(false && "random IV requires a layout");
    }
  }

  // --- Authenticated discard bitmap (HMAC/GCM formats) ---

  bool AuthenticatedTrim() const override {
    return spec_.mode == CipherMode::kGcmRandom ||
           spec_.integrity == Integrity::kHmac;
  }

  size_t BitmapRecordBytes() const override {
    return DiscardBitmap::ByteLength(BlocksPerObject()) + kBitmapMacSize +
           kBitmapEpochSize;
  }

  Bytes SealBitmap(uint64_t object_no, const DiscardBitmap& bitmap,
                   uint64_t epoch) const override {
    assert(AuthenticatedTrim());
    assert(bitmap.bits() == BlocksPerObject());
    Bytes out = bitmap.bytes();
    const auto tag = BitmapMac(object_no, bitmap.bytes(), epoch);
    out.insert(out.end(), tag.begin(), tag.begin() + kBitmapMacSize);
    if (epoch != 0) {
      uint8_t epoch_le[kBitmapEpochSize];
      StoreU64Le(epoch_le, epoch);
      out.insert(out.end(), epoch_le, epoch_le + kBitmapEpochSize);
    }
    return out;
  }

  Status OpenBitmap(uint64_t object_no, ByteSpan raw, DiscardBitmap* out,
                    uint64_t* epoch_out) const override {
    assert(AuthenticatedTrim());
    const size_t legacy_size = BitmapRecordBytes() - kBitmapEpochSize;
    if (raw.size() != BitmapRecordBytes() && raw.size() != legacy_size) {
      return Status::Corruption("discard bitmap record size mismatch");
    }
    if (AllZero(raw)) {
      // The store pads reads with zeros: an all-zero record is a bitmap
      // that was never persisted — or was wiped to forge discards.
      return Status::Corruption("discard bitmap missing or zeroed");
    }
    // An epoch-bearing record trails its little-endian epoch; a legacy
    // record (read through the wider current-size window) ends at the MAC
    // and shows only zero padding past it. A sealed epoch is never 0, so
    // the two cannot be confused — and since the epoch is inside the MAC,
    // stripping it off a current record fails authentication.
    uint64_t epoch = 0;
    if (raw.size() == BitmapRecordBytes()) {
      const ByteSpan trailer = raw.subspan(legacy_size, kBitmapEpochSize);
      epoch = LoadU64Le(trailer.data());
    }
    const ByteSpan bits = raw.subspan(0, legacy_size - kBitmapMacSize);
    const ByteSpan mac = raw.subspan(legacy_size - kBitmapMacSize,
                                     kBitmapMacSize);
    const auto tag = BitmapMac(object_no, bits, epoch);
    if (!ConstantTimeEqual(ByteSpan(tag.data(), kBitmapMacSize), mac)) {
      return Status::Corruption("discard bitmap authentication failed");
    }
    auto bitmap = DiscardBitmap::FromBytes(bits, BlocksPerObject());
    if (!bitmap.ok()) return bitmap.status();
    *out = std::move(bitmap).value();
    if (epoch_out != nullptr) *epoch_out = epoch;
    return Status::Ok();
  }

  void MakeBitmapWrite(uint64_t object_no, Bytes sealed,
                       Transaction& txn) const override {
    static_cast<void>(object_no);
    assert(sealed.size() == BitmapRecordBytes() ||
           sealed.size() == BitmapRecordBytes() - kBitmapEpochSize);
    if (spec_.layout == IvLayout::kOmap) {
      OsdOp op;
      op.type = OsdOp::Type::kOmapSet;
      op.omap_kvs.emplace_back(BitmapOmapKey(), std::move(sealed));
      txn.ops.push_back(std::move(op));
      return;
    }
    // Region layouts overwrite in place: pad a legacy record to the full
    // window so it cannot inherit a stale epoch trailer from a previous
    // epoch-bearing record at the same offset.
    sealed.resize(BitmapRecordBytes(), 0);
    txn.ops.push_back(DataWriteOp(BitmapOffset(), std::move(sealed)));
  }

  void MakeBitmapRead(Transaction& txn) const override {
    if (spec_.layout == IvLayout::kOmap) {
      // OMAP reads succeed on absent objects, which would make a wiped
      // bitmap row indistinguishable from a fresh object. A 1-byte kRead
      // existence probe rides the same transaction: a missing OBJECT
      // surfaces as NotFound, so Ok + no row can only mean the row was
      // wiped — corruption, exactly like the region geometries.
      txn.ops.push_back(DataReadOp(0, 1));
      OsdOp op;
      op.type = OsdOp::Type::kOmapGetRange;
      op.omap_start = BitmapOmapKey();
      op.omap_end = BitmapOmapKey();
      op.omap_end.push_back(0);  // half-open: exactly the bitmap row
      txn.ops.push_back(std::move(op));
      return;
    }
    txn.ops.push_back(DataReadOp(BitmapOffset(), BitmapRecordBytes()));
  }

  Result<Bytes> FinishBitmapRead(
      const objstore::ReadResult& result) const override {
    if (spec_.layout == IvLayout::kOmap) {
      if (result.data.size() != 1) {  // the existence probe's byte
        return Status::IoError("short discard-bitmap probe");
      }
      for (const auto& [k, v] : result.omap_values) {
        if (k == BitmapOmapKey()) return Bytes(v);
      }
      return Bytes{};  // row absent on an EXISTING object: wiped
    }
    if (result.data.size() != BitmapRecordBytes()) {
      return Status::IoError("short discard-bitmap read");
    }
    if (AllZero(result.data)) return Bytes{};  // zero padding: no record
    return result.data;
  }

  sim::SimTime CryptoCost(size_t bytes) const override {
    // GCM pays GHASH on top of the block cipher.
    const double gbps = spec_.mode == CipherMode::kGcmRandom ? 1.3 : 2.5;
    return 2 * sim::kUs +
           static_cast<sim::SimTime>(static_cast<double>(bytes) / gbps);
  }

 private:
  size_t BlocksPerObject() const { return object_size_ / kBlockSize; }

  // Bitmap home for the region layouts: past the stride area (unaligned)
  // or past the IV region (object-end) — inside the per-object allocation
  // slack either way, and covered by the same clone machinery as the data.
  uint64_t BitmapOffset() const {
    const size_t meta = spec_.MetaPerBlock();
    return spec_.layout == IvLayout::kUnaligned
               ? BlocksPerObject() * (kBlockSize + meta)
               : object_size_ + BlocksPerObject() * meta;
  }

  std::array<uint8_t, 32> BitmapMac(uint64_t object_no, ByteSpan bits,
                                    uint64_t epoch) const {
    crypto::HmacSha256Stream mac(trim_key_);
    mac.Update(bits);
    uint8_t no_le[8];
    StoreU64Le(no_le, object_no);
    mac.Update(ByteSpan(no_le, 8));
    if (epoch != 0) {
      // Epoch-bearing records bind the write generation into the tag;
      // epoch 0 keeps the exact legacy preimage, so pre-epoch records
      // verify and a stripped-off trailer cannot downgrade a sealed one.
      uint8_t epoch_le[8];
      StoreU64Le(epoch_le, epoch);
      mac.Update(ByteSpan(epoch_le, 8));
    }
    return mac.Finish();
  }

  // Shared decrypt tail of FinishRead / FinishReadWithIvs: per-block
  // (ciphertext, metadata) pairs to plaintext, with the cleared-marker
  // semantics. Cleared metadata (discard/write-zeroes) or an absent OMAP
  // row means the block holds nothing; require the ciphertext to agree, so
  // a lost IV for real data still surfaces as corruption. With `zeros`
  // (the object's verified discard bitmap) the marker itself is
  // authenticated: a cleared block whose bit is not set is an attacker
  // zeroing ciphertext+metadata to forge a discard, and the read fails.
  // Without `zeros` (formats below HMAC/GCM, or stateless callers) the
  // marker stays unauthenticated, like TRIM on real AEAD disks.
  Status DecryptGathered(const ObjectExtent& ext,
                         const std::vector<ByteSpan>& cts,
                         const std::vector<ByteSpan>& ms, MutByteSpan out,
                         const DiscardBitmap* zeros) {
    for (size_t b = 0; b < ext.block_count; ++b) {
      MutByteSpan dst = out.subspan(b * kBlockSize, kBlockSize);
      if (ms[b].empty() || AllZero(ms[b])) {
        if (!AllZero(cts[b])) {
          return Status::Corruption("missing IV for non-empty block");
        }
        if (zeros != nullptr && AuthenticatedTrim() &&
            !zeros->Test(ext.first_block + b)) {
          return Status::Corruption(
              "cleared block without authentic discard (erase channel)");
        }
        std::fill(dst.begin(), dst.end(), 0);
        continue;
      }
      VDE_RETURN_IF_ERROR(DecryptBlock(ext.image_block + b, cts[b], ms[b],
                                       dst));
    }
    return Status::Ok();
  }

  // Replay-to-other-LBA defense: the effective XTS tweak binds the stored
  // random IV to the absolute block address (paper §2.2: "include the
  // sector number as part of the IV").
  void LbaMask(uint64_t lba, uint8_t mask[16]) const {
    uint8_t block[16] = {};
    StoreU64Le(block, lba);
    iv_mask_->EncryptBlock(block, mask);
  }

  // Per-block metadata header bytes (compression on: [codec][stored u16le]).
  size_t HeaderBytes() const {
    return spec_.compression.enabled() ? kCompressHeaderSize : 0;
  }

  // Largest compressed size worth storing: the block must gain at least
  // min_gain_pct of its logical size, and always at least one byte.
  size_t CompressLimit() const {
    const size_t gain =
        static_cast<size_t>(kBlockSize) * spec_.compression.min_gain_pct / 100;
    return kBlockSize - std::max<size_t>(gain, 1);
  }

  // Encrypts one block (compressing first when the spec has a codec) into
  // the head of `cipher` and fills its metadata row. Returns the stored
  // ciphertext length: kBlockSize for verbatim/uncompressed blocks, else
  // the padded compressed length — the caller trims the slot tail past it.
  // `cipher`'s tail beyond the returned length must arrive zeroed (MakeWrite
  // hands out slices of a fresh buffer).
  size_t EncryptBlock(uint64_t lba, ByteSpan plain, MutByteSpan cipher,
                      MutByteSpan meta_out) {
    const size_t header = HeaderBytes();
    Bytes packed;
    ByteSpan payload = plain;
    if (header > 0) {
      compress_stats_.in_bytes += plain.size();
      packed.resize(CompressLimit());
      const size_t clen = LzCompress(plain, packed);
      if (clen > 0) {
        packed.resize(StoredLen(clen), 0);  // zero-pad up to the cipher floor
        payload = packed;
        compress_stats_.compressed_blocks++;
        compress_stats_.stored_bytes += payload.size();
        meta_out[0] = static_cast<uint8_t>(spec_.compression.codec);
        StoreU16Le(meta_out.data() + 1, static_cast<uint16_t>(clen));
      } else {
        compress_stats_.verbatim_blocks++;
        compress_stats_.stored_bytes += kBlockSize;
        meta_out[0] = static_cast<uint8_t>(Compression::kNone);
        StoreU16Le(meta_out.data() + 1, static_cast<uint16_t>(kBlockSize));
      }
    }
    const ByteSpan hdr = ByteSpan(meta_out.data(), header);
    const MutByteSpan base = meta_out.subspan(header);
    const MutByteSpan ct = cipher.subspan(0, payload.size());
    if (spec_.mode == CipherMode::kGcmRandom) {
      // meta = nonce (12) || tag (16); AAD binds the LBA (and, with
      // compression, the codec/length header — a tampered header fails
      // authentication before it can misdirect the decompressor).
      rng_.Generate(base.subspan(0, crypto::kGcmIvSize));
      uint8_t aad[8 + kCompressHeaderSize];
      StoreU64Le(aad, lba);
      std::memcpy(aad + 8, hdr.data(), header);
      gcm_->Seal(base.subspan(0, crypto::kGcmIvSize),
                 ByteSpan(aad, 8 + header), payload, ct,
                 base.subspan(crypto::kGcmIvSize));
      return payload.size();
    }
    // meta = random IV (16) [|| HMAC tag (32)].
    rng_.Generate(base.subspan(0, kIvSize));
    uint8_t tweak[16];
    LbaMask(lba, tweak);
    for (size_t i = 0; i < kIvSize; ++i) tweak[i] ^= base[i];
    xts_->Encrypt(ByteSpan(tweak, 16), payload, ct);
    if (spec_.integrity == Integrity::kHmac) {
      crypto::HmacSha256Stream mac(hmac_key_);
      mac.Update(hdr);  // no-op with compression off: identical preimage
      mac.Update(ct);
      uint8_t lba_le[8];
      StoreU64Le(lba_le, lba);
      mac.Update(ByteSpan(lba_le, 8));
      mac.Update(base.subspan(0, kIvSize));
      const auto tag = mac.Finish();
      std::memcpy(base.data() + kIvSize, tag.data(), kHmacTagSize);
    }
    return payload.size();
  }

  Status DecryptBlock(uint64_t lba, ByteSpan cipher, ByteSpan meta,
                      MutByteSpan plain) {
    // With compression on, the row leads with [codec][stored length]; only
    // that many ciphertext bytes are live (the slot tail is trimmed junk).
    const size_t header = HeaderBytes();
    uint8_t codec = static_cast<uint8_t>(Compression::kNone);
    size_t clen = kBlockSize;
    if (header > 0) {
      if (meta.size() != spec_.MetaPerBlock()) {
        return Status::Corruption("metadata row size mismatch");
      }
      codec = meta[0];
      clen = LoadU16Le(meta.data() + 1);
      if (codec > static_cast<uint8_t>(Compression::kLz) || clen == 0 ||
          clen > kBlockSize ||
          (codec == static_cast<uint8_t>(Compression::kNone) &&
           clen != kBlockSize)) {
        return Status::Corruption("bad compression header");
      }
      cipher = cipher.subspan(0, StoredLen(clen));
    }
    const ByteSpan hdr = ByteSpan(meta.data(), header);
    const ByteSpan base = meta.subspan(header);
    const bool compressed = codec != static_cast<uint8_t>(Compression::kNone);
    Bytes scratch;
    MutByteSpan dst = plain;
    if (compressed) {
      scratch.resize(cipher.size());
      dst = scratch;
    }
    if (spec_.mode == CipherMode::kGcmRandom) {
      uint8_t aad[8 + kCompressHeaderSize];
      StoreU64Le(aad, lba);
      std::memcpy(aad + 8, hdr.data(), header);
      if (!gcm_->Open(base.subspan(0, crypto::kGcmIvSize),
                      ByteSpan(aad, 8 + header), cipher, dst,
                      base.subspan(crypto::kGcmIvSize))) {
        return Status::Corruption("GCM authentication failed");
      }
      return compressed ? Expand(ByteSpan(scratch).first(clen), plain)
                        : Status::Ok();
    }
    if (spec_.integrity == Integrity::kHmac) {
      crypto::HmacSha256Stream mac(hmac_key_);
      mac.Update(hdr);
      mac.Update(cipher);
      uint8_t lba_le[8];
      StoreU64Le(lba_le, lba);
      mac.Update(ByteSpan(lba_le, 8));
      mac.Update(base.subspan(0, kIvSize));
      const auto tag = mac.Finish();
      if (!ConstantTimeEqual(ByteSpan(tag.data(), kHmacTagSize),
                             base.subspan(kIvSize, kHmacTagSize))) {
        return Status::Corruption("HMAC verification failed");
      }
    }
    uint8_t tweak[16];
    LbaMask(lba, tweak);
    for (size_t i = 0; i < kIvSize; ++i) tweak[i] ^= base[i];
    xts_->Decrypt(ByteSpan(tweak, 16), cipher, dst);
    return compressed ? Expand(ByteSpan(scratch).first(clen), plain)
                      : Status::Ok();
  }

  // Decompression tail of DecryptBlock: `packed` is the true-length
  // compressed plaintext (pad already stripped). The codec's own bounds
  // checks make a corrupted-but-authentic stream (impossible under
  // HMAC/GCM, reachable without integrity) fail closed.
  Status Expand(ByteSpan packed, MutByteSpan plain) {
    compress_stats_.decompressed_blocks++;
    return LzDecompress(packed, plain);
  }

  uint64_t object_size_;
  crypto::Drbg rng_;
  std::unique_ptr<crypto::BlockCipher> iv_mask_;
  std::optional<crypto::XtsCipher> xts_;
  std::optional<crypto::GcmCipher> gcm_;
  Bytes hmac_key_;
  Bytes trim_key_;  // discard-bitmap MAC subkey (AuthenticatedTrim only)
};

}  // namespace

sim::SimTime EncryptionFormat::CryptoCost(size_t bytes) const {
  if (spec_.mode == CipherMode::kNone) return 0;
  const double gbps = spec_.mode == CipherMode::kWideLba ? 0.9 : 2.5;
  return 2 * sim::kUs +
         static_cast<sim::SimTime>(static_cast<double>(bytes) / gbps);
}

sim::SimTime EncryptionFormat::CompressCost(size_t bytes) const {
  if (!spec_.compression.enabled() || bytes == 0) return 0;
  // LZ-class match finding streams at ~2.0 GB/s; setup (hash-table clear,
  // no key schedule or EVP context) is far below a cipher call's 2 us.
  return 300 * sim::kNs +
         static_cast<sim::SimTime>(static_cast<double>(bytes) / 2.0);
}

sim::SimTime EncryptionFormat::DecompressCost(size_t bytes) const {
  if (!spec_.compression.enabled() || bytes == 0) return 0;
  // Decode is copy-dominated: ~3.5 GB/s, near-zero setup.
  return 100 * sim::kNs +
         static_cast<sim::SimTime>(static_cast<double>(bytes) / 3.5);
}

sim::SimTime EncryptionFormat::SubBlockMergeCost() const {
  switch (spec_.mode) {
    case CipherMode::kNone:
      return 0;
    case CipherMode::kGcmRandom:
      // GCM re-tags the whole block on merge: GHASH over 4 KiB dominates.
      return 700 * sim::kNs;
    default:
      // AES-NI short-buffer call: tweak derivation + pipeline fill, far
      // below a streaming 4 KiB pass (bench_crypto's 512 B points).
      return 500 * sim::kNs;
  }
}

// Defaults for formats without per-sector metadata: there is nothing a
// cached IV row could skip.
bool EncryptionFormat::DataOnlyReadProfitable(const ObjectExtent&) const {
  return false;
}

void EncryptionFormat::MakeReadDataOnly(const ObjectExtent&,
                                        objstore::Transaction&) const {
  assert(false && "data-only read on a format without metadata");
}

size_t EncryptionFormat::MetaReadBytes(const ObjectExtent&) const {
  return 0;
}

Status EncryptionFormat::FinishReadWithIvs(const ObjectExtent&,
                                           const objstore::ReadResult&,
                                           const IvRows&, MutByteSpan,
                                           const DiscardBitmap*) {
  return Status::InvalidArgument("format has no data-only read path");
}

// Defaults for formats without ciphertext authentication: no bitmap to
// seal, store, or verify — AuthenticatedTrim() is false and the image
// layer never calls these.
Bytes EncryptionFormat::SealBitmap(uint64_t, const DiscardBitmap&,
                                   uint64_t) const {
  assert(false && "format has no discard bitmap");
  return {};
}

Status EncryptionFormat::OpenBitmap(uint64_t, ByteSpan, DiscardBitmap*,
                                    uint64_t*) const {
  return Status::InvalidArgument("format has no discard bitmap");
}

void EncryptionFormat::MakeBitmapWrite(uint64_t, Bytes,
                                       objstore::Transaction&) const {
  assert(false && "format has no discard bitmap");
}

void EncryptionFormat::MakeBitmapRead(objstore::Transaction&) const {
  assert(false && "format has no discard bitmap");
}

Result<Bytes> EncryptionFormat::FinishBitmapRead(
    const objstore::ReadResult&) const {
  return Status::InvalidArgument("format has no discard bitmap");
}

std::string EncryptionSpec::Name() const {
  std::string name;
  switch (mode) {
    case CipherMode::kNone: return "plain";
    case CipherMode::kXtsLba: return "luks2-xts";
    case CipherMode::kXtsEssiv: return "xts-essiv";
    case CipherMode::kWideLba: return "wide-block";
    case CipherMode::kXtsRandom: name = "xts-random"; break;
    case CipherMode::kGcmRandom: name = "gcm-random"; break;
  }
  switch (layout) {
    case IvLayout::kNone: name += "/none"; break;
    case IvLayout::kUnaligned: name += "/unaligned"; break;
    case IvLayout::kObjectEnd: name += "/object-end"; break;
    case IvLayout::kOmap: name += "/omap"; break;
  }
  if (integrity == Integrity::kHmac) name += "+hmac";
  if (compression.enabled()) name += "+lz";
  return name;
}

size_t EncryptionSpec::MetaPerBlock() const {
  size_t base = 0;
  switch (mode) {
    case CipherMode::kNone:
    case CipherMode::kXtsLba:
    case CipherMode::kXtsEssiv:
    case CipherMode::kWideLba:
      return 0;
    case CipherMode::kXtsRandom:
      base = integrity == Integrity::kHmac ? kIvSize + kHmacTagSize : kIvSize;
      break;
    case CipherMode::kGcmRandom:
      base = kGcmMetaSize;
      break;
  }
  // Compression rides the per-block record: [codec u8][stored_len u16le]
  // ahead of the IV/tag bytes. Off, the record is byte-identical to before.
  if (compression.enabled()) base += kCompressHeaderSize;
  return base;
}

std::unique_ptr<EncryptionFormat> MakeFormat(const EncryptionSpec& spec,
                                             ByteSpan master_key,
                                             uint64_t object_size) {
  assert(master_key.size() == 64 || spec.mode == CipherMode::kNone);
  switch (spec.mode) {
    case CipherMode::kNone:
    case CipherMode::kXtsLba:
    case CipherMode::kXtsEssiv:
    case CipherMode::kWideLba: {
      // Compression needs a per-block record to carry {codec, stored_len};
      // length-preserving formats have nowhere to put one — which is the
      // paper's point.
      if (spec.compression.enabled()) return nullptr;
      static const Bytes kDummy(64, 0);
      return std::make_unique<DeterministicFormat>(
          spec, spec.mode == CipherMode::kNone ? ByteSpan(kDummy)
                                               : master_key);
    }
    case CipherMode::kXtsRandom:
    case CipherMode::kGcmRandom:
      return std::make_unique<RandomIvFormat>(spec, master_key, object_size);
  }
  return nullptr;
}

}  // namespace vde::core
