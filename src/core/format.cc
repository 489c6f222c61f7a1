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

// A byte-range op; a write carries its payload in `data`.
OsdOp RangeOp(OsdOp::Type type, uint64_t offset, uint64_t length,
              Bytes data = {}) {
  OsdOp op;
  op.type = type;
  op.offset = offset;
  op.length = length;
  op.data = std::move(data);
  return op;
}

Bytes BlockKey(uint64_t block_in_object) {
  Bytes key(8);
  StoreU64Be(key.data(), block_in_object);
  return key;
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

// Per-block record header bytes (compression on: [codec][stored u16le]).
size_t HeaderBytes(const EncryptionSpec& spec) {
  return spec.compression.enabled() ? kCompressHeaderSize : 0;
}

// Largest compressed size worth storing: the block must gain at least
// min_gain_pct of its logical size, and always at least one byte.
size_t CompressLimit(const EncryptionSpec& spec) {
  const size_t gain =
      static_cast<size_t>(kBlockSize) * spec.compression.min_gain_pct / 100;
  return kBlockSize - std::max<size_t>(gain, 1);
}

}  // namespace

EncryptionFormat::EncryptionFormat(const EncryptionSpec& spec,
                                   ByteSpan master_key, uint64_t object_size)
    : spec_(spec),
      object_size_(object_size),
      meta_(spec.MetaPerBlock()),
      rng_(spec.iv_seed == 0 ? crypto::Drbg() : crypto::Drbg(spec.iv_seed)) {
  switch (spec_.mode) {
    case CipherMode::kNone:
      break;
    case CipherMode::kXtsEssiv:
      essiv_.emplace(master_key);
      xts_.emplace(master_key);
      break;
    case CipherMode::kXtsLba:
      xts_.emplace(master_key);
      break;
    case CipherMode::kXtsRandom:
      xts_.emplace(master_key);
      iv_mask_ = crypto::MakeAes(DeriveSubkey(master_key, "iv-mask", 32));
      break;
    case CipherMode::kWideLba:
      wide_.emplace(ByteSpan(DeriveSubkey(master_key, "wide-block", 64)));
      break;
    case CipherMode::kGcmRandom:
      gcm_.emplace(DeriveSubkey(master_key, "gcm", 32));
      break;
  }
  if (spec_.integrity == Integrity::kHmac) {
    hmac_key_ = DeriveSubkey(master_key, "integrity", 32);
  }
  if (AuthenticatedTrim()) {
    trim_key_ = DeriveSubkey(master_key, "discard-bitmap", 32);
  }
}

Status EncryptionFormat::MakeWrite(const ObjectExtent& ext, ByteSpan plain,
                                   Transaction& txn, IvRows* ivs_out) {
  assert(plain.size() == ext.block_count * kBlockSize);
  const size_t n = ext.block_count;
  const size_t slot = Slot();
  const bool inline_records = slot > kBlockSize;
  // The data slots (interleaved: [ct0|r0|ct1|r1|...], Fig. 2a) and the
  // records kept outside them. With compression on, a block's ciphertext
  // occupies only stored[b] bytes at the head of its slot (the buffer's
  // zero tail fills the rest on disk, and a tail trim below releases it).
  Bytes data(n * slot);
  Bytes records(inline_records ? 0 : n * meta_);
  std::vector<size_t> stored(n);
  for (size_t b = 0; b < n; ++b) {
    uint8_t* record = inline_records ? data.data() + b * slot + kBlockSize
                                     : records.data() + b * meta_;
    stored[b] = EncryptBlock(ext.image_block + b,
                             plain.subspan(b * kBlockSize, kBlockSize),
                             MutByteSpan(data.data() + b * slot, kBlockSize),
                             MutByteSpan(record, meta_));
    if (ivs_out != nullptr && meta_ > 0) {
      ivs_out->emplace_back(record, record + meta_);
    }
  }
  // Data and records ride one atomic transaction (Fig. 2b/c).
  txn.ops.push_back(RangeOp(OsdOp::Type::kWrite, ext.first_block * slot,
                            n * slot, std::move(data)));
  AppendRecordOp(OsdOp::Type::kWrite, ext, txn, std::move(records));
  // Short ciphertexts become genuinely sparse: release each block's slot
  // tail through the store's punched pool, in the SAME transaction as the
  // data and metadata ops (§3.1 atomicity — a reader never sees the data
  // without its tail state). A rewrite's full-slot data op restores the
  // punched range before the new tail trim re-punches it.
  for (size_t b = 0; b < n; ++b) {
    if (stored[b] < kBlockSize) {
      txn.ops.push_back(RangeOp(OsdOp::Type::kTrim,
                                (ext.first_block + b) * slot + stored[b],
                                kBlockSize - stored[b]));
    }
  }
  return Status::Ok();
}

size_t EncryptionFormat::MakeRead(const ObjectExtent& ext, Transaction& txn,
                                  bool data_only) const {
  const size_t n = ext.block_count;
  if (data_only && Slot() > kBlockSize) {
    // One data op per block at its slot, skipping the inline records.
    for (size_t b = 0; b < n; ++b) {
      txn.ops.push_back(RangeOp(OsdOp::Type::kRead,
                                (ext.first_block + b) * Slot(), kBlockSize));
    }
    return n * kBlockSize;
  }
  txn.ops.push_back(
      RangeOp(OsdOp::Type::kRead, ext.first_block * Slot(), n * Slot()));
  if (data_only) return n * Slot();
  AppendRecordOp(OsdOp::Type::kRead, ext, txn);
  // An object-end region slice adds to the kRead payload; OMAP rows do not.
  return n * Slot() + (spec_.layout == IvLayout::kObjectEnd ? n * meta_ : 0);
}

bool EncryptionFormat::DataOnlyReadProfitable(const ObjectExtent& ext) const {
  // Object-end and OMAP drop the region read / the OMAP lookup outright.
  // Interleaved data-only reads take one op per block, so the per-op OSD
  // cost swamps the byte savings except for single-block RMW edge reads.
  return meta_ > 0 && (Slot() == kBlockSize || ext.block_count == 1);
}

size_t EncryptionFormat::MetaReadBytes(const ObjectExtent& ext) const {
  // OMAP rows come back as (8-byte block key, value) pairs.
  const size_t key = spec_.layout == IvLayout::kOmap ? 8 : 0;
  return ext.block_count * (key + meta_);
}

Status EncryptionFormat::FinishRead(const ObjectExtent& ext,
                                    const objstore::ReadResult& result,
                                    MutByteSpan out, IvRows* ivs_out,
                                    const DiscardBitmap* zeros) {
  const size_t n = ext.block_count;
  const size_t slot = Slot();
  const bool region = spec_.layout == IvLayout::kObjectEnd;
  if (result.data.size() != n * slot + (region ? n * meta_ : 0)) {
    return Status::IoError("short read");
  }
  // Gather (ciphertext, record) per block. ExecuteRead concatenates op
  // results, so an object-end region slice follows the data. An empty
  // record is an absent OMAP row, or the zero-record case.
  const uint8_t* base = result.data.data();
  std::vector<ByteSpan> cts(n), records(n);
  for (size_t b = 0; b < n; ++b) {
    cts[b] = ByteSpan(base + b * slot, kBlockSize);
    if (slot > kBlockSize) {
      records[b] = ByteSpan(base + b * slot + kBlockSize, meta_);
    } else if (region) {
      records[b] = ByteSpan(base + n * slot + b * meta_, meta_);
    }
  }
  if (spec_.layout == IvLayout::kOmap) {
    // Rows are matched by block key: `result` may carry rows for other
    // extents batched into the same transaction, and rows for trimmed or
    // never-written blocks are absent or empty.
    for (const auto& [k, value] : result.omap_values) {
      if (k.size() != 8) continue;
      const uint64_t blk = LoadU64Be(k.data());
      if (blk < ext.first_block || blk >= ext.first_block + n) continue;
      if (!value.empty() && value.size() != meta_) {
        return Status::Corruption("omap IV size mismatch");
      }
      records[blk - ext.first_block] = ByteSpan(value);
    }
  }
  VDE_RETURN_IF_ERROR(DecryptGathered(ext, cts, records, out, zeros));
  if (ivs_out != nullptr && meta_ > 0) {
    for (const ByteSpan record : records) {
      // Cleared/absent rows are reported empty — the cache layer treats
      // them as "nothing to cache" (no negative caching of trims).
      ivs_out->emplace_back(AllZero(record) ? Bytes{}
                                            : Bytes(record.begin(),
                                                    record.end()));
    }
  }
  return Status::Ok();
}

Status EncryptionFormat::FinishReadWithIvs(const ObjectExtent& ext,
                                           const objstore::ReadResult& result,
                                           const IvRows& ivs, MutByteSpan out,
                                           const DiscardBitmap* zeros) {
  const size_t n = ext.block_count;
  if (ivs.size() != n) {
    return Status::InvalidArgument("IV row count mismatch");
  }
  if (result.data.size() != n * kBlockSize) {
    return Status::IoError("short data-only read");
  }
  std::vector<ByteSpan> cts(n), records(ivs.begin(), ivs.end());
  for (size_t b = 0; b < n; ++b) {
    cts[b] = ByteSpan(result.data.data() + b * kBlockSize, kBlockSize);
  }
  return DecryptGathered(ext, cts, records, out, zeros);
}

void EncryptionFormat::MakeDiscard(const ObjectExtent& ext,
                                   Transaction& txn) const {
  // The data slots (inline records included) and the records kept outside
  // them are released in ONE transaction (§3.1).
  txn.ops.push_back(RangeOp(OsdOp::Type::kTrim, ext.first_block * Slot(),
                            ext.block_count * Slot()));
  AppendRecordOp(OsdOp::Type::kTrim, ext, txn);
}

void EncryptionFormat::AppendRecordOp(OsdOp::Type type,
                                      const ObjectExtent& ext,
                                      Transaction& txn, Bytes records) const {
  const size_t n = ext.block_count;
  if (spec_.layout == IvLayout::kObjectEnd) {
    txn.ops.push_back(RangeOp(type, object_size_ + ext.first_block * meta_,
                              n * meta_, std::move(records)));
  } else if (spec_.layout == IvLayout::kOmap) {
    OsdOp op;
    if (type == OsdOp::Type::kRead) {
      op.type = OsdOp::Type::kOmapGetRange;
      op.omap_start = BlockKey(ext.first_block);
      op.omap_end = BlockKey(ext.first_block + n);
    } else {
      // A trim keeps each key with an empty value, the cleared marker (a
      // deleted row is indistinguishable from "IV lost" for snapshots).
      const size_t row = type == OsdOp::Type::kWrite ? meta_ : 0;
      op.type = OsdOp::Type::kOmapSet;
      op.omap_kvs.reserve(n);
      for (size_t b = 0; b < n; ++b) {
        const auto value = records.begin() + static_cast<long>(b * row);
        op.omap_kvs.emplace_back(BlockKey(ext.first_block + b),
                                 Bytes(value, value + static_cast<long>(row)));
      }
    }
    txn.ops.push_back(std::move(op));
  }
}

// --- Authenticated discard bitmap (HMAC/GCM formats) ---

size_t EncryptionFormat::BitmapRecordBytes() const {
  return DiscardBitmap::ByteLength(BlocksPerObject()) + kBitmapMacSize +
         kBitmapEpochSize;
}

Bytes EncryptionFormat::SealBitmap(uint64_t object_no,
                                   const DiscardBitmap& bitmap,
                                   uint64_t epoch) const {
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

Status EncryptionFormat::OpenBitmap(uint64_t object_no, ByteSpan raw,
                                    DiscardBitmap* out,
                                    uint64_t* epoch_out) const {
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
    epoch = LoadU64Le(raw.subspan(legacy_size, kBitmapEpochSize).data());
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

void EncryptionFormat::MakeBitmapWrite(uint64_t object_no, Bytes sealed,
                                       Transaction& txn) const {
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
  txn.ops.push_back(RangeOp(OsdOp::Type::kWrite, BitmapOffset(),
                            BitmapRecordBytes(), std::move(sealed)));
}

void EncryptionFormat::MakeBitmapRead(Transaction& txn) const {
  if (spec_.layout == IvLayout::kOmap) {
    // OMAP reads succeed on absent objects, which would make a wiped
    // bitmap row indistinguishable from a fresh object. A 1-byte kRead
    // existence probe rides the same transaction: a missing OBJECT
    // surfaces as NotFound, so Ok + no row can only mean the row was
    // wiped — corruption, exactly like the region geometries.
    txn.ops.push_back(RangeOp(OsdOp::Type::kRead, 0, 1));
    OsdOp op;
    op.type = OsdOp::Type::kOmapGetRange;
    op.omap_start = BitmapOmapKey();
    op.omap_end = BitmapOmapKey();
    op.omap_end.push_back(0);  // half-open: exactly the bitmap row
    txn.ops.push_back(std::move(op));
    return;
  }
  txn.ops.push_back(
      RangeOp(OsdOp::Type::kRead, BitmapOffset(), BitmapRecordBytes()));
}

Result<Bytes> EncryptionFormat::FinishBitmapRead(
    const objstore::ReadResult& result) const {
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

// Bitmap home for the region layouts: past the slot area (interleaved) or
// past the IV region (object-end) — inside the per-object allocation slack
// either way, and covered by the same clone machinery as the data.
uint64_t EncryptionFormat::BitmapOffset() const {
  return spec_.layout == IvLayout::kObjectEnd
             ? object_size_ + BlocksPerObject() * meta_
             : BlocksPerObject() * Slot();
}

std::array<uint8_t, 32> EncryptionFormat::BitmapMac(uint64_t object_no,
                                                    ByteSpan bits,
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

// --- Per-block crypto ---

// Shared decrypt tail of FinishRead / FinishReadWithIvs: per-block
// (ciphertext, record) pairs to plaintext, with the cleared-marker
// semantics. A cleared (discard/write-zeroes) or absent record means the
// block holds nothing; require the ciphertext to agree, so a lost IV for
// real data still surfaces as corruption. In the zero-record case all-zero
// ciphertext is the marker: decrypting it would fabricate garbage where the
// disk holds nothing. With `zeros` (the object's verified discard bitmap)
// the marker itself is authenticated: a cleared block whose bit is not set
// is an attacker zeroing ciphertext+metadata to forge a discard, and the
// read fails. Without `zeros` (formats below HMAC/GCM, or stateless
// callers) the marker stays unauthenticated, like TRIM on real AEAD disks.
Status EncryptionFormat::DecryptGathered(const ObjectExtent& ext,
                                         const std::vector<ByteSpan>& cts,
                                         const std::vector<ByteSpan>& records,
                                         MutByteSpan out,
                                         const DiscardBitmap* zeros) {
  for (size_t b = 0; b < ext.block_count; ++b) {
    MutByteSpan dst = out.subspan(b * kBlockSize, kBlockSize);
    if (AllZero(meta_ > 0 ? records[b] : cts[b])) {
      if (meta_ > 0 && !AllZero(cts[b])) {
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
    VDE_RETURN_IF_ERROR(
        DecryptBlock(ext.image_block + b, cts[b], records[b], dst));
  }
  return Status::Ok();
}

// Encrypts one block (compressing first when the spec has a codec) into the
// head of `cipher` and fills its record. Returns the stored ciphertext
// length: kBlockSize for verbatim/uncompressed blocks, else the padded
// compressed length — the caller trims the slot tail past it. `cipher`'s
// tail beyond the returned length must arrive zeroed (MakeWrite hands out
// slices of a fresh buffer).
size_t EncryptionFormat::EncryptBlock(uint64_t lba, ByteSpan plain,
                                      MutByteSpan cipher, MutByteSpan record) {
  const size_t header = HeaderBytes(spec_);
  Bytes packed;
  ByteSpan payload = plain;
  if (header > 0) {
    compress_stats_.in_bytes += plain.size();
    packed.resize(CompressLimit(spec_));
    const size_t clen = LzCompress(plain, packed);
    if (clen > 0) {
      packed.resize(StoredLen(clen), 0);  // zero-pad up to the cipher floor
      payload = packed;
      compress_stats_.blocks++;
      compress_stats_.stored_bytes += payload.size();
      record[0] = static_cast<uint8_t>(spec_.compression.codec);
      StoreU16Le(record.data() + 1, static_cast<uint16_t>(clen));
    } else {
      compress_stats_.verbatim_blocks++;
      compress_stats_.stored_bytes += kBlockSize;
      record[0] = static_cast<uint8_t>(Compression::kNone);
      StoreU16Le(record.data() + 1, static_cast<uint16_t>(kBlockSize));
    }
  }
  const ByteSpan hdr = ByteSpan(record.data(), header);
  const MutByteSpan iv = record.subspan(header);
  const MutByteSpan ct = cipher.subspan(0, payload.size());
  if (spec_.mode == CipherMode::kGcmRandom) {
    // record = nonce (12) || tag (16); AAD binds the LBA (and, with
    // compression, the codec/length header — a tampered header fails
    // authentication before it can misdirect the decompressor).
    rng_.Generate(iv.subspan(0, crypto::kGcmIvSize));
    uint8_t aad[8 + kCompressHeaderSize];
    StoreU64Le(aad, lba);
    std::memcpy(aad + 8, hdr.data(), header);
    gcm_->Seal(iv.subspan(0, crypto::kGcmIvSize), ByteSpan(aad, 8 + header),
               payload, ct, iv.subspan(crypto::kGcmIvSize));
    return payload.size();
  }
  // record = random IV (16) [|| HMAC tag (32)], or nothing.
  if (spec_.mode == CipherMode::kXtsRandom) {
    rng_.Generate(iv.subspan(0, kIvSize));
  }
  Crypt(lba, iv, payload, ct, /*encrypt=*/true);
  if (spec_.integrity == Integrity::kHmac) {
    const auto tag = RecordMac(lba, hdr, ct, iv.subspan(0, kIvSize));
    std::memcpy(iv.data() + kIvSize, tag.data(), kHmacTagSize);
  }
  return payload.size();
}

Status EncryptionFormat::DecryptBlock(uint64_t lba, ByteSpan cipher,
                                      ByteSpan record, MutByteSpan plain) {
  // With compression on, the record leads with [codec][stored length];
  // only that many ciphertext bytes are live (the slot tail is trimmed).
  const size_t header = HeaderBytes(spec_);
  uint8_t codec = static_cast<uint8_t>(Compression::kNone);
  size_t clen = kBlockSize;
  if (header > 0) {
    if (record.size() != meta_) {
      return Status::Corruption("metadata row size mismatch");
    }
    codec = record[0];
    clen = LoadU16Le(record.data() + 1);
    if (codec > static_cast<uint8_t>(Compression::kLz) || clen == 0 ||
        clen > kBlockSize ||
        (codec == static_cast<uint8_t>(Compression::kNone) &&
         clen != kBlockSize)) {
      return Status::Corruption("bad compression header");
    }
    cipher = cipher.subspan(0, StoredLen(clen));
  }
  const ByteSpan hdr = ByteSpan(record.data(), header);
  const ByteSpan iv = record.subspan(header);
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
    if (!gcm_->Open(iv.subspan(0, crypto::kGcmIvSize),
                    ByteSpan(aad, 8 + header), cipher, dst,
                    iv.subspan(crypto::kGcmIvSize))) {
      return Status::Corruption("GCM authentication failed");
    }
  } else {
    if (spec_.integrity == Integrity::kHmac) {
      const auto tag = RecordMac(lba, hdr, cipher, iv.subspan(0, kIvSize));
      if (!ConstantTimeEqual(ByteSpan(tag.data(), kHmacTagSize),
                             iv.subspan(kIvSize, kHmacTagSize))) {
        return Status::Corruption("HMAC verification failed");
      }
    }
    Crypt(lba, iv, cipher, dst, /*encrypt=*/false);
  }
  if (!compressed) return Status::Ok();
  // The codec's own bounds checks make a corrupted-but-authentic stream
  // (impossible under HMAC/GCM, reachable without integrity) fail closed.
  compress_stats_.expanded_blocks++;
  return LzDecompress(ByteSpan(scratch).first(clen), plain);
}

// The length-preserving transform of one block under its tweak: the LE
// sector number (LUKS2 convention, also the wide-block tweak), its ESSIV
// derivation, or the stored random IV bound to the sector number — the
// replay-to-other-LBA defense (paper §2.2: "include the sector number as
// part of the IV").
void EncryptionFormat::Crypt(uint64_t lba, ByteSpan iv, ByteSpan in,
                             MutByteSpan out, bool encrypt) const {
  uint8_t tweak[16] = {};
  switch (spec_.mode) {
    case CipherMode::kNone:
      std::memcpy(out.data(), in.data(), in.size());
      return;
    case CipherMode::kXtsEssiv:
      essiv_->DeriveIv(lba, tweak);
      break;
    case CipherMode::kXtsRandom:
      StoreU64Le(tweak, lba);
      iv_mask_->EncryptBlock(tweak, tweak);
      for (size_t i = 0; i < kIvSize; ++i) tweak[i] ^= iv[i];
      break;
    default:
      StoreU64Le(tweak, lba);
  }
  const ByteSpan t(tweak, 16);
  if (wide_.has_value()) {
    encrypt ? wide_->Encrypt(t, in, out) : wide_->Decrypt(t, in, out);
  } else {
    encrypt ? xts_->Encrypt(t, in, out) : xts_->Decrypt(t, in, out);
  }
}

std::array<uint8_t, 32> EncryptionFormat::RecordMac(uint64_t lba,
                                                    ByteSpan header,
                                                    ByteSpan cipher,
                                                    ByteSpan iv) const {
  crypto::HmacSha256Stream mac(hmac_key_);
  mac.Update(header);  // no-op with compression off: identical preimage
  mac.Update(cipher);
  uint8_t lba_le[8];
  StoreU64Le(lba_le, lba);
  mac.Update(ByteSpan(lba_le, 8));
  mac.Update(iv);
  return mac.Finish();
}

sim::SimTime EncryptionFormat::CryptoCost(size_t bytes) const {
  if (spec_.mode == CipherMode::kNone) return 0;
  // GCM pays GHASH on top of the block cipher.
  const double gbps = spec_.mode == CipherMode::kGcmRandom ? 1.3
                      : spec_.mode == CipherMode::kWideLba ? 0.9
                                                           : 2.5;
  return 2 * sim::kUs +
         static_cast<sim::SimTime>(static_cast<double>(bytes) / gbps);
}

sim::SimTime EncryptionFormat::CompressCost(size_t bytes) const {
  if (!spec_.compression.enabled() || bytes == 0) return 0;
  // Charged at 2.0 GB/s plus a 300 ns setup (hash-table clear, no key
  // schedule or EVP context). Measured on the host (bench_crypto
  // BM_LzCompress, one 50%-compressible 4 KiB block, Intel Xeon):
  // 3.1-4.4 us per block, 0.9-1.3 GB/s. The greedy parse hashes every
  // unmatched position; with the stream kept byte-identical, the measured
  // rate stays below the charged one (ROADMAP item 11 recalibrates).
  return 300 * sim::kNs +
         static_cast<sim::SimTime>(static_cast<double>(bytes) / 2.0);
}

sim::SimTime EncryptionFormat::DecompressCost(size_t bytes) const {
  if (!spec_.compression.enabled() || bytes == 0) return 0;
  // Decode is copy-dominated: charged at 3.5 GB/s, near-zero setup.
  // Measured (BM_LzDecompress, same block, decoded bytes): 0.16-0.19 us
  // per block, 21-25 GB/s.
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

const char* SpecError(const EncryptionSpec& spec) {
  if (spec.mode == CipherMode::kXtsRandom ||
      spec.mode == CipherMode::kGcmRandom) {
    if (spec.layout == IvLayout::kNone) {
      return "random-IV modes need a metadata layout";
    }
    if (spec.mode == CipherMode::kGcmRandom &&
        spec.integrity == Integrity::kHmac) {
      return "GCM authenticates itself and takes no HMAC";
    }
    return nullptr;
  }
  if (spec.layout != IvLayout::kNone || spec.integrity != Integrity::kNone ||
      spec.compression.enabled()) {
    // No per-block record: nowhere to keep IVs, tags or {codec, length} —
    // which is the paper's point.
    return "length-preserving modes take no layout, HMAC or compression";
  }
  return nullptr;
}

std::unique_ptr<EncryptionFormat> MakeFormat(const EncryptionSpec& spec,
                                             ByteSpan master_key,
                                             uint64_t object_size) {
  if (SpecError(spec) != nullptr) return nullptr;
  assert(master_key.size() == 64 || spec.mode == CipherMode::kNone);
  return std::unique_ptr<EncryptionFormat>(
      new EncryptionFormat(spec, master_key, object_size));
}

}  // namespace vde::core
