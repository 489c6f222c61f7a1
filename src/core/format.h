// EncryptionFormat: transforms block-aligned image IO into encrypted object
// transactions — the paper's modified libRBD crypto layer (§3.1).
//
// A format owns the data cipher and one slot geometry. Block b of an object
// occupies the data slot at b * Slot(); a random-IV spec keeps one record
// (random IV [+ tag], or GCM nonce + tag) per block, which lives inline
// after the block (interleaved slots), in a region at the object end, or in
// an OMAP row. A length-preserving spec (the LUKS2 baseline) is the
// zero-record case:
//
//   LUKS2 baseline      write:  [data]                 read: [data]
//   random-IV unaligned write:  [data+IVs interleaved] read: [same range]
//   random-IV objectend write:  [data][IV region]      read: [data][IV region]
//   random-IV OMAP      write:  [data][omap_set IVs]   read: [data][omap_get]
//
// All multi-op writes ride ONE transaction (atomic data+IV, §3.1); all
// multi-op reads execute in parallel at the OSD (§3.3, read results).
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <vector>

#include "core/discard_bitmap.h"
#include "core/types.h"
#include "crypto/essiv.h"
#include "crypto/gcm.h"
#include "crypto/hmac.h"
#include "crypto/rand.h"
#include "crypto/wideblock.h"
#include "crypto/xts.h"
#include "objstore/types.h"
#include "sim/scheduler.h"
#include "util/stats.h"
#include "util/status.h"

namespace vde::core {

// A block-aligned slice of image IO that falls into one object.
struct ObjectExtent {
  std::string oid;
  uint64_t object_no = 0;
  uint64_t first_block = 0;  // block index within the object
  size_t block_count = 0;
  uint64_t image_block = 0;  // absolute index of first block in the image
};

// Per-block persisted metadata rows (random IV [+ tag], or GCM nonce+tag)
// in extent order. An empty row is the cleared marker: the block was
// trimmed or never written and must read as zeros.
using IvRows = std::vector<Bytes>;

// Running totals of the compression stage (all zero with compression off),
// exported under the image node with the `compress_` prefix. Callers
// snapshot deltas around the synchronous MakeWrite/FinishRead calls to
// attribute CPU charges.
#define VDE_COMPRESS_STATS(C, G)                                   \
  C(in_bytes)        /* logical bytes fed to the compressor */     \
  C(stored_bytes)    /* ciphertext bytes kept (verbatim = 4096) */ \
  C(blocks)          /* blocks stored under a real codec tag */    \
  C(verbatim_blocks) /* blocks that failed the min-gain bar */     \
  C(expanded_blocks) /* compressed blocks expanded on read */

struct CompressStats {
  VDE_STATS(CompressStats, VDE_COMPRESS_STATS)
};

class EncryptionFormat {
 public:
  // Encrypts `plain` (block_count * kBlockSize bytes) and appends the write
  // ops (data + metadata) for `ext` to `txn`. When `ivs_out` is non-null,
  // the per-block metadata rows this write persists are also appended to it
  // (none in the zero-record case) — the feed of the client-side IV cache.
  Status MakeWrite(const ObjectExtent& ext, ByteSpan plain,
                   objstore::Transaction& txn, IvRows* ivs_out = nullptr);

  // Appends the read ops for `ext` to `txn` and returns the bytes of kRead
  // payload they produce. Callers batching several extents into one read
  // transaction (e.g. the head+tail reads of an unaligned read-modify-write)
  // split the combined result at these boundaries. With `data_only` the ops
  // fetch only the data blocks (no records) — valid when
  // DataOnlyReadProfitable(ext); decrypt that result with FinishReadWithIvs.
  size_t MakeRead(const ObjectExtent& ext, objstore::Transaction& txn,
                  bool data_only = false) const;

  // Whether reading only the data blocks of `ext` — the caller already
  // holds the per-block metadata, e.g. from the client-side IV cache — is
  // a win under this geometry. Object-end and OMAP layouts drop a whole
  // metadata op; the interleaved layout must split into one data op per
  // block, profitable only for single-block extents (the RMW edge reads).
  // Formats without per-sector metadata have nothing to skip.
  bool DataOnlyReadProfitable(const ObjectExtent& ext) const;

  // Bytes of per-sector metadata a full MakeRead(ext) fetches — what a
  // data-only read saves. Counts OMAP rows as key+value bytes.
  size_t MetaReadBytes(const ObjectExtent& ext) const;

  // Decrypts (and authenticates, if configured) the transaction results
  // into `out` (block_count * kBlockSize bytes). `result.data` must hold
  // exactly what MakeRead(ext) returned; `result.omap_values` may hold a
  // superset of the extent's rows (matched by block key). Cleared blocks
  // decrypt to plaintext zeros: virtual disks read zeros for trimmed or
  // never-written blocks. A block is cleared when its record is all zeros
  // or absent (its ciphertext must then be all zeros too) or, in the
  // zero-record case, when its ciphertext is all zeros. When `ivs_out` is
  // non-null, the fetched per-block metadata rows are appended to it (an
  // empty row per cleared/absent block).
  //
  // `zeros` is the object's verified discard bitmap (AuthenticatedTrim
  // formats): a cleared-marker block whose bit is NOT set fails with
  // Corruption — an attacker zeroing ciphertext+metadata cannot forge a
  // discard. Null `zeros` keeps the legacy unauthenticated-marker
  // semantics (formats without AuthenticatedTrim, and direct format tests
  // that carry no per-object state).
  Status FinishRead(const ObjectExtent& ext,
                    const objstore::ReadResult& result, MutByteSpan out,
                    IvRows* ivs_out = nullptr,
                    const DiscardBitmap* zeros = nullptr);

  // Decrypts a data-only MakeRead result using caller-provided metadata
  // rows (`ivs.size()` must equal `ext.block_count`; an empty row is the
  // cleared marker). `result.data` must hold exactly the bare data blocks.
  // `zeros` as in FinishRead.
  Status FinishReadWithIvs(const ObjectExtent& ext,
                           const objstore::ReadResult& result,
                           const IvRows& ivs, MutByteSpan out,
                           const DiscardBitmap* zeros = nullptr);

  // Appends discard ops for `ext` to `txn`: the data range is released
  // with the tracked kTrim op (the store frees the backing sectors and
  // serves reads of the range from its trimmed-extent map) and any
  // per-sector metadata (random IVs, tags) is cleared in the SAME
  // transaction, so data and IV state stay consistent (§3.1) and a later
  // FinishRead sees the cleared marker and returns zeros.
  void MakeDiscard(const ObjectExtent& ext, objstore::Transaction& txn) const;

  // --- Authenticated discard state (HMAC/GCM formats) ---
  //
  // Formats with ciphertext authentication close the erase channel with a
  // per-object MAC'd discard bitmap (bit set = block legitimately reads
  // zeros), stored with the object's metadata geometry and passed back
  // into FinishRead as `zeros`. Formats without authentication keep the
  // legacy all-zero marker (there is no integrity to protect) and report
  // AuthenticatedTrim() == false; the other hooks must not be called.

  // Whether this format maintains the MAC'd discard bitmap.
  bool AuthenticatedTrim() const {
    return spec_.mode == CipherMode::kGcmRandom ||
           spec_.integrity == Integrity::kHmac;
  }

  // Serialized bitmap record size: bitmap bytes + MAC tag + epoch trailer.
  size_t BitmapRecordBytes() const;

  // Serializes + MACs `bitmap` for `object_no`. The MAC binds the object
  // number (a record cannot be replayed onto another object) and, when
  // `epoch` is nonzero, the per-object write-generation epoch (a record
  // cannot be rolled back to an older generation without failing the
  // epoch-floor check on reload). Epoch 0 emits the legacy epoch-less
  // record — pre-epoch images stay readable, and tests can produce one.
  Bytes SealBitmap(uint64_t object_no, const DiscardBitmap& bitmap,
                   uint64_t epoch = 0) const;

  // Verifies + deserializes a SealBitmap record (current or legacy
  // layout). An all-zero or MAC-mismatching record fails with Corruption.
  // `epoch_out` (may be null) receives the sealed epoch; legacy records
  // report 0.
  Status OpenBitmap(uint64_t object_no, ByteSpan raw, DiscardBitmap* out,
                    uint64_t* epoch_out = nullptr) const;

  // Appends the write op persisting `sealed` at the bitmap's home for this
  // geometry (past the IV region / stride area, or a reserved OMAP row) —
  // meant to ride the same atomic transaction as the data ops it covers.
  void MakeBitmapWrite(uint64_t object_no, Bytes sealed,
                       objstore::Transaction& txn) const;

  // Appends the read ops fetching the bitmap record, and extracts it from
  // the result. Every geometry reads through at least one kRead op (the
  // OMAP geometry adds a 1-byte existence probe), so a missing OBJECT
  // surfaces as NotFound; Ok + empty bytes therefore always means an
  // existing object whose record was wiped or zeroed — the caller must
  // treat it as corruption, never as a fresh object.
  void MakeBitmapRead(objstore::Transaction& txn) const;
  Result<Bytes> FinishBitmapRead(const objstore::ReadResult& result) const;

  // Modeled client CPU time for one cipher pass over `bytes`: a per-call
  // setup cost plus the bytes at the mode's streaming throughput. The
  // constants are calibrated against bench_crypto's measured primitives
  // (AES-NI XTS ~2.5 GB/s, EVP GCM+GHASH ~1.3 GB/s, the wide-block
  // construction ~0.9 GB/s; ~2 us per call of key-schedule/tweak/EVP-ctx
  // setup, which dominates below ~1 KiB exactly as the measured small-size
  // points show).
  sim::SimTime CryptoCost(size_t bytes) const;

  // Per-block surcharge for merging a sub-block write into its covering
  // block: tweak/IV derivation plus a short-buffer cipher call. Calibrated
  // from bench_crypto's small-size points, where cost is setup-dominated —
  // NOT a whole extra block at streaming throughput (the full-block passes
  // that really happen, like the RMW edge decrypt, are charged where they
  // run).
  sim::SimTime SubBlockMergeCost() const;

  // Modeled CPU time of an IO's cipher work: the actual payload bytes
  // stream once, and each partially-covered edge block adds the sub-block
  // merge surcharge. Replaces charging every covering block in full for
  // unaligned IO.
  sim::SimTime IoCryptoCost(size_t io_bytes, size_t edge_blocks) const {
    if (io_bytes == 0 && edge_blocks == 0) return 0;
    return CryptoCost(io_bytes) + edge_blocks * SubBlockMergeCost();
  }

  // Modeled CPU time of the compression stage over `bytes`. Compression is
  // pay-to-try: every written block streams through the compressor (LZ-class
  // match finding ~2.0 GB/s) whether or not it shrinks; decompression only
  // runs over blocks actually stored compressed (~3.5 GB/s — copy-dominated,
  // like the bench_crypto small-size points a short setup constant covers).
  // Both are 0 when the spec has no codec, so compression-off charges are
  // bit-identical to pre-compression behavior.
  sim::SimTime CompressCost(size_t bytes) const;
  sim::SimTime DecompressCost(size_t bytes) const;

  // Compression-stage totals since construction (all zero when off).
  const CompressStats& compress_stats() const { return compress_stats_; }

  const EncryptionSpec& spec() const { return spec_; }

 private:
  friend std::unique_ptr<EncryptionFormat> MakeFormat(const EncryptionSpec&,
                                                      ByteSpan, uint64_t);
  EncryptionFormat(const EncryptionSpec& spec, ByteSpan master_key,
                   uint64_t object_size);

  // Bytes from one block's data slot to the next: the block, plus its
  // record when records interleave with the data.
  size_t Slot() const {
    return kBlockSize + (spec_.layout == IvLayout::kUnaligned ? meta_ : 0);
  }
  size_t BlocksPerObject() const { return object_size_ / kBlockSize; }
  uint64_t BitmapOffset() const;
  // Appends the op writing (kWrite, `records` back to back), reading
  // (kRead) or clearing (kTrim) the records of `ext` that live outside its
  // data slots: an object-end region range or one OMAP row per block.
  void AppendRecordOp(objstore::OsdOp::Type type, const ObjectExtent& ext,
                      objstore::Transaction& txn, Bytes records = {}) const;
  Status DecryptGathered(const ObjectExtent& ext,
                         const std::vector<ByteSpan>& cts,
                         const std::vector<ByteSpan>& records,
                         MutByteSpan out, const DiscardBitmap* zeros);
  size_t EncryptBlock(uint64_t lba, ByteSpan plain, MutByteSpan cipher,
                      MutByteSpan record);
  Status DecryptBlock(uint64_t lba, ByteSpan cipher, ByteSpan record,
                      MutByteSpan plain);
  void Crypt(uint64_t lba, ByteSpan iv, ByteSpan in, MutByteSpan out,
             bool encrypt) const;
  std::array<uint8_t, 32> RecordMac(uint64_t lba, ByteSpan header,
                                    ByteSpan cipher, ByteSpan iv) const;
  std::array<uint8_t, 32> BitmapMac(uint64_t object_no, ByteSpan bits,
                                    uint64_t epoch) const;

  EncryptionSpec spec_;
  uint64_t object_size_;
  size_t meta_;  // record bytes per block; 0 for length-preserving modes
  CompressStats compress_stats_;
  crypto::Drbg rng_;
  std::unique_ptr<crypto::BlockCipher> iv_mask_;  // binds random IVs to LBAs
  std::optional<crypto::XtsCipher> xts_;
  std::optional<crypto::Essiv> essiv_;
  std::optional<crypto::WideBlockCipher> wide_;
  std::optional<crypto::GcmCipher> gcm_;
  Bytes hmac_key_;
  Bytes trim_key_;  // discard-bitmap MAC subkey (AuthenticatedTrim only)
};

// Builds the format for `spec`, or returns null when SpecError(spec) names a
// broken rule. `master_key` must be kMasterKeySize bytes; subkeys (IV mask,
// HMAC, GCM, wide-block) are derived via HKDF. `object_size` fixes the
// object-end metadata region base.
std::unique_ptr<EncryptionFormat> MakeFormat(const EncryptionSpec& spec,
                                             ByteSpan master_key,
                                             uint64_t object_size);

}  // namespace vde::core
