// Core types of the per-sector-metadata encryption engine — the paper's
// contribution (§3.1).
#pragma once

#include <cstdint>
#include <string>

#include "util/bytes.h"

namespace vde::core {

// Encryption block ("sector") size. The paper uses LUKS2's 4 KiB sectors
// exclusively (footnote 4: 512-byte LUKS1 sectors make per-sector metadata
// far more costly).
inline constexpr uint32_t kBlockSize = 4096;

// How data sectors are encrypted.
enum class CipherMode {
  kNone,       // no encryption (control baseline)
  kXtsLba,     // AES-XTS, LBA tweak — the LUKS2 baseline
  kXtsRandom,  // AES-XTS, fresh random IV persisted per sector — the paper
  kXtsEssiv,   // AES-XTS, ESSIV-derived deterministic tweak (dm-crypt style)
  kGcmRandom,  // AES-GCM AEAD, random nonce + tag persisted (paper §2.2/§3.1)
  kWideLba,    // wide-block cipher, LBA tweak (paper §2.2 mitigation)
};

// Where the per-sector metadata lives (Fig. 2).
enum class IvLayout {
  kNone,       // nothing persisted (deterministic modes)
  kUnaligned,  // IV immediately after each block, stride 4096+meta
  kObjectEnd,  // all IVs batched in a region at the object end
  kOmap,       // IVs in the per-object key-value database
};

// Optional authentication of the ciphertext (paper §2.2 "possible
// mitigations" / future work; included as the natural extension).
enum class Integrity {
  kNone,
  kHmac,  // HMAC-SHA256 tag over (ciphertext, lba) stored with the IV
};

// Block codec for the compression-before-encryption stage (§3.1: once
// encryption stops being length-preserving, per-block metadata can carry a
// compressed length and short ciphertexts become sparse extents).
enum class Compression : uint8_t {
  kNone = 0,  // also the per-block verbatim tag for incompressible blocks
  kLz = 1,    // in-tree LZ-class codec (util/lz.h)
};

struct CompressionSpec {
  Compression codec = Compression::kNone;
  // Minimum space gain (percent of kBlockSize) a compressed block must
  // achieve to be stored compressed; below it the block goes verbatim.
  // Gains below one 512 B allocation unit can never reclaim capacity.
  uint32_t min_gain_pct = 13;

  bool enabled() const { return codec != Compression::kNone; }
};

struct EncryptionSpec {
  CipherMode mode = CipherMode::kXtsLba;
  IvLayout layout = IvLayout::kNone;
  Integrity integrity = Integrity::kNone;
  // Deterministic IV stream for reproducible benches (0 = system entropy).
  uint64_t iv_seed = 0;
  // Compress-before-encrypt stage. Only meaningful on metadata-bearing
  // random-IV formats (the per-block record is where compressed_len lives);
  // SpecError rejects it elsewhere.
  CompressionSpec compression{};

  // Short human-readable id, e.g. "xts-random/object-end".
  std::string Name() const;
  // Bytes of metadata persisted per 4 KiB block for this spec.
  size_t MetaPerBlock() const;
  bool NeedsMetadata() const { return MetaPerBlock() > 0; }
};

// The spec-validity rule: returns the broken rule, or null. Random-IV modes
// need a layout to keep their per-block records in; the length-preserving
// modes (none, LBA/ESSIV-tweaked XTS, wide-block) have no record, so they
// take no layout, no HMAC and no codec; GCM authenticates itself and takes
// no HMAC.
const char* SpecError(const EncryptionSpec& spec);

}  // namespace vde::core
