#include "core/luks_header.h"

#include <cassert>

#include "crypto/afsplit.h"
#include "crypto/hmac.h"
#include "crypto/xts.h"

namespace vde::core {

namespace {

constexpr uint32_t kHeaderMagic = 0x4C554B53;  // "LUKS"
constexpr size_t kSaltSize = 32;
constexpr size_t kDigestSize = 32;

// Slot key -> XTS key for wrapping the AF-split material.
Bytes DeriveSlotKey(const std::string& passphrase, ByteSpan salt,
                    uint32_t iterations) {
  Bytes key(64);  // AES-256-XTS
  crypto::Pbkdf2HmacSha256(BytesOf(passphrase), salt, iterations, key);
  return key;
}

Bytes ComputeDigest(ByteSpan master_key, ByteSpan salt, uint32_t iterations) {
  Bytes digest(kDigestSize);
  crypto::Pbkdf2HmacSha256(master_key, salt, iterations, digest);
  return digest;
}

// Encrypt/decrypt AF-split material sector-by-sector with the slot key.
void CryptSplitMaterial(ByteSpan key, ByteSpan in, MutByteSpan out,
                        bool encrypt) {
  crypto::XtsCipher xts(key);
  const size_t unit = 4096;
  size_t off = 0;
  uint64_t sector = 0;
  while (off < in.size()) {
    const size_t take = std::min(unit, in.size() - off);
    uint8_t tweak[16] = {};
    StoreU64Le(tweak, sector++);
    if (encrypt) {
      xts.Encrypt(ByteSpan(tweak, 16), in.subspan(off, take),
                  out.subspan(off, take));
    } else {
      xts.Decrypt(ByteSpan(tweak, 16), in.subspan(off, take),
                  out.subspan(off, take));
    }
    off += take;
  }
}

}  // namespace

LuksHeader LuksHeader::Format(ByteSpan master_key,
                              const std::string& passphrase,
                              const Params& params, crypto::Drbg& rng) {
  assert(master_key.size() == kMasterKeySize);
  LuksHeader header;
  header.params_ = params;
  header.digest_salt_ = rng.Generate(kSaltSize);
  header.digest_ =
      ComputeDigest(master_key, header.digest_salt_, params.pbkdf2_iterations);
  Status s = header.AddKeyslot(master_key, passphrase, rng);
  assert(s.ok());
  (void)s;
  return header;
}

Status LuksHeader::AddKeyslot(ByteSpan master_key,
                              const std::string& passphrase,
                              crypto::Drbg& rng) {
  // Verify the caller holds the true master key.
  if (!ConstantTimeEqual(
          ComputeDigest(master_key, digest_salt_, params_.pbkdf2_iterations),
          digest_)) {
    return Status::PermissionDenied("master key does not match digest");
  }
  for (auto& slot : slots_) {
    if (slot.active) continue;
    slot.salt = rng.Generate(kSaltSize);
    const Bytes noise =
        rng.Generate((params_.af_stripes - 1) * master_key.size());
    const Bytes split =
        crypto::AfSplit(master_key, params_.af_stripes, noise);
    slot.wrapped.resize(split.size());
    const Bytes slot_key =
        DeriveSlotKey(passphrase, slot.salt, params_.pbkdf2_iterations);
    CryptSplitMaterial(slot_key, split, slot.wrapped, /*encrypt=*/true);
    slot.active = true;
    return Status::Ok();
  }
  return Status::OutOfSpace("all keyslots in use");
}

Result<Bytes> LuksHeader::TryUnlockSlot(const Keyslot& slot,
                                        const std::string& passphrase) const {
  const Bytes slot_key =
      DeriveSlotKey(passphrase, slot.salt, params_.pbkdf2_iterations);
  Bytes split(slot.wrapped.size());
  CryptSplitMaterial(slot_key, slot.wrapped, split, /*encrypt=*/false);
  Bytes candidate = crypto::AfMerge(split, params_.af_stripes);
  if (!ConstantTimeEqual(
          ComputeDigest(candidate, digest_salt_, params_.pbkdf2_iterations),
          digest_)) {
    return Status::PermissionDenied("wrong passphrase");
  }
  return candidate;
}

Result<Bytes> LuksHeader::Unlock(const std::string& passphrase) const {
  for (const auto& slot : slots_) {
    if (!slot.active) continue;
    auto key = TryUnlockSlot(slot, passphrase);
    if (key.ok()) return key;
  }
  return Status::PermissionDenied("no keyslot matches passphrase");
}

Status LuksHeader::RemoveKeyslot(const std::string& passphrase) {
  for (auto& slot : slots_) {
    if (!slot.active) continue;
    if (TryUnlockSlot(slot, passphrase).ok()) {
      // Destroy the slot's material (AF: partial destruction suffices).
      slot.active = false;
      std::fill(slot.wrapped.begin(), slot.wrapped.end(), 0);
      std::fill(slot.salt.begin(), slot.salt.end(), 0);
      return Status::Ok();
    }
  }
  return Status::NotFound("no keyslot matches passphrase");
}

size_t LuksHeader::ActiveKeyslots() const {
  size_t n = 0;
  for (const auto& slot : slots_) n += slot.active ? 1 : 0;
  return n;
}

Bytes LuksHeader::Serialize() const {
  Bytes out;
  AppendU32Le(out, kHeaderMagic);
  AppendU32Le(out, params_.pbkdf2_iterations);
  AppendU32Le(out, static_cast<uint32_t>(params_.af_stripes));
  AppendBytes(out, digest_salt_);
  AppendBytes(out, digest_);
  for (const auto& slot : slots_) {
    AppendU8(out, slot.active ? 1 : 0);
    if (!slot.active) continue;
    AppendBytes(out, slot.salt);
    AppendU32Le(out, static_cast<uint32_t>(slot.wrapped.size()));
    AppendBytes(out, slot.wrapped);
  }
  return out;
}

Result<LuksHeader> LuksHeader::Deserialize(ByteSpan data) {
  const Status truncated = Status::Corruption("truncated luks header");
  LuksHeader header;
  ByteReader in(data);
  uint32_t magic = 0, stripes = 0;
  ByteSpan salt, digest;
  if (!in.U32(&magic) || !in.U32(&header.params_.pbkdf2_iterations) ||
      !in.U32(&stripes) || !in.Span(kSaltSize, &salt) ||
      !in.Span(kDigestSize, &digest)) {
    return truncated;
  }
  if (magic != kHeaderMagic) return Status::Corruption("bad luks magic");
  // Zero stripes would divide by zero in AfMerge, and OpenSSL refuses a
  // zero-iteration PBKDF2; neither is a header Format can write.
  if (header.params_.pbkdf2_iterations == 0 || stripes == 0) {
    return Status::Corruption("bad luks kdf parameters");
  }
  header.params_.af_stripes = stripes;
  header.digest_salt_.assign(salt.begin(), salt.end());
  header.digest_.assign(digest.begin(), digest.end());
  for (auto& slot : header.slots_) {
    uint8_t active = 0;
    if (!in.U8(&active)) return truncated;
    slot.active = active != 0;
    if (!slot.active) continue;
    uint32_t wrapped_len = 0;
    ByteSpan wrapped;
    if (!in.Span(kSaltSize, &salt) || !in.U32(&wrapped_len) ||
        !in.Span(wrapped_len, &wrapped)) {
      return truncated;
    }
    if (wrapped_len != uint64_t{stripes} * kMasterKeySize) {
      return Status::Corruption("luks slot material size");
    }
    slot.salt.assign(salt.begin(), salt.end());
    slot.wrapped.assign(wrapped.begin(), wrapped.end());
  }
  return header;
}

}  // namespace vde::core
