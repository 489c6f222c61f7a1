#include "core/luks_header.h"

#include <gtest/gtest.h>

#include "crypto/rand.h"

namespace vde::core {
namespace {

LuksHeader::Params FastParams() {
  LuksHeader::Params p;
  p.pbkdf2_iterations = 10;  // fast for tests
  p.af_stripes = 8;
  return p;
}

TEST(LuksHeader, FormatAndUnlock) {
  crypto::Drbg rng(1);
  const Bytes key = rng.Generate(kMasterKeySize);
  const auto header = LuksHeader::Format(key, "secret", FastParams(), rng);
  auto unlocked = header.Unlock("secret");
  ASSERT_TRUE(unlocked.ok()) << unlocked.status().ToString();
  EXPECT_EQ(*unlocked, key);
}

TEST(LuksHeader, WrongPassphraseRejected) {
  crypto::Drbg rng(2);
  const Bytes key = rng.Generate(kMasterKeySize);
  const auto header = LuksHeader::Format(key, "secret", FastParams(), rng);
  auto unlocked = header.Unlock("wrong");
  EXPECT_EQ(unlocked.status().code(), StatusCode::kPermissionDenied);
}

TEST(LuksHeader, MultipleKeyslots) {
  crypto::Drbg rng(3);
  const Bytes key = rng.Generate(kMasterKeySize);
  auto header = LuksHeader::Format(key, "alice", FastParams(), rng);
  ASSERT_TRUE(header.AddKeyslot(key, "bob", rng).ok());
  EXPECT_EQ(header.ActiveKeyslots(), 2u);
  EXPECT_TRUE(header.Unlock("alice").ok());
  EXPECT_TRUE(header.Unlock("bob").ok());
  EXPECT_EQ(*header.Unlock("bob"), key);
}

TEST(LuksHeader, AddKeyslotRequiresTrueMasterKey) {
  crypto::Drbg rng(4);
  const Bytes key = rng.Generate(kMasterKeySize);
  auto header = LuksHeader::Format(key, "pw", FastParams(), rng);
  const Bytes fake = rng.Generate(kMasterKeySize);
  EXPECT_EQ(header.AddKeyslot(fake, "evil", rng).code(),
            StatusCode::kPermissionDenied);
}

TEST(LuksHeader, RemoveKeyslotRevokesAccess) {
  crypto::Drbg rng(5);
  const Bytes key = rng.Generate(kMasterKeySize);
  auto header = LuksHeader::Format(key, "alice", FastParams(), rng);
  ASSERT_TRUE(header.AddKeyslot(key, "bob", rng).ok());
  ASSERT_TRUE(header.RemoveKeyslot("alice").ok());
  EXPECT_EQ(header.ActiveKeyslots(), 1u);
  EXPECT_FALSE(header.Unlock("alice").ok());
  EXPECT_TRUE(header.Unlock("bob").ok());
}

TEST(LuksHeader, SerializeRoundtrip) {
  crypto::Drbg rng(6);
  const Bytes key = rng.Generate(kMasterKeySize);
  auto header = LuksHeader::Format(key, "pw", FastParams(), rng);
  ASSERT_TRUE(header.AddKeyslot(key, "pw2", rng).ok());
  const Bytes blob = header.Serialize();
  auto parsed = LuksHeader::Deserialize(blob);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->ActiveKeyslots(), 2u);
  auto unlocked = parsed->Unlock("pw2");
  ASSERT_TRUE(unlocked.ok());
  EXPECT_EQ(*unlocked, key);
}

TEST(LuksHeader, CorruptBlobRejected) {
  crypto::Drbg rng(7);
  const Bytes key = rng.Generate(kMasterKeySize);
  auto header = LuksHeader::Format(key, "pw", FastParams(), rng);
  Bytes blob = header.Serialize();
  Bytes corrupted = blob;
  corrupted[0] ^= 0xFF;  // magic
  EXPECT_FALSE(LuksHeader::Deserialize(corrupted).ok());
  const Bytes truncated(blob.begin(), blob.begin() + 20);
  EXPECT_FALSE(LuksHeader::Deserialize(truncated).ok());
  // Values no Format writes and Unlock cannot survive: zero iterations
  // (OpenSSL refuses the KDF), zero stripes (AfMerge divides by them), and
  // slot material that is not af_stripes x key size.
  struct Patch {
    const char* what;
    size_t off;
    uint32_t value;
  };
  for (const Patch p : {Patch{"pbkdf2_iterations = 0", 4, 0},
                        Patch{"af_stripes = 0", 8, 0},
                        Patch{"af_stripes != wrapped / key size", 8, 9}}) {
    Bytes bad = blob;
    StoreU32Le(bad.data() + p.off, p.value);
    EXPECT_EQ(LuksHeader::Deserialize(bad).status().code(),
              StatusCode::kCorruption)
        << p.what;
  }
}

TEST(LuksHeader, SlotMaterialDoesNotLeakKey) {
  crypto::Drbg rng(8);
  const Bytes key = rng.Generate(kMasterKeySize);
  auto header = LuksHeader::Format(key, "pw", FastParams(), rng);
  const Bytes blob = header.Serialize();
  // The master key must not appear anywhere in the serialized header.
  EXPECT_EQ(std::search(blob.begin(), blob.end(), key.begin(), key.end()),
            blob.end());
}

}  // namespace
}  // namespace vde::core
