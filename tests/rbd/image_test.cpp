// End-to-end image tests: every encryption spec through the full stack
// (image -> format -> rados -> osd -> objstore -> kv/device).
#include "rbd/image.h"

#include <gtest/gtest.h>

#include "../testutil.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace vde::rbd {
namespace {

using testutil::ImageCounter;
using testutil::TestCluster;

ImageOptions TestImage(core::EncryptionSpec spec) {
  ImageOptions o;
  o.size = 64ull << 20;
  o.enc = spec;
  o.enc.iv_seed = 7;
  o.luks.pbkdf2_iterations = 10;
  o.luks.af_stripes = 8;
  return o;
}

core::EncryptionSpec Spec(core::CipherMode mode, core::IvLayout layout,
                          core::Integrity integrity = core::Integrity::kNone) {
  core::EncryptionSpec s;
  s.mode = mode;
  s.layout = layout;
  s.integrity = integrity;
  return s;
}

class ImageAllSpecs : public ::testing::TestWithParam<core::EncryptionSpec> {};

TEST_P(ImageAllSpecs, WriteReadRoundtripThroughCluster) {
  testutil::RunSim([spec = GetParam()]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    CO_ASSERT_OK(cluster.status());
    auto image =
        co_await Image::Create(**cluster, "img", "pw", TestImage(spec));
    CO_ASSERT_OK(image.status());
    auto& img = **image;
    Rng rng(1);

    // Single-block, multi-block, object-spanning IOs.
    struct Io {
      uint64_t off;
      size_t len;
    };
    for (const Io io : {Io{0, 4096}, Io{8192, 32768},
                        Io{(4ull << 20) - 8192, 16384},  // spans two objects
                        Io{10ull << 20, 1 << 20}}) {
      const Bytes data = rng.RandomBytes(io.len);
      CO_ASSERT_OK(co_await img.Write(io.off, data));
      auto got = co_await img.Read(io.off, io.len);
      CO_ASSERT_OK(got.status());
      CO_ASSERT_TRUE(*got == data);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    AllSpecs, ImageAllSpecs,
    ::testing::Values(
        Spec(core::CipherMode::kNone, core::IvLayout::kNone),
        Spec(core::CipherMode::kXtsLba, core::IvLayout::kNone),
        Spec(core::CipherMode::kXtsRandom, core::IvLayout::kUnaligned),
        Spec(core::CipherMode::kXtsRandom, core::IvLayout::kObjectEnd),
        Spec(core::CipherMode::kXtsRandom, core::IvLayout::kOmap),
        Spec(core::CipherMode::kXtsRandom, core::IvLayout::kObjectEnd,
             core::Integrity::kHmac),
        Spec(core::CipherMode::kGcmRandom, core::IvLayout::kObjectEnd),
        Spec(core::CipherMode::kWideLba, core::IvLayout::kNone)),
    [](const auto& info) {
      std::string name = info.param.Name();
      for (char& c : name) {
        if (c == '/' || c == '-' || c == '+') c = '_';
      }
      return name;
    });

TEST(Image, OpenWithCorrectPassphrase) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    const auto spec =
        Spec(core::CipherMode::kXtsRandom, core::IvLayout::kObjectEnd);
    Rng rng(2);
    const Bytes data = rng.RandomBytes(8192);
    {
      auto image = co_await Image::Create(**cluster, "persist", "hunter2",
                                          TestImage(spec));
      CO_ASSERT_OK(image.status());
      CO_ASSERT_OK(co_await (*image)->Write(4096, data));
    }
    // Reopen: key comes from the LUKS-like header.
    auto reopened = co_await Image::Open(**cluster, "persist", "hunter2");
    CO_ASSERT_OK(reopened.status());
    auto got = co_await (*reopened)->Read(4096, 8192);
    CO_ASSERT_OK(got.status());
    CO_ASSERT_TRUE(*got == data);
  });
}

TEST(Image, OpenWithWrongPassphraseFails) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    const auto spec =
        Spec(core::CipherMode::kXtsRandom, core::IvLayout::kObjectEnd);
    auto image =
        co_await Image::Create(**cluster, "locked", "right", TestImage(spec));
    CO_ASSERT_OK(image.status());
    auto reopened = co_await Image::Open(**cluster, "locked", "wrong");
    CO_ASSERT_EQ(reopened.status().code(), StatusCode::kPermissionDenied);
  });
}

TEST(Image, UnwrittenRegionsReadZero) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    auto image = co_await Image::Create(
        **cluster, "sparse", "pw",
        TestImage(Spec(core::CipherMode::kXtsRandom,
                       core::IvLayout::kObjectEnd)));
    CO_ASSERT_OK(image.status());
    auto got = co_await (*image)->Read(32ull << 20, 8192);
    CO_ASSERT_OK(got.status());
    CO_ASSERT_TRUE(std::all_of(got->begin(), got->end(),
                               [](uint8_t b) { return b == 0; }));
  });
}

TEST(Image, UnalignedIoSupportedViaRmw) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    auto image = co_await Image::Create(
        **cluster, "align", "pw",
        TestImage(Spec(core::CipherMode::kXtsLba, core::IvLayout::kNone)));
    auto& img = **image;
    Rng rng(3);
    // Unaligned writes/reads round-trip through the RMW path.
    const Bytes data = rng.RandomBytes(4096);
    CO_ASSERT_OK(co_await img.Write(100, data));
    auto got = co_await img.Read(100, 4096);
    CO_ASSERT_OK(got.status());
    CO_ASSERT_TRUE(*got == data);
    EXPECT_GT(ImageCounter(img, "rmw_blocks"), 0u);
    // Zero-length and past-the-end IO still rejected.
    EXPECT_EQ((co_await img.Read(0, 0)).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ((co_await img.Write(img.size(), data)).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ((co_await img.Write(img.size() - 100, data)).code(),
              StatusCode::kInvalidArgument);
  });
}

TEST(Image, SnapshotPreservesDataAcrossOverwrites) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    auto image = co_await Image::Create(
        **cluster, "snappy", "pw",
        TestImage(Spec(core::CipherMode::kXtsRandom,
                       core::IvLayout::kObjectEnd)));
    CO_ASSERT_OK(image.status());
    auto& img = **image;
    Rng rng(4);
    const Bytes v1 = rng.RandomBytes(16384);
    const Bytes v2 = rng.RandomBytes(16384);
    CO_ASSERT_OK(co_await img.Write(0, v1));
    auto snap = co_await img.SnapCreate("before");
    CO_ASSERT_OK(snap.status());
    CO_ASSERT_OK(co_await img.Write(0, v2));

    auto head = co_await img.Read(0, 16384);
    auto old = co_await img.Read(0, 16384, *snap);
    CO_ASSERT_OK(head.status());
    CO_ASSERT_OK(old.status());
    CO_ASSERT_TRUE(*head == v2);
    CO_ASSERT_TRUE(*old == v1);
  });
}

TEST(Image, SnapshotWithOmapIvLayout) {
  // The OMAP layout must preserve per-snapshot IVs (the objstore clones
  // omap rows) or snapshot reads would decrypt garbage.
  testutil::RunSim([]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    auto image = co_await Image::Create(
        **cluster, "snapomap", "pw",
        TestImage(Spec(core::CipherMode::kXtsRandom, core::IvLayout::kOmap)));
    CO_ASSERT_OK(image.status());
    auto& img = **image;
    Rng rng(5);
    const Bytes v1 = rng.RandomBytes(8192);
    const Bytes v2 = rng.RandomBytes(8192);
    CO_ASSERT_OK(co_await img.Write(4096, v1));
    auto snap = co_await img.SnapCreate("s1");
    CO_ASSERT_OK(snap.status());
    CO_ASSERT_OK(co_await img.Write(4096, v2));
    auto old = co_await img.Read(4096, 8192, *snap);
    CO_ASSERT_OK(old.status());
    CO_ASSERT_TRUE(*old == v1);
  });
}

TEST(Image, MultipleSnapshotsLayered) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    auto image = co_await Image::Create(
        **cluster, "multi", "pw",
        TestImage(Spec(core::CipherMode::kXtsRandom,
                       core::IvLayout::kObjectEnd)));
    auto& img = **image;
    CO_ASSERT_OK(co_await img.Write(0, Bytes(4096, 1)));
    auto s1 = co_await img.SnapCreate("s1");
    CO_ASSERT_OK(co_await img.Write(0, Bytes(4096, 2)));
    auto s2 = co_await img.SnapCreate("s2");
    CO_ASSERT_OK(co_await img.Write(0, Bytes(4096, 3)));

    auto r1 = co_await img.Read(0, 4096, *s1);
    auto r2 = co_await img.Read(0, 4096, *s2);
    auto rh = co_await img.Read(0, 4096);
    CO_ASSERT_OK(r1.status());
    CO_ASSERT_OK(r2.status());
    CO_ASSERT_OK(rh.status());
    EXPECT_EQ((*r1)[0], 1);
    EXPECT_EQ((*r2)[0], 2);
    EXPECT_EQ((*rh)[0], 3);
    EXPECT_EQ(img.snapshots().size(), 2u);
  });
}

TEST(Image, CiphertextOnWireDiffersFromPlain) {
  // The whole point of client-side encryption: bytes leaving the client are
  // never plaintext. Check the object store's raw content.
  testutil::RunSim([]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    auto image = co_await Image::Create(
        **cluster, "sec", "pw",
        TestImage(Spec(core::CipherMode::kXtsRandom,
                       core::IvLayout::kObjectEnd)));
    auto& img = **image;
    const Bytes plain = BytesOf(std::string(4096, 'A'));
    CO_ASSERT_OK(co_await img.Write(0, plain));

    const auto acting = (*cluster)->placement().OsdsFor(img.ObjectName(0));
    auto& store = (*cluster)->osd(acting[0]).store();
    objstore::Transaction rd;
    objstore::OsdOp op;
    op.type = objstore::OsdOp::Type::kRead;
    op.offset = 0;
    op.length = 4096;
    rd.oid = img.ObjectName(0);
    rd.ops.push_back(std::move(op));
    auto raw = co_await store.ExecuteRead(rd, objstore::kHeadSnap);
    CO_ASSERT_OK(raw.status());
    EXPECT_NE(raw->data, plain);
    // High entropy spot check: no 16-byte run of 'A' survives.
    const Bytes run(16, 'A');
    EXPECT_EQ(std::search(raw->data.begin(), raw->data.end(), run.begin(),
                          run.end()),
              raw->data.end());
  });
}

// --- Header robustness: truncated / corrupt metadata must fail cleanly ---
//
// Serialized layout: magic(4) total_len(4) size(8) object_size(8) mode(1)
// layout(1) integrity(1) encrypted(1) snap_count(4) snaps... luks_len(4)
// luks_blob crc32c(4). The checksum trailer rejects truncated/corrupt
// headers outright; every load in Image::Open is additionally
// bounds-checked (the tests below re-seal the checksum so the parser
// validation itself is exercised), and the ASan CI job turns any
// regression into a loud failure.

// Recomputes the checksum trailer after a test mutated header bytes.
void SealHeader(Bytes& header) {
  ASSERT_GE(header.size(), 12u);
  StoreU32Le(header.data() + header.size() - 4,
             Crc32c(ByteSpan(header.data(), header.size() - 4)));
}

// Reads the image header object's exact serialized bytes.
sim::Task<Result<Bytes>> ReadHeader(rados::Cluster& cluster,
                                    const std::string& name) {
  auto io = cluster.ioctx();
  auto raw = co_await io.Read("rbd_header." + name, 0, 64 * 1024);
  if (!raw.ok()) co_return raw.status();
  Bytes data = std::move(*raw);
  if (data.size() < 8) co_return Status::Corruption("short header");
  const uint32_t total = LoadU32Le(data.data() + 4);
  if (total > data.size()) {
    auto full = co_await io.Read("rbd_header." + name, 0, total);
    if (!full.ok()) co_return full.status();
    data = std::move(*full);
  }
  data.resize(total);
  co_return data;
}

TEST(Image, TruncatedHeaderFailsCleanly) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    auto image = co_await Image::Create(
        **cluster, "trunc", "pw",
        TestImage(Spec(core::CipherMode::kXtsRandom,
                       core::IvLayout::kObjectEnd)));
    CO_ASSERT_OK(image.status());
    CO_ASSERT_OK((co_await (*image)->SnapCreate("snap-a")).status());
    CO_ASSERT_OK((co_await (*image)->SnapCreate("snap-b")).status());
    auto header = co_await ReadHeader(**cluster, "trunc");
    CO_ASSERT_OK(header.status());
    auto io = (*cluster)->ioctx();

    // Cut the header at every structurally interesting point (with the
    // length field patched to match, so the parser sees a self-consistent
    // but incomplete buffer) — each must fail cleanly, never read OOB.
    for (const size_t cut : {size_t{9}, size_t{16}, size_t{27}, size_t{30},
                             size_t{34}, size_t{45}, header->size() / 2,
                             header->size() - 1}) {
      Bytes cropped(header->begin(), header->begin() + static_cast<long>(cut));
      StoreU32Le(cropped.data() + 4, static_cast<uint32_t>(cut));
      // Reject once via the checksum (an actually-truncated object)...
      CO_ASSERT_OK(co_await io.WriteFull("rbd_header.trunc", cropped));
      auto reopened = co_await Image::Open(**cluster, "trunc", "pw");
      EXPECT_FALSE(reopened.ok()) << "cut=" << cut;
      // ...and once with the checksum re-sealed, so the bounds-checked
      // parser itself must catch the structural truncation.
      if (cropped.size() >= 12) {
        SealHeader(cropped);
        CO_ASSERT_OK(co_await io.WriteFull("rbd_header.trunc", cropped));
        auto resealed = co_await Image::Open(**cluster, "trunc", "pw");
        EXPECT_FALSE(resealed.ok()) << "sealed cut=" << cut;
      }
    }
  });
}

TEST(Image, CorruptHeaderFieldsFailCleanly) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    auto image = co_await Image::Create(
        **cluster, "corrupt", "pw",
        TestImage(Spec(core::CipherMode::kXtsRandom,
                       core::IvLayout::kOmap)));
    CO_ASSERT_OK(image.status());
    CO_ASSERT_OK((co_await (*image)->SnapCreate("keep")).status());
    auto header = co_await ReadHeader(**cluster, "corrupt");
    CO_ASSERT_OK(header.status());
    auto io = (*cluster)->ioctx();

    struct Patch {
      const char* what;
      size_t off;
      uint32_t value;
    };
    // The LUKS blob follows 48 fixed bytes, the snapshot "keep" (8 + 2 + 4)
    // and its u32 length.
    constexpr size_t kLuksAt = 48 + 14 + 4;
    for (const Patch p : {
             Patch{"magic", 0, 0xDEADBEEF},
             Patch{"total_len tiny", 4, 5},
             Patch{"total_len huge", 4, 0x7FFFFFFF},
             Patch{"object_size unaligned", 16, 12345},
             Patch{"enc spec out of range", 24, 0x77777777},
             Patch{"snap_count huge", 28, 0xFFFFFFFF},
             // LUKS fields Unlock cannot survive: the parser rejects them.
             Patch{"luks pbkdf2_iterations = 0", kLuksAt + 4, 0},
             Patch{"luks af_stripes = 0", kLuksAt + 8, 0},
             Patch{"luks af_stripes != wrapped / key size", kLuksAt + 8, 7},
         }) {
      Bytes bad = *header;
      StoreU32Le(bad.data() + p.off, p.value);
      // Unsealed: the checksum rejects the flipped field.
      CO_ASSERT_OK(co_await io.WriteFull("rbd_header.corrupt", bad));
      auto reopened = co_await Image::Open(**cluster, "corrupt", "pw");
      EXPECT_FALSE(reopened.ok()) << p.what;
      // Re-sealed: the field validation itself must reject it.
      SealHeader(bad);
      CO_ASSERT_OK(co_await io.WriteFull("rbd_header.corrupt", bad));
      auto resealed = co_await Image::Open(**cluster, "corrupt", "pw");
      EXPECT_FALSE(resealed.ok()) << p.what << " (sealed)";
    }

    // The pristine header still opens (the patches above were the problem).
    CO_ASSERT_OK(co_await io.WriteFull("rbd_header.corrupt", *header));
    auto ok = co_await Image::Open(**cluster, "corrupt", "pw");
    CO_ASSERT_OK(ok.status());
    EXPECT_EQ((*ok)->snapshots().size(), 1u);
  });
}

// Create applies the layout rules Open applies to header bytes, so it
// cannot make an image that does not reopen. A zero object size would
// reach MapOffset as a divisor on the first write.
TEST(Image, CreateRejectsZeroSizes) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    const ImageOptions valid = TestImage(
        Spec(core::CipherMode::kXtsRandom, core::IvLayout::kObjectEnd));
    ImageOptions zero_object = valid;
    zero_object.object_size = 0;
    ImageOptions zero_size = valid;
    zero_size.size = 0;
    for (const ImageOptions& options : {zero_object, zero_size}) {
      auto image = co_await Image::Create(**cluster, "zero", "pw", options);
      EXPECT_EQ(image.status().code(), StatusCode::kInvalidArgument);
    }
  });
}

// core::SpecError is the one spec-validity rule: Create refuses a spec that
// breaks it, and a header carrying one parses as Corruption, so no such
// image is written or opened.
TEST(Image, SpecErrorRejectsCreateAndHeader) {
  crypto::Drbg rng(5);
  core::LuksHeader::Params params;
  params.pbkdf2_iterations = 10;
  params.af_stripes = 8;
  const core::LuksHeader luks = core::LuksHeader::Format(
      Bytes(core::kMasterKeySize, 1), "pw", params, rng);
  const ImageOptions valid = TestImage(
      Spec(core::CipherMode::kXtsRandom, core::IvLayout::kObjectEnd));
  ASSERT_TRUE(ParseImageHeader(SerializeMetadata(valid, luks, true, {})).ok());
  for (const core::EncryptionSpec& spec : testutil::RejectedSpecs()) {
    const Result<ImageHeader> parsed =
        ParseImageHeader(SerializeMetadata(TestImage(spec), luks, true, {}));
    EXPECT_EQ(parsed.status().code(), StatusCode::kCorruption) << spec.Name();
  }
  testutil::RunSim([]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    for (const core::EncryptionSpec& spec : testutil::RejectedSpecs()) {
      auto image =
          co_await Image::Create(**cluster, "bad", "pw", TestImage(spec));
      EXPECT_EQ(image.status().code(), StatusCode::kInvalidArgument)
          << spec.Name();
    }
  });
}

TEST(Image, OversizedSnapshotNameRejected) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    auto image = co_await Image::Create(
        **cluster, "snaplen", "pw",
        TestImage(Spec(core::CipherMode::kXtsLba, core::IvLayout::kNone)));
    CO_ASSERT_OK(image.status());
    // 65536 bytes does not fit the u16 length field: reject instead of
    // silently truncating on the next Open.
    auto too_long =
        co_await (*image)->SnapCreate(std::string(65536, 'x'));
    EXPECT_EQ(too_long.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ((*image)->snapshots().size(), 0u);
    // The maximum representable length round-trips.
    auto max_len = co_await (*image)->SnapCreate(std::string(65535, 'y'));
    CO_ASSERT_OK(max_len.status());
    auto reopened = co_await Image::Open(**cluster, "snaplen", "pw");
    CO_ASSERT_OK(reopened.status());
    CO_ASSERT_EQ((*reopened)->snapshots().size(), 1u);
    EXPECT_EQ((*reopened)->snapshots().front().second.size(), 65535u);
  });
}

// Metadata larger than the 64 KiB first read (many snapshots with long
// names) must round-trip: Open re-reads the full object instead of parsing
// a truncated prefix.
TEST(Image, LargeMetadataHeaderRoundTrips) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    auto image = co_await Image::Create(
        **cluster, "bigmeta", "pw",
        TestImage(Spec(core::CipherMode::kXtsRandom,
                       core::IvLayout::kObjectEnd)));
    CO_ASSERT_OK(image.status());
    auto& img = **image;
    Rng rng(77);
    const Bytes data = rng.RandomBytes(8192);
    CO_ASSERT_OK(co_await img.Write(0, data));
    constexpr size_t kSnaps = 80;
    for (size_t i = 0; i < kSnaps; ++i) {
      std::string name(1200, 'a' + static_cast<char>(i % 26));
      name += std::to_string(i);
      CO_ASSERT_OK((co_await img.SnapCreate(name)).status());
    }
    auto header = co_await ReadHeader(**cluster, "bigmeta");
    CO_ASSERT_OK(header.status());
    EXPECT_GT(header->size(), 64u * 1024) << "test must exceed the first read";

    auto reopened = co_await Image::Open(**cluster, "bigmeta", "pw");
    CO_ASSERT_OK(reopened.status());
    CO_ASSERT_EQ((*reopened)->snapshots().size(), kSnaps);
    auto got = co_await (*reopened)->Read(0, data.size());
    CO_ASSERT_OK(got.status());
    CO_ASSERT_TRUE(*got == data);
  });
}

TEST(Image, StatsAccumulate) {
  testutil::RunSim([]() -> sim::Task<void> {
    auto cluster = co_await rados::Cluster::Create(TestCluster());
    auto image = co_await Image::Create(
        **cluster, "stats", "pw",
        TestImage(Spec(core::CipherMode::kXtsLba, core::IvLayout::kNone)));
    auto& img = **image;
    Rng rng(6);
    CO_ASSERT_OK(co_await img.Write(0, rng.RandomBytes(8192)));
    (void)co_await img.Read(0, 4096);
    EXPECT_EQ(ImageCounter(img, "writes"), 1u);
    EXPECT_EQ(ImageCounter(img, "reads"), 1u);
    EXPECT_EQ(ImageCounter(img, "bytes_written"), 8192u);
    EXPECT_EQ(ImageCounter(img, "bytes_read"), 4096u);
  });
}

// A read's decrypt feeds no later store op, so under the 4-core model it
// takes the least-busy core instead of its object's core. With long commit
// work queued on object X's core (writes to another object that hashes to
// the same core, at 2 ms of commit per replica), a read of X completes in
// exactly the uncontended read time.
TEST(Image, ReadDecryptDoesNotQueueBehindCommitsOnItsCore) {
  sim::Scheduler sched;
  sched.ConfigureCores(4);  // overrides VDE_SIM_CORES (the .mc4 shard)
  bool finished = false;
  auto body = [&]() -> sim::Task<void> {
    rados::ClusterConfig cc = TestCluster();
    cc.store.costs.write_op_apply_cost = 2 * sim::kMs;
    auto cluster = co_await rados::Cluster::Create(cc);
    CO_ASSERT_OK(cluster.status());
    auto image = co_await Image::Create(
        **cluster, "img", "pw",
        TestImage(Spec(core::CipherMode::kXtsRandom,
                       core::IvLayout::kObjectEnd)));
    CO_ASSERT_OK(image.status());
    auto& img = **image;
    const uint64_t core_x = sim::ShardOf(img.ObjectName(0)) % 4;
    uint64_t y = 1;
    while (sim::ShardOf(img.ObjectName(y)) % 4 != core_x) ++y;
    Rng rng(5);
    const Bytes block = rng.RandomBytes(4096);
    CO_ASSERT_OK(co_await img.Write(0, block));

    auto timed_read = [&]() -> sim::Task<sim::SimTime> {
      const sim::SimTime start = sched.now();
      auto got = co_await img.Read(0, block.size());
      EXPECT_TRUE(got.ok() && *got == block);
      co_return sched.now() - start;
    };
    (void)co_await timed_read();  // first touch of the object's state
    const sim::SimTime uncontended = co_await timed_read();

    std::vector<CompletionPtr> writes;
    for (uint64_t b = 0; b < 8; ++b) {
      writes.push_back(Completion::Create());
      img.AioWrite(block, y * img.object_size() + b * 4096, writes.back());
    }
    co_await sim::Sleep{sim::kMs};  // the writes' commits queue on X's core
    const sim::SimTime contended = co_await timed_read();
    const sim::SimTime read_done = sched.now();
    for (const CompletionPtr& c : writes) {
      co_await c->Wait();
      CO_ASSERT_OK(c->status());
    }
    EXPECT_GT(sched.now() - read_done, 10 * sim::kMs)
        << "the commit backlog must outlast the read";
    EXPECT_EQ(contended, uncontended);
    finished = true;
  };
  sched.Spawn(body());
  sched.Run();
  EXPECT_TRUE(finished);
}

}  // namespace
}  // namespace vde::rbd
