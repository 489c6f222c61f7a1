#include <gtest/gtest.h>

#include <memory>

#include "device/nvme.h"
#include "device/sparse_ram.h"
#include "net/link.h"
#include "sim/scheduler.h"
#include "util/rng.h"

namespace vde::dev {
namespace {

TEST(SparseRam, HolesReadZero) {
  SparseRam ram(1 << 20);
  Bytes out(100, 0xFF);
  ram.ReadAt(5000, out);
  EXPECT_TRUE(std::all_of(out.begin(), out.end(),
                          [](uint8_t b) { return b == 0; }));
  EXPECT_EQ(ram.allocated_pages(), 0u);
}

TEST(SparseRam, WriteReadRoundtripAcrossPages) {
  SparseRam ram(1 << 20);
  Rng rng(1);
  const Bytes data = rng.RandomBytes(10000);  // spans 3 pages
  ram.WriteAt(4000, data);
  Bytes out(10000);
  ram.ReadAt(4000, out);
  EXPECT_EQ(out, data);
  EXPECT_EQ(ram.allocated_pages(), 4u);  // bytes 4000..14000 touch pages 0-3
}

TEST(SparseRam, PartialPageWritePreservesNeighbors) {
  SparseRam ram(1 << 20);
  const Bytes a(4096, 0xAA);
  ram.WriteAt(0, a);
  const Bytes b(10, 0xBB);
  ram.WriteAt(100, b);
  Bytes out(4096);
  ram.ReadAt(0, out);
  EXPECT_EQ(out[99], 0xAA);
  EXPECT_EQ(out[100], 0xBB);
  EXPECT_EQ(out[109], 0xBB);
  EXPECT_EQ(out[110], 0xAA);
}

// Memory released by Punch and handed to a different page number must not
// show its previous tenant's bytes outside the new write. The tenants are a
// full page and the exact sector span the new 100 B write touches, so either
// way the new write can land in the released memory.
TEST(SparseRam, RecycledPageReadsZerosOutsideNewWrite) {
  for (const auto& [tenant_off, tenant_len] :
       {std::pair<size_t, size_t>{0, 4096}, {512, 1024}}) {
    SparseRam ram(1 << 20);
    ram.WriteAt(tenant_off, Bytes(tenant_len, 0xAA));
    ram.Punch(0, 4096);
    EXPECT_EQ(ram.allocated_pages(), 0u);
    ram.WriteAt(5 * 4096 + 1000, Bytes(100, 0xBB));
    Bytes out(4096);
    ram.ReadAt(5 * 4096, out);
    for (size_t i = 0; i < out.size(); ++i) {
      const uint8_t want = (i >= 1000 && i < 1100) ? 0xBB : 0x00;
      ASSERT_EQ(out[i], want) << "tenant " << tenant_len << " byte " << i;
    }
    ram.ReadAt(0, out);
    EXPECT_TRUE(std::all_of(out.begin(), out.end(),
                            [](uint8_t b) { return b == 0; }));
  }
}

// Same property at scale: more pages than fit one allocation batch, all
// punched, then each recycled by a write elsewhere that touches every
// sector of its page but misses a few bytes at both ends.
TEST(SparseRam, ManyRecycledPagesReadZerosOutsideNewWrites) {
  constexpr uint64_t kPages = 600;
  SparseRam ram(2 * kPages * 4096);
  for (uint64_t p = 0; p < kPages; ++p) {
    ram.WriteAt(p * 4096, Bytes(4096, 0xEE));
  }
  ram.Punch(0, kPages * 4096);
  EXPECT_EQ(ram.allocated_pages(), 0u);
  for (uint64_t p = kPages; p < 2 * kPages; ++p) {
    ram.WriteAt(p * 4096 + 7, Bytes(4083, 0x11));
  }
  EXPECT_EQ(ram.allocated_pages(), kPages);
  Bytes out(4096);
  for (uint64_t p = kPages; p < 2 * kPages; ++p) {
    ram.ReadAt(p * 4096, out);
    for (size_t i = 0; i < out.size(); ++i) {
      const uint8_t want = (i >= 7 && i < 4090) ? 0x11 : 0x00;
      ASSERT_EQ(out[i], want) << "page " << p << " byte " << i;
    }
  }
}

TEST(SparseRam, FreshFullPageWriteThenPartialOverwrite) {
  SparseRam ram(1 << 20);
  Rng rng(5);
  Bytes page = rng.RandomBytes(4096);
  ram.WriteAt(3 * 4096, page);
  Bytes out(4096);
  ram.ReadAt(3 * 4096, out);
  EXPECT_EQ(out, page);
  const Bytes patch = rng.RandomBytes(100);
  ram.WriteAt(3 * 4096 + 2000, patch);
  std::copy(patch.begin(), patch.end(), page.begin() + 2000);
  ram.ReadAt(3 * 4096, out);
  EXPECT_EQ(out, page);
  EXPECT_EQ(ram.allocated_pages(), 1u);
}

// Random writes (some all-zero, some partly zero), punches and reads at
// arbitrary byte offsets and lengths across page and sector boundaries,
// checked against a flat byte array.
TEST(SparseRam, MatchesFlatModelUnderRandomOps) {
  constexpr size_t kSize = 64 * 4096;
  SparseRam ram(kSize);
  Bytes model(kSize, 0);
  Rng rng(11);
  for (int op = 0; op < 4000; ++op) {
    const size_t off = rng.NextBelow(kSize);
    const size_t len = 1 + rng.NextBelow(std::min<size_t>(kSize - off, 9000));
    switch (rng.NextBelow(4)) {
      case 0: {  // random bytes with a zero run in the middle
        Bytes b = rng.RandomBytes(len);
        const size_t z = rng.NextBelow(len);
        std::fill(b.begin() + static_cast<long>(z),
                  b.begin() + static_cast<long>(
                                  std::min(len, z + rng.NextBelow(2048))),
                  0);
        ram.WriteAt(off, b);
        std::copy(b.begin(), b.end(), model.begin() + static_cast<long>(off));
        break;
      }
      case 1: {
        const Bytes zeros(len, 0);
        ram.WriteAt(off, zeros);
        std::fill_n(model.begin() + static_cast<long>(off), len, 0);
        break;
      }
      case 2:
        ram.Punch(off, len);
        std::fill_n(model.begin() + static_cast<long>(off), len, 0);
        break;
      default: {
        Bytes out(len, 0xFF);
        ram.ReadAt(off, out);
        ASSERT_TRUE(std::equal(out.begin(), out.end(),
                               model.begin() + static_cast<long>(off)))
            << "op " << op << " read " << off << "+" << len;
      }
    }
  }
  Bytes all(kSize);
  ram.ReadAt(0, all);
  EXPECT_EQ(all, model);
}

Bytes ReadBack(const SparseRam& ram, uint64_t offset, size_t length) {
  Bytes out(length);
  ram.ReadAt(offset, out);
  return out;
}

// A whole-page write through a share is stored once: the second device
// adopts the first one's pages (at its own offset) instead of copying.
TEST(SparseRam, SharedWholePageWriteIsStoredOnce) {
  const size_t live = SparseRam::ArenaLivePages();
  SparseRam a(1 << 20);
  SparseRam b(1 << 20);
  const Bytes data = Rng(3).RandomBytes(2 * 4096);
  {
    SparseRam::PageRun share;
    a.WriteAt(4096, data, share);
    b.WriteAt(5 * 4096, data, share);
    EXPECT_EQ(a.PageRefs(4096), 3u);  // a, b and the run
  }
  EXPECT_EQ(SparseRam::ArenaLivePages() - live, 2u);
  EXPECT_EQ(a.PageRefs(2 * 4096), 2u);
  EXPECT_EQ(b.PageRefs(6 * 4096), 2u);
  EXPECT_EQ(ReadBack(a, 4096, data.size()), data);
  EXPECT_EQ(ReadBack(b, 5 * 4096, data.size()), data);
}

// A partial-page payload is copied where the run does not match it: the
// op sits at a different in-page offset on the adopting device.
TEST(SparseRam, PartialPagePayloadThroughShareIsCopied) {
  SparseRam a(1 << 20);
  SparseRam b(1 << 20);
  const Bytes data = Rng(2).RandomBytes(4096);
  SparseRam::PageRun share;
  a.WriteAt(100, data, share);
  b.WriteAt(8192 + 612, data, share);
  EXPECT_FALSE(share.empty());
  EXPECT_EQ(a.PageRefs(0), 2u);  // a and the run
  EXPECT_EQ(a.PageRefs(4096), 2u);
  EXPECT_EQ(b.PageRefs(8192), 1u);
  EXPECT_EQ(b.PageRefs(3 * 4096), 1u);
  EXPECT_EQ(ReadBack(a, 100, data.size()), data);
  EXPECT_EQ(ReadBack(b, 8192 + 612, data.size()), data);
}

// Two devices holding one shared page at offset 0 (the run is dropped).
struct SharedPair {
  SparseRam a{1 << 20};
  SparseRam b{1 << 20};
  Bytes page = Rng(7).RandomBytes(4096);
  SharedPair() {
    SparseRam::PageRun share;
    a.WriteAt(0, page, share);
    b.WriteAt(0, page, share);
  }
};

TEST(SparseRam, PartialWriteToSharedPageCopiesIt) {
  SharedPair p;
  const Bytes patch(100, 0xAB);
  p.a.WriteAt(2000, patch);
  Bytes want = p.page;
  std::copy(patch.begin(), patch.end(), want.begin() + 2000);
  EXPECT_EQ(ReadBack(p.a, 0, 4096), want);
  EXPECT_EQ(ReadBack(p.b, 0, 4096), p.page);
  EXPECT_EQ(p.a.PageRefs(0), 1u);
  EXPECT_EQ(p.b.PageRefs(0), 1u);
}

TEST(SparseRam, PunchOfSharedPageCopiesIt) {
  SharedPair p;
  p.a.Punch(1000, 24);
  Bytes want = p.page;
  std::fill_n(want.begin() + 1000, 24, 0);
  EXPECT_EQ(ReadBack(p.a, 0, 4096), want);
  EXPECT_EQ(ReadBack(p.b, 0, 4096), p.page);
  p.b.Punch(0, 4096);
  EXPECT_EQ(p.b.allocated_pages(), 0u);
  EXPECT_EQ(ReadBack(p.b, 0, 4096), Bytes(4096, 0));
  EXPECT_EQ(ReadBack(p.a, 0, 4096), want);
}

TEST(SparseRam, FullPageOverwriteOfSharedPageLeavesOtherHolder) {
  SharedPair p;
  const Bytes fresh(4096, 0x5A);
  p.a.WriteAt(0, fresh);
  EXPECT_EQ(ReadBack(p.a, 0, 4096), fresh);
  EXPECT_EQ(ReadBack(p.b, 0, 4096), p.page);
  EXPECT_EQ(p.b.PageRefs(0), 1u);
}

TEST(SparseRam, PartialWriteAdoptedOverTheSameBeforePage) {
  SharedPair p;
  const size_t live = SparseRam::ArenaLivePages();
  const Bytes patch = Rng(8).RandomBytes(300);
  {
    SparseRam::PageRun share;
    p.a.WriteAt(100, patch, share);
    p.b.WriteAt(100, patch, share);
    EXPECT_EQ(p.a.PageRefs(0), 3u);  // a, b and the run
  }
  // The page both held before is released; one copy of the result is left.
  EXPECT_EQ(SparseRam::ArenaLivePages(), live);
  EXPECT_EQ(p.b.PageRefs(0), 2u);
  Bytes want = p.page;
  std::copy(patch.begin(), patch.end(), want.begin() + 100);
  EXPECT_EQ(ReadBack(p.a, 0, 4096), want);
  EXPECT_EQ(ReadBack(p.b, 0, 4096), want);
}

// A hole matches a hole, and the whole pages between partial edges are
// adopted as before.
TEST(SparseRam, PartialWriteAdoptedOverAHole) {
  const size_t live = SparseRam::ArenaLivePages();
  SparseRam a(1 << 20);
  SparseRam b(1 << 20);
  const Bytes data = Rng(10).RandomBytes(10000);  // 4000..14000: 4 pages
  {
    SparseRam::PageRun share;
    a.WriteAt(4000, data, share);
    b.WriteAt(8 * 4096 + 4000, data, share);
  }
  EXPECT_EQ(SparseRam::ArenaLivePages() - live, 4u);
  for (uint64_t page = 0; page < 4; ++page) {
    EXPECT_EQ(b.PageRefs((8 + page) * 4096), 2u) << page;
  }
  Bytes want(4 * 4096, 0);
  std::copy(data.begin(), data.end(), want.begin() + 4000);
  EXPECT_EQ(ReadBack(a, 0, want.size()), want);
  EXPECT_EQ(ReadBack(b, 8 * 4096, want.size()), want);
}

// A page that is not the recorded before page is changed in place of
// adopting: one the adopter changed on its own, and one only the first
// device held (the adopter has a hole there).
TEST(SparseRam, DivergedHolderCopies) {
  SharedPair p;
  SparseRam c(1 << 20);
  const Bytes own(8, 0xEE);
  p.b.WriteAt(3000, own);
  const Bytes patch = Rng(11).RandomBytes(200);
  SparseRam::PageRun share;
  p.a.WriteAt(1000, patch, share);
  p.b.WriteAt(1000, patch, share);
  c.WriteAt(1000, patch, share);
  EXPECT_EQ(p.a.PageRefs(0), 2u);  // a and the run
  EXPECT_EQ(p.b.PageRefs(0), 1u);
  EXPECT_EQ(c.PageRefs(0), 1u);
  Bytes want_a = p.page;
  std::copy(patch.begin(), patch.end(), want_a.begin() + 1000);
  Bytes want_b = want_a;
  std::copy(own.begin(), own.end(), want_b.begin() + 3000);
  Bytes want_c(4096, 0);
  std::copy(patch.begin(), patch.end(), want_c.begin() + 1000);
  EXPECT_EQ(ReadBack(p.a, 0, 4096), want_a);
  EXPECT_EQ(ReadBack(p.b, 0, 4096), want_b);
  EXPECT_EQ(ReadBack(c, 0, 4096), want_c);
}

// A Punch through a run shares its partial edge page and releases the
// whole pages on every device.
TEST(SparseRam, PartialPunchThroughARunIsShared) {
  SparseRam a(1 << 20);
  SparseRam b(1 << 20);
  const Bytes data = Rng(12).RandomBytes(2 * 4096);
  {
    SparseRam::PageRun share;
    a.WriteAt(0, data, share);
    b.WriteAt(0, data, share);
  }
  const size_t live = SparseRam::ArenaLivePages();
  {
    SparseRam::PageRun share;
    a.Punch(1000, 4096 + 3096, share);  // the tail of page 0, all of page 1
    b.Punch(1000, 4096 + 3096, share);
    EXPECT_EQ(b.PageRefs(0), 3u);  // a, b and the run
  }
  EXPECT_EQ(SparseRam::ArenaLivePages(), live - 1);
  EXPECT_EQ(a.allocated_pages(), 1u);
  EXPECT_EQ(b.allocated_pages(), 1u);
  EXPECT_EQ(a.PageRefs(0), 2u);
  Bytes want(2 * 4096, 0);
  std::copy_n(data.begin(), 1000, want.begin());
  EXPECT_EQ(ReadBack(a, 0, want.size()), want);
  EXPECT_EQ(ReadBack(b, 0, want.size()), want);
}

// The run holds its pages: a device adopting after the writer changed
// them (a slower replica) still gets the bytes first written.
TEST(SparseRam, LateAdopterGetsTheBytesFirstWritten) {
  SparseRam a(1 << 20);
  SparseRam b(1 << 20);
  const Bytes data = Rng(9).RandomBytes(2 * 4096);
  SparseRam::PageRun share;
  a.WriteAt(0, data, share);
  a.WriteAt(0, Bytes(4096, 0x01));
  a.WriteAt(4096 + 7, Bytes(9, 0x02));
  a.Punch(0, 4096);
  b.WriteAt(0, data, share);
  EXPECT_EQ(ReadBack(b, 0, data.size()), data);
}

// A late adopter of a partial write gets the bytes first written, though
// the first device has since changed and punched its page.
TEST(SparseRam, LateAdopterOfAPartialWriteGetsTheBytesFirstWritten) {
  SparseRam a(1 << 20);
  SparseRam b(1 << 20);
  const Bytes data = Rng(13).RandomBytes(200);
  SparseRam::PageRun share;
  a.WriteAt(300, data, share);
  a.WriteAt(300, Bytes(200, 0x03));
  a.Punch(0, 4096);
  b.WriteAt(300, data, share);
  EXPECT_EQ(b.PageRefs(0), 2u);  // b and the run
  Bytes want(4096, 0);
  std::copy(data.begin(), data.end(), want.begin() + 300);
  EXPECT_EQ(ReadBack(b, 0, 4096), want);
}

// The run keeps its before pages alive: once every device has dropped the
// recorded before page, a recycled page can never stand in for it.
TEST(SparseRam, RunKeepsItsBeforePagesAlive) {
  SharedPair p;
  const Bytes patch = Rng(14).RandomBytes(64);
  SparseRam::PageRun share;
  p.a.WriteAt(500, patch, share);
  const size_t live = SparseRam::ArenaLivePages();
  p.b.WriteAt(0, Bytes(4096, 0x44));  // b drops the shared before page
  EXPECT_EQ(SparseRam::ArenaLivePages(), live + 1);  // still held by the run
  SparseRam c(1 << 20);
  c.WriteAt(0, Bytes(16, 0x55));  // a fresh page, not the before page
  p.b.WriteAt(500, patch, share);
  c.WriteAt(500, patch, share);
  EXPECT_EQ(p.b.PageRefs(0), 1u);
  EXPECT_EQ(c.PageRefs(0), 1u);
  Bytes want_b(4096, 0x44);
  std::copy(patch.begin(), patch.end(), want_b.begin() + 500);
  Bytes want_c(4096, 0);
  std::fill_n(want_c.begin(), 16, 0x55);
  std::copy(patch.begin(), patch.end(), want_c.begin() + 500);
  EXPECT_EQ(ReadBack(p.b, 0, 4096), want_b);
  EXPECT_EQ(ReadBack(c, 0, 4096), want_c);
}

TEST(SparseRam, SharedPageOutlivesTheDeviceThatWroteIt) {
  auto a = std::make_unique<SparseRam>(1 << 20);
  SparseRam b(1 << 20);
  const Bytes data = Rng(4).RandomBytes(4096);
  {
    SparseRam::PageRun share;
    a->WriteAt(4096, data, share);
    b.WriteAt(4096, data, share);
  }
  a.reset();
  EXPECT_EQ(b.PageRefs(4096), 1u);
  EXPECT_EQ(ReadBack(b, 4096, 4096), data);
}

// A recorded run is copy-on-write: the device it was recorded from copies
// a page before changing it, so the run keeps the bytes it recorded, and a
// device that writes the run later gets them.
TEST(SparseRam, RecordedRunKeepsItsBytesAfterTheSourceChanges) {
  SparseRam a(1 << 20);
  SparseRam b(1 << 20);
  const Bytes data = Rng(15).RandomBytes(3 * 4096);
  a.WriteAt(0, data);
  SparseRam::PageRun run;
  a.Record(100, 2 * 4096 + 500, run);  // partial, whole, partial
  EXPECT_EQ(run.length(), 2 * 4096 + 500u);
  EXPECT_EQ(a.PageRefs(0), 3u);     // a, and the run as before and after
  EXPECT_EQ(a.PageRefs(4096), 2u);  // a and the run
  a.WriteAt(50, Bytes(100, 0x01));
  a.WriteAt(4096, Bytes(4096, 0x02));
  a.Punch(2 * 4096, 4096);
  const Bytes want(data.begin() + 100, data.begin() + 100 + 2 * 4096 + 500);
  Bytes got(want.size());
  run.Read(0, got);
  EXPECT_EQ(got, want);
  b.WriteAt(100, run);
  EXPECT_EQ(ReadBack(b, 100, want.size()), want);
  EXPECT_EQ(ReadBack(b, 0, 100), Bytes(100, 0));
}

// Pages a recorded range covers whole are adopted, not copied: the writer
// holds the recorded device's pages, and the arena gains none.
TEST(SparseRam, RecordedWholePagesAreAdopted) {
  SparseRam a(1 << 20);
  SparseRam b(1 << 20);
  const Bytes data = Rng(16).RandomBytes(3 * 4096);
  a.WriteAt(4096, data);
  const size_t live = SparseRam::ArenaLivePages();
  {
    SparseRam::PageRun run;
    a.Record(4096, data.size(), run);
    b.WriteAt(9 * 4096, run);
    EXPECT_EQ(b.PageRefs(9 * 4096), 3u);  // a, b and the run
  }
  EXPECT_EQ(SparseRam::ArenaLivePages(), live);
  for (uint64_t page = 0; page < 3; ++page) {
    EXPECT_EQ(b.PageRefs((9 + page) * 4096), 2u) << page;
  }
  EXPECT_EQ(ReadBack(b, 9 * 4096, data.size()), data);
}

// A partial edge page is recorded as its own before page: a device that
// already holds that page keeps it, and any other page (a diverged copy,
// a hole) gets the recorded bytes copied in, its other bytes kept.
TEST(SparseRam, RecordedPartialPageAdoptedOnlyOverTheRecordedPage) {
  SharedPair p;
  SparseRam c(1 << 20);
  SparseRam d(1 << 20);
  c.WriteAt(0, Bytes(4096, 0x66));
  const size_t live = SparseRam::ArenaLivePages();
  SparseRam::PageRun run;
  p.a.Record(100, 300, run);
  p.b.WriteAt(100, run);
  c.WriteAt(100, run);
  d.WriteAt(100, run);
  EXPECT_EQ(p.b.PageRefs(0), 4u);  // a, b, and the run as before and after
  EXPECT_EQ(c.PageRefs(0), 1u);
  EXPECT_EQ(d.PageRefs(0), 1u);
  EXPECT_EQ(SparseRam::ArenaLivePages(), live + 1);  // d's new page
  EXPECT_EQ(ReadBack(p.b, 0, 4096), p.page);
  Bytes want_c(4096, 0x66);
  std::copy_n(p.page.begin() + 100, 300, want_c.begin() + 100);
  EXPECT_EQ(ReadBack(c, 0, 4096), want_c);
  Bytes want_d(4096, 0);
  std::copy_n(p.page.begin() + 100, 300, want_d.begin() + 100);
  EXPECT_EQ(ReadBack(d, 0, 4096), want_d);
}

// Holes are recorded as holes: a whole hole page releases the writer's
// page, a partial one leaves a hole a hole and zeroes the recorded bytes
// of a page the writer holds. A ZeroRun writes the same way.
TEST(SparseRam, RecordedHolesStayHoles) {
  SparseRam a(1 << 20);
  SparseRam b(1 << 20);
  SparseRam c(1 << 20);
  const Bytes data = Rng(17).RandomBytes(4096);
  a.WriteAt(0, data);
  a.WriteAt(2 * 4096, data);  // page 1 and from page 3 on are holes
  b.WriteAt(4096, Bytes(4096, 0x77));
  c.WriteAt(3 * 4096, Bytes(4096, 0x88));
  SparseRam::PageRun run;
  a.Record(0, 3 * 4096 + 200, run);  // ends in a partial hole
  b.WriteAt(0, run);
  c.WriteAt(0, run);
  EXPECT_EQ(b.PageRefs(4096), 0u);
  EXPECT_EQ(b.PageRefs(3 * 4096), 0u);
  EXPECT_EQ(b.allocated_pages(), 2u);
  Bytes want(3 * 4096 + 200, 0);
  std::copy(data.begin(), data.end(), want.begin());
  std::copy(data.begin(), data.end(), want.begin() + 2 * 4096);
  EXPECT_EQ(ReadBack(b, 0, want.size()), want);
  Bytes want_c(4 * 4096, 0x88);
  std::copy(want.begin(), want.end(), want_c.begin());
  EXPECT_EQ(ReadBack(c, 0, want_c.size()), want_c);

  c.WriteAt(0, SparseRam::ZeroRun(0, 4 * 4096 - 1));
  EXPECT_EQ(c.allocated_pages(), 1u);  // the last page, partly kept
  Bytes want_zero(4 * 4096, 0);
  want_zero.back() = 0x88;
  EXPECT_EQ(ReadBack(c, 0, want_zero.size()), want_zero);
}

// A run written at another in-page offset than it was recorded at cannot
// line its pages up with the writer's: its bytes are copied.
TEST(SparseRam, RecordedRunAtAnotherInPageOffsetIsCopied) {
  SparseRam a(1 << 20);
  SparseRam b(1 << 20);
  const Bytes data = Rng(18).RandomBytes(2 * 4096);
  a.WriteAt(0, data);
  {
    SparseRam::PageRun run;
    a.Record(0, data.size(), run);
    b.WriteAt(512, run);
  }
  EXPECT_EQ(a.PageRefs(0), 1u);
  EXPECT_EQ(a.PageRefs(4096), 1u);
  for (uint64_t page = 0; page < 3; ++page) {
    EXPECT_EQ(b.PageRefs(page * 4096), 1u) << page;
  }
  EXPECT_EQ(ReadBack(b, 512, data.size()), data);
  EXPECT_EQ(ReadBack(b, 0, 512), Bytes(512, 0));
}

// Relies on no other device being alive in this test binary.
TEST(SparseRam, ArenaFreesItsSlabsOnceEmpty) {
  ASSERT_EQ(SparseRam::ArenaLivePages(), 0u);
  {
    SparseRam a(1 << 22);
    SparseRam b(1 << 22);
    {
      SparseRam::PageRun share;
      a.WriteAt(0, Bytes(300 * 4096, 0x33), share);  // more than one slab
      b.WriteAt(0, Bytes(300 * 4096, 0x33), share);
      EXPECT_GE(SparseRam::ArenaSlabs(), 2u);
    }
    a.Punch(0, 300 * 4096);
    EXPECT_EQ(SparseRam::ArenaLivePages(), 300u);  // b's pages
    EXPECT_GE(SparseRam::ArenaSlabs(), 2u);
  }
  EXPECT_EQ(SparseRam::ArenaLivePages(), 0u);
  EXPECT_EQ(SparseRam::ArenaSlabs(), 0u);
}

sim::Task<void> DoIo(NvmeDevice& dev, std::vector<Status>* results) {
  Rng rng(7);
  const Bytes data = rng.RandomBytes(8192);
  results->push_back(co_await dev.Write(4096, data));
  Bytes out(8192);
  results->push_back(co_await dev.Read(4096, out));
  results->push_back(out == data ? Status::Ok() : Status::Corruption());
  // Unaligned IO must be rejected.
  Bytes small(100);
  results->push_back(co_await dev.Read(4096, small));
  results->push_back(co_await dev.Write(10, data));
}

TEST(Nvme, AlignedIoRoundtripAndRejection) {
  sim::Scheduler sched;
  NvmeDevice dev;
  std::vector<Status> results;
  sched.Spawn(DoIo(dev, &results));
  sched.Run();
  ASSERT_EQ(results.size(), 5u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_TRUE(results[1].ok());
  EXPECT_TRUE(results[2].ok()) << "data mismatch through device";
  EXPECT_EQ(results[3].code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(results[4].code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(dev.stats().write_ops, 1u);
  EXPECT_EQ(dev.stats().read_ops, 1u);
  EXPECT_EQ(dev.stats().sectors_written, 2u);
}

sim::Task<void> OneWrite(NvmeDevice& dev, size_t bytes) {
  const Bytes data(bytes, 0xCD);
  (void)co_await dev.Write(0, data);
}

TEST(Nvme, CostModelChargesLatencyPlusTransfer) {
  sim::Scheduler sched;
  NvmeConfig cfg;
  cfg.write_latency = 10 * sim::kUs;
  cfg.write_gbps = 1.0;  // 1 ns per byte
  NvmeDevice dev(cfg);
  sched.Spawn(OneWrite(dev, 4096));
  sched.Run();
  EXPECT_EQ(sched.now(), 10 * sim::kUs + 4096u);
}

sim::Task<void> ParallelReads(NvmeDevice& dev, int n, size_t bytes) {
  std::vector<sim::Task<void>> tasks;
  for (int i = 0; i < n; ++i) {
    tasks.push_back([](NvmeDevice& d, size_t len, uint64_t off) -> sim::Task<void> {
      Bytes out(len);
      (void)co_await d.Read(off, out);
    }(dev, bytes, static_cast<uint64_t>(i) * bytes));
  }
  co_await sim::WhenAll(std::move(tasks));
}

TEST(Nvme, ChannelsBoundConcurrency) {
  sim::Scheduler sched;
  NvmeConfig cfg;
  cfg.read_latency = 100 * sim::kUs;
  cfg.read_gbps = 1000.0;  // transfer time negligible
  cfg.channels = 4;
  NvmeDevice dev(cfg);
  sched.Spawn(ParallelReads(dev, 8, 4096));
  sched.Run();
  // 8 ops over 4 channels at 100us each => 2 waves => 200us (+epsilon).
  EXPECT_GE(sched.now(), 200 * sim::kUs);
  EXPECT_LT(sched.now(), 210 * sim::kUs);
}

sim::Task<void> SendOne(net::Nic& a, net::Nic& b, size_t bytes) {
  co_await net::Send(a, b, bytes);
}

TEST(Nic, SendChargesSerializationAndPropagation) {
  sim::Scheduler sched;
  net::NicConfig cfg;
  cfg.gbytes_per_sec = 1.0;  // 1 ns/byte
  cfg.propagation = 10 * sim::kUs;
  cfg.streams = 1;
  net::Nic a(cfg), b(cfg);
  sched.Spawn(SendOne(a, b, 1000));
  sched.Run();
  // Cut-through: max(egress, ingress) serialization + propagation.
  EXPECT_EQ(sched.now(), 1000u + 10 * sim::kUs);
  EXPECT_EQ(a.egress().bytes_transferred(), 1000u);
  EXPECT_EQ(b.ingress().bytes_transferred(), 1000u);
}

sim::Task<void> ManySends(net::Nic& a, net::Nic& b, int n, size_t bytes) {
  std::vector<sim::Task<void>> tasks;
  for (int i = 0; i < n; ++i) tasks.push_back(SendOne(a, b, bytes));
  co_await sim::WhenAll(std::move(tasks));
}

TEST(Nic, EgressSerializesFlows) {
  sim::Scheduler sched;
  net::NicConfig cfg;
  cfg.gbytes_per_sec = 1.0;
  cfg.propagation = 0;
  cfg.streams = 1;
  net::Nic a(cfg), b(cfg);
  sched.Spawn(ManySends(a, b, 4, 1000));
  sched.Run();
  // 4 messages serialized on the (single-stream) pipes; egress and ingress
  // overlap per message, so the last finishes at 4000ns.
  EXPECT_EQ(sched.now(), 4000u);
}

}  // namespace
}  // namespace vde::dev
