// Object-store operation types (the RADOS transaction vocabulary this
// reproduction needs).
//
// The paper's data+IV consistency rests on "the support in the Ceph RADOS
// protocol for atomically writing multiple IOs" (§3.1): one Transaction may
// carry a data write plus an IV write (object-end / unaligned) or an OMAP
// batch (OMAP layout), and the store applies it all-or-nothing.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "device/sparse_ram.h"
#include "util/bytes.h"

namespace vde::obs {
class TraceContext;
}  // namespace vde::obs

namespace vde::objstore {

// Snapshot id; kHeadSnap reads/writes the live object.
using SnapId = uint64_t;
inline constexpr SnapId kHeadSnap = ~uint64_t{0};

// Client-provided snapshot context: `seq` is the most recent snapshot id
// that writes must preserve; `snaps` lists existing snapshot ids (newest
// first), mirroring RADOS self-managed snapshots.
struct SnapContext {
  uint64_t seq = 0;
  std::vector<SnapId> snaps;
};

struct OsdOp {
  enum class Type : uint8_t {
    kWrite,         // offset/length + data
    kWriteFull,     // replace object content with data
    kZero,          // offset/length (reads as zeros; backing untouched)
    kRead,          // offset/length -> data (usable inside read ops)
    kOmapSet,       // omap_kvs
    kOmapGetRange,  // omap_start/omap_end (end empty = prefix-unbounded)
    kCreate,
    kRemove,
    kTrim,          // offset/length: tracked discard — the range enters the
                    // onode's trimmed-extent map, fully covered sectors are
                    // released to the allocator (free capacity grows), and
                    // reads inside the map are served without device IO
  };

  Type type = Type::kWrite;
  uint64_t offset = 0;
  uint64_t length = 0;
  Bytes data;
  // kWrite/kWriteFull: the payload as device pages in place of `data` (a
  // recovery push ships the source replica's pages). Empty: `data` is it.
  dev::SparseRam::PageRun pages;
  // kRead: answer in ReadResult::pages instead of data (one op at most).
  bool as_pages = false;
  std::vector<std::pair<Bytes, Bytes>> omap_kvs;
  Bytes omap_start;
  Bytes omap_end;
  size_t omap_max = 0;  // 0 = unlimited

  size_t payload_size() const {
    return pages.empty() ? data.size() : pages.length();
  }
};

// Ops a write transaction may carry (the journal records only these).
inline bool IsWriteClass(OsdOp::Type t) {
  switch (t) {
    case OsdOp::Type::kWrite:
    case OsdOp::Type::kWriteFull:
    case OsdOp::Type::kZero:
    case OsdOp::Type::kTrim:
    case OsdOp::Type::kOmapSet:
    case OsdOp::Type::kCreate:
    case OsdOp::Type::kRemove:
      return true;
    case OsdOp::Type::kRead:
    case OsdOp::Type::kOmapGetRange:
      return false;
  }
  return false;
}

// A single-object atomic mutation (RADOS transactions are per-object).
struct Transaction {
  std::string oid;
  std::vector<OsdOp> ops;

  // QoS tenant tag, stamped by IoCtx from its creator; 0 = default tenant.
  // Consumed by the OSD's mClock dequeue when cluster QoS is enabled.
  uint64_t tenant = 0;

  // Optional request trace (non-owning). Valid only for the duration of the
  // synchronous Operate/OperateRead call that carries this transaction —
  // the caller's frame outlives every replica wave. Detached background
  // work (apply-cost charges) must not touch it.
  obs::TraceContext* trace = nullptr;

  size_t PayloadBytes() const {
    size_t n = 0;
    for (const auto& op : ops) {
      n += op.payload_size();
      for (const auto& [k, v] : op.omap_kvs) n += k.size() + v.size();
    }
    return n;
  }
};

// Result of a read-class op batch.
struct ReadResult {
  Bytes data;                                        // from kRead
  dev::SparseRam::PageRun pages;  // from the kRead that asked for pages
  std::vector<std::pair<Bytes, Bytes>> omap_values;  // from kOmapGetRange
};

}  // namespace vde::objstore
