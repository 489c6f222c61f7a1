#include "objstore/txn_record.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>

namespace vde::objstore {

namespace {

constexpr uint8_t kHolesFlag = 0x80;
// Smallest encoded op: type, offset, length, data_len and kv_count.
constexpr size_t kMinOpBytes = 1 + 8 + 8 + 4 + 4;
// Smallest encoded hole and OMAP row.
constexpr size_t kHoleBytes = 4 + 4;
constexpr size_t kMinRowBytes = 2 + 4;

using Hole = TxnRecord::Hole;

bool CarriesPayload(OsdOp::Type t) {
  return t == OsdOp::Type::kWrite || t == OsdOp::Type::kWriteFull;
}

bool Discards(OsdOp::Type t) {
  return t == OsdOp::Type::kZero || t == OsdOp::Type::kTrim;
}

uint64_t PayloadStart(const OsdOp& op) {
  return op.type == OsdOp::Type::kWriteFull ? 0 : op.offset;
}

// End of [offset, +length), saturated: decoded ranges may wrap.
uint64_t EndOf(uint64_t offset, uint64_t length) {
  return length > std::numeric_limits<uint64_t>::max() - offset
             ? std::numeric_limits<uint64_t>::max()
             : offset + length;
}

// Appends the holes of `ops` to `out`, by op and then offset: each payload's
// ranges that a later discard covers, merged. `payload_size(i)` is op i's
// payload length (the decoder knows it before it has the bytes).
template <typename PayloadSize>
void FindHoles(const std::vector<OsdOp>& ops, PayloadSize payload_size,
               std::vector<Hole>& out) {
  size_t last_discard = ops.size();
  while (last_discard > 0 && !Discards(ops[last_discard - 1].type)) {
    --last_discard;
  }
  // Payloads before the last discard; ops [0, last_discard) end with it.
  for (size_t i = 0; i + 1 < last_discard; ++i) {
    if (!CarriesPayload(ops[i].type)) continue;
    const uint64_t start = PayloadStart(ops[i]);
    const uint64_t end = EndOf(start, payload_size(i));
    const size_t first = out.size();
    for (size_t j = i + 1; j < last_discard; ++j) {
      if (!Discards(ops[j].type)) continue;
      const uint64_t lo = std::max(start, ops[j].offset);
      const uint64_t hi = std::min(end, EndOf(ops[j].offset, ops[j].length));
      if (lo < hi) {
        out.push_back({static_cast<uint32_t>(i),
                       static_cast<uint32_t>(lo - start),
                       static_cast<uint32_t>(hi - lo)});
      }
    }
    std::sort(out.begin() + static_cast<long>(first), out.end(),
              [](const Hole& a, const Hole& b) { return a.offset < b.offset; });
    size_t kept = first;
    for (size_t k = first; k < out.size(); ++k) {
      if (kept > first) {
        Hole& prev = out[kept - 1];
        const uint64_t prev_end = uint64_t{prev.offset} + prev.length;
        if (out[k].offset <= prev_end) {  // overlapping or adjacent
          const uint64_t end_k = uint64_t{out[k].offset} + out[k].length;
          prev.length = static_cast<uint32_t>(std::max(prev_end, end_k) -
                                              prev.offset);
          continue;
        }
      }
      out[kept++] = out[k];
    }
    out.resize(kept);
  }
}

struct CountSink {
  size_t size = 0;
  template <typename T>
  void Le(T) {
    size += sizeof(T);
  }
  void Put(ByteSpan b) { size += b.size(); }
  void Payload(const OsdOp&, size_t, size_t length) { size += length; }
};

struct WriteSink {
  uint8_t* at;
  template <typename T>
  void Le(T v) {
    for (size_t i = 0; i < sizeof(T); ++i) {
      *at++ = static_cast<uint8_t>(static_cast<uint64_t>(v) >> (8 * i));
    }
  }
  void Put(ByteSpan b) {
    if (!b.empty()) std::memcpy(at, b.data(), b.size());
    at += b.size();
  }
  // Bytes [pos, +length) of `op`'s payload, from its data or its pages.
  void Payload(const OsdOp& op, size_t pos, size_t length) {
    if (op.pages.empty()) {
      Put(ByteSpan(op.data).subspan(pos, length));
      return;
    }
    op.pages.Read(pos, MutByteSpan(at, length));
    at += length;
  }
};

}  // namespace

TxnRecord::TxnRecord(const Transaction& txn, const SnapContext& snapc)
    : txn_(txn), seq_(snapc.seq) {
  FindHoles(
      txn.ops, [&txn](size_t i) { return txn.ops[i].payload_size(); },
      holes_);
  CountSink count;
  Encode(count);
  size_ = count.size;
}

template <typename Sink>
void TxnRecord::Encode(Sink& out) const {
  out.Le(static_cast<uint32_t>(txn_.oid.size()));
  out.Put(ByteSpan(reinterpret_cast<const uint8_t*>(txn_.oid.data()),
                   txn_.oid.size()));
  out.Le(seq_);
  out.Le(static_cast<uint32_t>(txn_.ops.size()));
  auto hole = holes_.begin();
  for (size_t i = 0; i < txn_.ops.size(); ++i) {
    const OsdOp& op = txn_.ops[i];
    const auto op_holes = hole;
    while (hole != holes_.end() && hole->op == i) ++hole;
    const bool has_holes = op_holes != hole;
    out.Le(static_cast<uint8_t>(static_cast<uint8_t>(op.type) |
                                (has_holes ? kHolesFlag : 0)));
    out.Le(op.offset);
    out.Le(op.length);
    const size_t payload = op.payload_size();
    out.Le(static_cast<uint32_t>(payload));
    if (has_holes) {
      out.Le(static_cast<uint32_t>(hole - op_holes));
      for (auto h = op_holes; h != hole; ++h) {
        out.Le(h->offset);
        out.Le(h->length);
      }
    }
    size_t pos = 0;
    for (auto h = op_holes; h != hole; ++h) {
      out.Payload(op, pos, h->offset - pos);
      pos = size_t{h->offset} + h->length;
    }
    out.Payload(op, pos, payload - pos);
    out.Le(static_cast<uint32_t>(op.omap_kvs.size()));
    for (const auto& [k, v] : op.omap_kvs) {
      out.Le(static_cast<uint16_t>(k.size()));
      out.Put(k);
      out.Le(static_cast<uint32_t>(v.size()));
      out.Put(v);
    }
  }
}

void TxnRecord::Write(MutByteSpan out) const {
  assert(out.size() == size_);
  WriteSink sink{out.data()};
  Encode(sink);
  assert(sink.at == out.data() + out.size());
}

Bytes EncodeTxn(const Transaction& txn, const SnapContext& snapc) {
  const TxnRecord record(txn, snapc);
  Bytes out(record.size());
  record.Write(out);
  return out;
}

Result<DecodedTxn> DecodeTxn(ByteSpan record, uint64_t max_object_size) {
  ByteReader in(record);
  DecodedTxn out;
  Transaction& txn = out.txn;
  uint32_t oid_len = 0, n_ops = 0;
  if (!in.U32(&oid_len) || !in.Str(oid_len, &txn.oid) ||
      !in.U64(&out.snapc.seq) || !in.U32(&n_ops)) {
    return Status::Corruption("record header");
  }
  if (n_ops > (record.size() - in.offset()) / kMinOpBytes) {
    return Status::Corruption("record op count");
  }
  txn.ops.resize(n_ops);
  // Payloads are parsed first and materialized once the hole lists check
  // out: a payload's kept bytes, and its full length with holes.
  std::vector<ByteSpan> kept(n_ops);
  std::vector<uint32_t> sizes(n_ops);
  std::vector<Hole> holes;
  for (uint32_t i = 0; i < n_ops; ++i) {
    OsdOp& op = txn.ops[i];
    uint8_t type = 0;
    if (!in.U8(&type) || !in.U64(&op.offset) || !in.U64(&op.length) ||
        !in.U32(&sizes[i])) {
      return Status::Corruption("record op");
    }
    const bool has_holes = (type & kHolesFlag) != 0;
    type &= static_cast<uint8_t>(~kHolesFlag);
    if (type > static_cast<uint8_t>(OsdOp::Type::kTrim) ||
        !IsWriteClass(static_cast<OsdOp::Type>(type))) {
      return Status::Corruption("record op type");
    }
    op.type = static_cast<OsdOp::Type>(type);
    uint64_t hole_bytes = 0;
    if (has_holes) {
      uint32_t count = 0;
      if (!CarriesPayload(op.type) || !in.U32(&count) || count == 0 ||
          count > (record.size() - in.offset()) / kHoleBytes) {
        return Status::Corruption("record hole count");
      }
      uint64_t prev_end = 0;
      for (uint32_t k = 0; k < count; ++k) {
        Hole h{i, 0, 0};
        if (!in.U32(&h.offset) || !in.U32(&h.length) || h.length == 0 ||
            h.offset < prev_end ||
            uint64_t{h.offset} + h.length > sizes[i]) {
          return Status::Corruption("record hole");
        }
        prev_end = uint64_t{h.offset} + h.length;
        hole_bytes += h.length;
        holes.push_back(h);
      }
    }
    uint32_t n_rows = 0;
    if (!in.Span(sizes[i] - hole_bytes, &kept[i]) || !in.U32(&n_rows) ||
        n_rows > (record.size() - in.offset()) / kMinRowBytes) {
      return Status::Corruption("record payload");
    }
    op.omap_kvs.resize(n_rows);
    for (auto& [key, value] : op.omap_kvs) {
      uint16_t key_len = 0;
      uint32_t value_len = 0;
      ByteSpan k, v;
      if (!in.U16(&key_len) || !in.Span(key_len, &k) ||
          !in.U32(&value_len) || !in.Span(value_len, &v)) {
        return Status::Corruption("record omap row");
      }
      key.assign(k.begin(), k.end());
      value.assign(v.begin(), v.end());
    }
  }
  if (!in.empty()) return Status::Corruption("record trailing bytes");

  std::vector<Hole> expected;
  FindHoles(txn.ops, [&sizes](size_t i) { return sizes[i]; }, expected);
  if (holes != expected) return Status::Corruption("record holes");
  auto hole = holes.begin();
  for (uint32_t i = 0; i < n_ops; ++i) {
    OsdOp& op = txn.ops[i];
    if (hole == holes.end() || hole->op != i) {
      op.data.assign(kept[i].begin(), kept[i].end());
      continue;
    }
    if (sizes[i] > max_object_size ||
        PayloadStart(op) > max_object_size - sizes[i]) {
      return Status::Corruption("record hole beyond the object");
    }
    op.data.assign(sizes[i], 0);
    const uint8_t* from = kept[i].data();
    size_t pos = 0;
    for (; hole != holes.end() && hole->op == i; ++hole) {
      std::copy_n(from, hole->offset - pos, op.data.begin() + pos);
      from += hole->offset - pos;
      pos = size_t{hole->offset} + hole->length;
    }
    std::copy(from, kept[i].data() + kept[i].size(), op.data.begin() + pos);
  }
  return out;
}

}  // namespace vde::objstore
