// Journal record: the byte form of one write transaction. The store's
// journal append of it is the commit point, and its size drives the commit
// cost; DecodeTxn reads it back, the contract a journal replay rests on.
//
// Layout (little-endian):
//   [oid_len u32][oid][snapc.seq u64][op_count u32], then per op:
//   [type u8][offset u64][length u64][data_len u32]
//   if type has kHolesFlag: [hole_count u32] + hole_count x [offset u32]
//                           [length u32] (payload-relative)
//   [data, holes left out][kv_count u32]
//   + kv_count x [key_len u16][key][value_len u32][value]
//
// A hole is a range of a kWrite/kWriteFull payload that a later kTrim or
// kZero of the same transaction covers: the apply discards those bytes as
// soon as it writes them, so the record carries the range instead of the
// bytes and the decoder fills it with zeros (what the discard leaves). A
// discard before the write leaves no hole. Holes are sorted, disjoint and
// not adjacent. An op without holes has no flag and no hole list, so a
// transaction with no such overlap encodes as it did before holes existed.
#pragma once

#include <cstdint>
#include <vector>

#include "objstore/types.h"
#include "util/bytes.h"
#include "util/status.h"

namespace vde::objstore {

// A transaction's record, sized before it is written: the journal reserves
// size() bytes and Write fills them. Holds `txn` by reference.
class TxnRecord {
 public:
  TxnRecord(const Transaction& txn, const SnapContext& snapc);

  size_t size() const { return size_; }
  // Writes the record into `out`, which holds exactly size() bytes.
  void Write(MutByteSpan out) const;

  // A payload range of op `op` left out of the record.
  struct Hole {
    uint32_t op;
    uint32_t offset;
    uint32_t length;
    bool operator==(const Hole&) const = default;
  };

 private:
  template <typename Sink>
  void Encode(Sink& out) const;

  const Transaction& txn_;
  uint64_t seq_;
  std::vector<Hole> holes_;  // by op, then offset
  size_t size_ = 0;
};

Bytes EncodeTxn(const Transaction& txn, const SnapContext& snapc);

struct DecodedTxn {
  Transaction txn;
  SnapContext snapc;  // seq only: the record keeps no snapshot list
};

// Decodes a record, holes filled with zeros. Accepts exactly what EncodeTxn
// writes: a truncated, padded or malformed record, a write-class op it does
// not know, or a hole list other than the one the encoder derives from the
// ops is Corruption. A payload with holes must end within
// `max_object_size` (the store rejects any write that does not), which
// bounds the zeros a short record can expand into.
Result<DecodedTxn> DecodeTxn(ByteSpan record, uint64_t max_object_size);

}  // namespace vde::objstore
