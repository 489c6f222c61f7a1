// Atomic multi-operation write unit (RocksDB-style WriteBatch).
//
// RADOS transactions map omap mutations onto one batch, so data + IV
// consistency at the store level reduces to batch atomicity, which the WAL
// guarantees (a batch is one log frame: either fully replayed or absent).
#pragma once

#include <utility>
#include <vector>

#include "util/bytes.h"

namespace vde::kv {

class WriteBatch {
 public:
  enum class OpType : uint8_t { kPut = 1, kDelete = 2 };

  struct Op {
    OpType type;
    Bytes key;
    Bytes value;  // empty for deletes
  };

  void Put(Bytes key, Bytes value) {
    ops_.push_back({OpType::kPut, std::move(key), std::move(value)});
  }

  void Delete(Bytes key) {
    ops_.push_back({OpType::kDelete, std::move(key), {}});
  }

  bool empty() const { return ops_.empty(); }
  size_t size() const { return ops_.size(); }
  const std::vector<Op>& ops() const { return ops_; }
  void Clear() { ops_.clear(); }

  // Total payload bytes (keys + values), used for memtable accounting.
  size_t ByteSize() const {
    size_t n = 0;
    for (const auto& op : ops_) n += op.key.size() + op.value.size();
    return n;
  }

  // Wire format: [count u32] then per op: [type u8][klen u32][vlen u32][key][value].
  Bytes Serialize() const;
  static Result<WriteBatch> Deserialize(ByteSpan data);

 private:
  std::vector<Op> ops_;
};

inline Bytes WriteBatch::Serialize() const {
  Bytes out;
  AppendU32Le(out, static_cast<uint32_t>(ops_.size()));
  for (const auto& op : ops_) {
    AppendU8(out, static_cast<uint8_t>(op.type));
    AppendU32Le(out, static_cast<uint32_t>(op.key.size()));
    AppendU32Le(out, static_cast<uint32_t>(op.value.size()));
    AppendBytes(out, op.key);
    AppendBytes(out, op.value);
  }
  return out;
}

inline Result<WriteBatch> WriteBatch::Deserialize(ByteSpan data) {
  WriteBatch batch;
  ByteReader in(data);
  uint32_t count = 0;
  if (!in.U32(&count)) return Status::Corruption("batch too short");
  for (uint32_t i = 0; i < count; ++i) {
    uint8_t type = 0;
    uint32_t klen = 0, vlen = 0;
    ByteSpan key, value;
    if (!in.U8(&type) || !in.U32(&klen) || !in.U32(&vlen) ||
        !in.Span(klen, &key) || !in.Span(vlen, &value)) {
      return Status::Corruption("truncated batch op");
    }
    if (type == static_cast<uint8_t>(OpType::kPut)) {
      batch.Put(Bytes(key.begin(), key.end()),
                Bytes(value.begin(), value.end()));
    } else if (type == static_cast<uint8_t>(OpType::kDelete)) {
      batch.Delete(Bytes(key.begin(), key.end()));
    } else {
      return Status::Corruption("batch op type");
    }
  }
  return batch;
}

}  // namespace vde::kv
