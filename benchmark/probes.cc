// Host time per call at qd 1, measured from outside at each layer's public
// entry point with the workload's spec and IO shape. Every probe checks its
// output once before it is timed, so no probe can time a short-circuited
// path.
#include <algorithm>

#include "bench.h"
#include "core/format.h"
#include "core/luks_header.h"
#include "kv/db.h"
#include "util/lz.h"

namespace vde::bench {

namespace {

constexpr int kBatches = 5;

// Median over kBatches batches of per-call process CPU time, one span per
// call under one span per probe.
template <typename F>
double TimeSync(SpanLog* spans, int parent, const std::string& name,
                int calls, F call) {
  SpanScope probe(spans, name, parent);
  std::vector<double> per_call;
  for (int b = 0; b < kBatches; ++b) {
    const uint64_t t0 = CpuNs();
    for (int i = 0; i < calls; ++i) {
      SpanScope span(spans, name, probe.id());
      call(i);
    }
    per_call.push_back(static_cast<double>(CpuNs() - t0) / 1e3 / calls);
  }
  return Median(per_call);
}

// As TimeSync for coroutine calls. `settle` runs inside each timed batch
// so background work the calls started (appliers, write-back) is charged
// to them.
template <typename F, typename S>
sim::Task<double> TimeAsync(SpanLog* spans, int parent, std::string name,
                            int calls, F call, S settle) {
  SpanScope probe(spans, name, parent);
  std::vector<double> per_call;
  for (int b = 0; b < kBatches; ++b) {
    const uint64_t t0 = CpuNs();
    for (int i = 0; i < calls; ++i) {
      SpanScope span(spans, name, probe.id());
      co_await call(i);
    }
    co_await settle();
    per_call.push_back(static_cast<double>(CpuNs() - t0) / 1e3 / calls);
  }
  co_return Median(per_call);
}

Bytes Content(uint64_t seed, uint32_t compressible_pct, uint64_t offset,
              uint64_t length, uint32_t version) {
  Bytes out(length);
  for (uint64_t i = 0; i < length; i += kSector) {
    FillSector(seed, compressible_pct, (offset + i) / kSector, version,
               out.data() + i);
  }
  return out;
}

}  // namespace

sim::Task<void> RunProbes(Rig& rig, const Workload& w, uint64_t seed,
                          SpanLog* spans, std::vector<Metric>* out,
                          std::vector<std::string>* errors) {
  SpanScope root(spans, "probes");
  const int parent = root.id();
  auto check = [&](bool ok, const std::string& what) {
    if (!ok) errors->push_back("probe check failed: " + what);
    return ok;
  };
  auto nothing = []() -> sim::Task<void> { co_return; };
  auto drain = [&]() -> sim::Task<void> { co_await rig.cluster->Drain(); };
  rados::Cluster& cluster = *rig.cluster;
  rbd::Image& image = *rig.image;

  // --- core::EncryptionFormat, on a fresh format with the workload spec ---
  Bytes key(core::kMasterKeySize);
  Rng(seed).Fill(key);
  core::EncryptionSpec spec = w.enc;
  spec.iv_seed = seed | 1;
  const std::unique_ptr<core::EncryptionFormat> format =
      core::MakeFormat(spec, key, image.object_size());
  const Bytes plain = Content(seed, w.compressible_pct, 0, core::kBlockSize, 1);
  const core::ObjectExtent ext{"vdebench_probe.core", 1 << 20, 0, 1,
                               (1ull << 20) * image.blocks_per_object()};
  objstore::Transaction wtxn;
  wtxn.oid = ext.oid;
  const bool made = format->MakeWrite(ext, plain, wtxn).ok();
  objstore::Transaction rtxn;
  rtxn.oid = ext.oid;
  format->MakeRead(ext, rtxn);
  size_t osd = 0;
  while (!cluster.IsOsdUp(osd)) ++osd;
  objstore::ObjectStore& store = cluster.osd(osd).store();
  const bool applied = made && (co_await store.Apply(wtxn, {})).ok();
  auto read = co_await store.ExecuteRead(rtxn, objstore::kHeadSnap);
  Bytes got(core::kBlockSize);
  const bool core_ok = check(
      applied && read.ok() && format->FinishRead(ext, *read, got).ok() &&
          got == plain,
      "EncryptionFormat MakeWrite -> FinishRead round trip");
  const double make_write_us =
      core_ok ? TimeSync(spans, parent, "core.make_write", 200,
                         [&](int) {
                           objstore::Transaction txn;
                           (void)format->MakeWrite(ext, plain, txn);
                         })
              : 0;
  out->push_back(Value("host.core_make_write_us", make_write_us, "us"));
  out->push_back(Value(
      "host.core_finish_read_us",
      core_ok ? TimeSync(spans, parent, "core.finish_read", 200,
                         [&](int) {
                           (void)format->FinishRead(ext, *read, got);
                         })
              : 0,
      "us"));

  // --- LZ codec, on one 50%-compressible block for every workload ---
  const Bytes lz_in = Content(seed, 50, 0, core::kBlockSize, 1);
  Bytes packed(core::kBlockSize);
  Bytes unpacked(core::kBlockSize);
  const size_t packed_len = LzCompress(lz_in, packed);
  const ByteSpan packed_span(packed.data(), packed_len);
  const bool lz_ok =
      check(packed_len > 0 && LzDecompress(packed_span, unpacked).ok() &&
                unpacked == lz_in,
            "LzDecompress(LzCompress(x)) == x");
  out->push_back(Value(
      "host.lz_compress_us",
      lz_ok ? TimeSync(spans, parent, "lz.compress", 1000,
                       [&](int) { (void)LzCompress(lz_in, packed); })
            : 0,
      "us"));
  out->push_back(Value(
      "host.lz_decompress_us",
      lz_ok ? TimeSync(spans, parent, "lz.decompress", 1000,
                       [&](int) {
                         (void)LzDecompress(packed_span, unpacked);
                       })
            : 0,
      "us"));

  // --- kv::KvStore::Put on a fresh device, IV-row-sized values ---
  dev::NvmeDevice kv_device;
  auto kv = co_await kv::KvStore::Open(kv_device, kv::KvOptions{});
  const Bytes row = Content(seed, 0, 0, kSector, 2);
  const Bytes kv_value(row.begin(),
                       row.begin() + static_cast<long>(std::max<size_t>(
                                         w.enc.MetaPerBlock(), 16)));
  auto kv_key = [](uint64_t i) {
    Bytes k{'I'};
    AppendU64Le(k, i);
    return k;
  };
  bool kv_ok = kv.ok() && (co_await (*kv)->Put(kv_key(~0ull), kv_value)).ok();
  if (kv_ok) {
    auto back = co_await (*kv)->Get(kv_key(~0ull));
    kv_ok = back.ok() && back->has_value() && **back == kv_value;
  }
  double kv_put_us = 0;
  if (check(kv_ok, "KvStore::Get returns what was Put")) {
    uint64_t next_key = 0;
    kv_put_us = co_await TimeAsync(
        spans, parent, "kv.put", 200,
        [&](int) -> sim::Task<void> {
          (void)co_await (*kv)->Put(kv_key(next_key++), kv_value);
        },
        nothing);
  }
  out->push_back(Value("host.kv_put_us", kv_put_us, "us"));

  // --- rbd::Image at the workload's IO shape, on objects past the working
  // set ---
  const uint64_t base =
      (w.working_set / image.object_size() + 4) * image.object_size();
  const uint64_t len = w.io_size;
  const Bytes io = Content(seed, w.compressible_pct, base, len, 3);
  bool rbd_ok = (co_await image.Write(base, io)).ok();
  if (rbd_ok) {
    auto back = co_await image.Read(base, len);
    rbd_ok = back.ok() && *back == io;
  }
  double rbd_write_us = 0, rbd_read_us = 0;
  // RADOS writes per Image::Write call: below one for sub-block writes the
  // write-back layer coalesces.
  double rados_writes_per_call = 0;
  if (check(rbd_ok, "Image::Read returns what Image::Write wrote")) {
    auto offset = [&](int i) { return base + static_cast<uint64_t>(i) * len; };
    const uint64_t txns = cluster.TotalStoreStats().transactions;
    rbd_write_us = co_await TimeAsync(
        spans, parent, "rbd.write", 100,
        [&](int i) -> sim::Task<void> {
          (void)co_await image.Write(offset(i), io);
        },
        [&]() -> sim::Task<void> {
          (void)co_await image.Flush();
          co_await cluster.Drain();
        });
    rados_writes_per_call =
        static_cast<double>(cluster.TotalStoreStats().transactions - txns) /
        static_cast<double>(cluster.config().replication * 100 * kBatches);
    rbd_read_us = co_await TimeAsync(
        spans, parent, "rbd.read", 100,
        [&](int i) -> sim::Task<void> {
          (void)co_await image.Read(offset(i), len);
        },
        nothing);
  }
  out->push_back(Value("host.rbd_write_us", rbd_write_us, "us"));
  out->push_back(Value("host.rbd_read_us", rbd_read_us, "us"));

  // --- rados::IoCtx, replicated, with the probe format's transactions ---
  rados::IoCtx ioctx = image.io();
  auto probe_oid = [](const char* layer, int i) {
    return std::string("vdebench_probe.") + layer + "." +
           std::to_string(i % 16);
  };
  bool rados_ok = made && (co_await ioctx.Operate(probe_oid("rados", 0), wtxn,
                                                  {}))
                              .ok();
  if (rados_ok) {
    auto back = co_await ioctx.OperateRead(probe_oid("rados", 0), rtxn);
    rados_ok = back.ok() && format->FinishRead(ext, *back, got).ok() &&
               got == plain;
  }
  double rados_operate_us = 0, rados_read_us = 0;
  if (check(rados_ok, "IoCtx::OperateRead returns what Operate wrote")) {
    rados_operate_us = co_await TimeAsync(
        spans, parent, "rados.operate", 100,
        [&](int i) -> sim::Task<void> {
          (void)co_await ioctx.Operate(probe_oid("rados", i), wtxn, {});
        },
        drain);
    rados_read_us = co_await TimeAsync(
        spans, parent, "rados.read", 100,
        [&](int i) -> sim::Task<void> {
          (void)co_await ioctx.OperateRead(probe_oid("rados", i), rtxn);
        },
        nothing);
  }
  out->push_back(Value("host.rados_operate_us", rados_operate_us, "us"));
  out->push_back(Value("host.rados_read_us", rados_read_us, "us"));

  // --- objstore::ObjectStore::Apply on one OSD (checked by the core round
  // trip above, which applied the same transaction) ---
  double apply_us = 0;
  if (applied) {
    apply_us = co_await TimeAsync(
        spans, parent, "objstore.apply", 200,
        [&](int i) -> sim::Task<void> {
          objstore::Transaction txn = wtxn;
          txn.oid = probe_oid("store", i);
          (void)co_await store.Apply(txn, {});
        },
        [&]() -> sim::Task<void> { co_await store.Drain(); });
  }
  out->push_back(Value("host.objstore_apply_us", apply_us, "us"));

  // Self time: what a layer's call costs beyond the calls it makes below.
  out->push_back(Value(
      "host.rbd_self_us",
      rbd_write_us -
          rados_writes_per_call * (rados_operate_us + make_write_us),
      "us"));
  out->push_back(Value(
      "host.rados_self_us",
      rados_operate_us -
          static_cast<double>(cluster.config().replication) * apply_us,
      "us"));
}

}  // namespace vde::bench
