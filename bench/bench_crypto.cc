// Crypto microbenchmarks (google-benchmark): the CPU-side cost of every
// primitive the formats use, all of them OpenSSL EVP. Quantifies the paper's
// §2.2 remark that wide-block modes were not adopted "mainly due to lower
// performance", and the XTS-vs-GCM gap relevant to the integrity extension.
// The 4 KiB captures are exactly the calls a format makes per block: one
// XTS or GCM pass, the HMAC tag over ciphertext || LBA || IV, and one
// 16-byte IV draw. Two non-crypto captures ride along: BM_Crc32c, the
// journal frame checksum every replica computes per committed transaction,
// and BM_LzCompress/BM_LzDecompress, the codec a compressing format runs on
// every block before encrypting it and after decrypting it.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "crypto/chacha20.h"
#include "crypto/gcm.h"
#include "crypto/hmac.h"
#include "crypto/rand.h"
#include "crypto/sha256.h"
#include "crypto/wideblock.h"
#include "crypto/xts.h"
#include "util/crc32.h"
#include "util/lz.h"
#include "util/rng.h"

namespace {

using namespace vde;
using namespace vde::crypto;

Bytes BenchKey(size_t n) {
  Rng rng(0xBE7C);
  return rng.RandomBytes(n);
}

Bytes BenchData(size_t n) {
  Rng rng(0xDA7A);
  return rng.RandomBytes(n);
}

void BM_XtsEncrypt(benchmark::State& state) {
  const size_t size = static_cast<size_t>(state.range(0));
  XtsCipher xts(BenchKey(64));
  const Bytes tweak = BenchKey(16);
  const Bytes in = BenchData(size);
  Bytes out(size);
  for (auto _ : state) {
    xts.Encrypt(tweak, in, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(size));
}

void BM_GcmSeal(benchmark::State& state) {
  const size_t size = static_cast<size_t>(state.range(0));
  GcmCipher gcm(BenchKey(32));
  const Bytes iv = BenchKey(12);
  const Bytes aad(8, 0x11);  // the format's AAD: the block's LBA
  const Bytes in = BenchData(size);
  Bytes out(size), tag(16);
  for (auto _ : state) {
    gcm.Seal(iv, aad, in, out, tag);
    benchmark::DoNotOptimize(tag.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(size));
}

void BM_GcmOpen(benchmark::State& state) {
  const size_t size = static_cast<size_t>(state.range(0));
  GcmCipher gcm(BenchKey(32));
  const Bytes iv = BenchKey(12);
  const Bytes aad(8, 0x11);  // the format's AAD: the block's LBA
  const Bytes in = BenchData(size);
  Bytes ct(size), out(size), tag(16);
  gcm.Seal(iv, aad, in, ct, tag);
  for (auto _ : state) {
    const bool ok = gcm.Open(iv, aad, ct, out, tag);
    benchmark::DoNotOptimize(ok);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(size));
}

void BM_WideBlockEncrypt(benchmark::State& state) {
  const size_t size = static_cast<size_t>(state.range(0));
  WideBlockCipher wb(BenchKey(64));
  const Bytes tweak = BenchKey(16);
  const Bytes in = BenchData(size);
  Bytes out(size);
  for (auto _ : state) {
    wb.Encrypt(tweak, in, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(size));
}

void BM_Sha256(benchmark::State& state) {
  const size_t size = static_cast<size_t>(state.range(0));
  const Bytes in = BenchData(size);
  for (auto _ : state) {
    auto digest = Sha256::Digest(in);
    benchmark::DoNotOptimize(digest.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(size));
}

void BM_HmacSha256(benchmark::State& state) {
  const size_t size = static_cast<size_t>(state.range(0));
  const Bytes key = BenchKey(32);
  const Bytes in = BenchData(size);
  for (auto _ : state) {
    auto tag = HmacSha256(key, in);
    benchmark::DoNotOptimize(tag.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(size));
}

// The integrity tag the xts-random+HMAC format computes per block:
// HMAC(key, ciphertext || LBA || IV) over 4096 + 8 + 16 bytes.
void BM_HmacBlockTag(benchmark::State& state) {
  const Bytes key = BenchKey(32);
  const Bytes ct = BenchData(4096);
  const Bytes lba(8, 0x22);
  const Bytes iv = BenchKey(16);
  for (auto _ : state) {
    HmacSha256Stream mac(key);
    mac.Update(ct);
    mac.Update(lba);
    mac.Update(iv);
    auto tag = mac.Finish();
    benchmark::DoNotOptimize(tag.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(ct.size() + 24));
}

void BM_DrbgIvGeneration(benchmark::State& state) {
  Drbg drbg(42);
  uint8_t iv[16];
  for (auto _ : state) {
    drbg.Generate(MutByteSpan(iv, 16));
    benchmark::DoNotOptimize(iv);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

void BM_ChaCha20(benchmark::State& state) {
  const size_t size = static_cast<size_t>(state.range(0));
  const Bytes key = BenchKey(32);
  const Bytes nonce = BenchKey(12);
  Bytes buf = BenchData(size);
  for (auto _ : state) {
    ChaCha20 stream(key, nonce);
    stream.XorStream(buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(size));
}

// The WAL frame checksum: 4120 B is one 4 KiB block's journal frame body
// (the replicated commit path writes one per replica), 64 KiB a large one.
void BM_Crc32c(benchmark::State& state) {
  const size_t size = static_cast<size_t>(state.range(0));
  const Bytes in = BenchData(size);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(in));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(size));
}

// One 4 KiB block in vdebench's 50%-compressible shape: each 512 B sector
// opens with 256 copies of one byte, then seeded noise.
Bytes HalfCompressibleBlock() {
  Bytes block = BenchData(4096);
  for (size_t s = 0; s < block.size(); s += 512) {
    std::fill_n(block.begin() + static_cast<long>(s), 256, block[s + 256] | 1);
  }
  return block;
}

void BM_LzCompress(benchmark::State& state) {
  const Bytes in = HalfCompressibleBlock();
  Bytes out(in.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(LzCompress(in, out));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(in.size()));
}

// Bytes per second counts the decoded (plaintext) side, like the sim's
// DecompressCost.
void BM_LzDecompress(benchmark::State& state) {
  const Bytes in = HalfCompressibleBlock();
  Bytes packed(in.size());
  packed.resize(LzCompress(in, packed));
  Bytes out(in.size());
  if (packed.empty() || !LzDecompress(packed, out).ok() || out != in) {
    state.SkipWithError("LZ round trip failed");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(LzDecompress(packed, out).ok());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(in.size()));
}

}  // namespace

BENCHMARK(BM_XtsEncrypt)->Arg(4096)->Arg(65536);
BENCHMARK(BM_GcmSeal)->Arg(4096);
BENCHMARK(BM_GcmOpen)->Arg(4096);
BENCHMARK(BM_WideBlockEncrypt)->Arg(512)->Arg(4096);
BENCHMARK(BM_Sha256)->Arg(4096);
BENCHMARK(BM_HmacSha256)->Arg(4096);
BENCHMARK(BM_HmacBlockTag);
BENCHMARK(BM_DrbgIvGeneration);
BENCHMARK(BM_ChaCha20)->Arg(4096);
BENCHMARK(BM_Crc32c)->Arg(4120)->Arg(65536);
BENCHMARK(BM_LzCompress);
BENCHMARK(BM_LzDecompress);

BENCHMARK_MAIN();
