// Host-native (google-benchmark) measurement of the four real copy/checksum
// routines the paper studies. The simulated benches report calibrated
// DECstation microseconds; this binary answers the modern question the
// paper's §4.1 raises — does integrating the checksum with the copy still
// beat separate passes on current hardware? It also times the per-byte
// kernels the simulator itself runs: ComputePartial and both kernels of
// each CRC.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <vector>

#include "src/base/random.h"
#include "src/net/checksum.h"
#include "src/net/crc.h"

namespace tcplat {
namespace {

std::vector<uint8_t> MakeBuffer(size_t n) {
  Rng rng(12345);
  std::vector<uint8_t> buf(n);
  for (auto& b : buf) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return buf;
}

// Times `fn` over one random buffer of state.range(0) bytes.
template <typename Fn>
void TimeOverBuffer(benchmark::State& state, Fn fn) {
  const auto buf = MakeBuffer(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fn(buf));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}

void BM_UltrixChecksum(benchmark::State& state) { TimeOverBuffer(state, UltrixChecksum); }
void BM_OptimizedChecksum(benchmark::State& state) { TimeOverBuffer(state, OptimizedChecksum); }
// The partial sum the TCP stack takes of every segment.
void BM_ComputePartial(benchmark::State& state) { TimeOverBuffer(state, ComputePartial); }

void BM_Memcpy(benchmark::State& state) {
  const auto src = MakeBuffer(static_cast<size_t>(state.range(0)));
  std::vector<uint8_t> dst(src.size());
  for (auto _ : state) {
    std::memcpy(dst.data(), src.data(), src.size());
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}

void BM_MemcpyThenChecksum(benchmark::State& state) {
  const auto src = MakeBuffer(static_cast<size_t>(state.range(0)));
  std::vector<uint8_t> dst(src.size());
  for (auto _ : state) {
    std::memcpy(dst.data(), src.data(), src.size());
    benchmark::DoNotOptimize(OptimizedChecksum(dst));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}

void BM_IntegratedCopyChecksum(benchmark::State& state) {
  const auto src = MakeBuffer(static_cast<size_t>(state.range(0)));
  std::vector<uint8_t> dst(src.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(IntegratedCopyChecksum(dst, src));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}

// Crc10 and Crc32 are what the simulator calls (the carry-less kernels
// where the CPU has PCLMULQDQ); the Sliced rows time the slice-by-8
// kernels on the same buffers.
void BM_Crc10(benchmark::State& state) { TimeOverBuffer(state, Crc10); }
void BM_Crc10Sliced(benchmark::State& state) { TimeOverBuffer(state, Crc10Sliced); }
void BM_Crc32(benchmark::State& state) { TimeOverBuffer(state, Crc32); }
void BM_Crc32Sliced(benchmark::State& state) { TimeOverBuffer(state, Crc32Sliced); }

constexpr int64_t kSizes[] = {4, 20, 80, 200, 500, 1400, 4000, 8000};

void ApplySizes(benchmark::internal::Benchmark* b) {
  for (int64_t s : kSizes) {
    b->Arg(s);
  }
}

// kSizes plus the lengths the simulator runs the CRCs at: the 48-byte
// SAR-PDU for CRC-10, and the shortest (60 B) and longest (1514 B) Ethernet
// frames, FCS excluded, for CRC-32.
void ApplySizesPlus(benchmark::internal::Benchmark* b, std::vector<int64_t> sizes) {
  sizes.insert(sizes.end(), std::begin(kSizes), std::end(kSizes));
  std::sort(sizes.begin(), sizes.end());
  for (int64_t s : sizes) {
    b->Arg(s);
  }
}

void ApplyCrc10Sizes(benchmark::internal::Benchmark* b) { ApplySizesPlus(b, {48}); }
void ApplyCrc32Sizes(benchmark::internal::Benchmark* b) { ApplySizesPlus(b, {60, 1514}); }

BENCHMARK(BM_UltrixChecksum)->Apply(ApplySizes);
BENCHMARK(BM_OptimizedChecksum)->Apply(ApplySizes);
BENCHMARK(BM_ComputePartial)->Apply(ApplySizes);
BENCHMARK(BM_Memcpy)->Apply(ApplySizes);
BENCHMARK(BM_MemcpyThenChecksum)->Apply(ApplySizes);
BENCHMARK(BM_IntegratedCopyChecksum)->Apply(ApplySizes);
BENCHMARK(BM_Crc10)->Apply(ApplyCrc10Sizes);
BENCHMARK(BM_Crc10Sliced)->Apply(ApplyCrc10Sizes);
BENCHMARK(BM_Crc32)->Apply(ApplyCrc32Sizes);
BENCHMARK(BM_Crc32Sliced)->Apply(ApplyCrc32Sizes);

}  // namespace
}  // namespace tcplat

BENCHMARK_MAIN();
