// Regenerates Table 6: round-trip latency with the standard in_cksum kernel
// vs the §4.1.1 kernel that integrates the checksum with data copies
// (socket-layer partial checksums on transmit, device-to-kernel integrated
// copy on receive). The paper's initial implementation wins big for large
// transfers (24% at 8000 B) but loses for small ones, with the break-even
// between 500 and 1400 bytes.

#include <cstdio>
#include <vector>

#include "bench/bench_flags.h"
#include "src/core/paper_data.h"
#include "src/core/rpc_benchmark.h"
#include "src/core/table.h"
#include "src/core/testbed.h"
#include "src/exec/executor.h"

namespace tcplat {
namespace {

RpcResult Measure(ChecksumMode mode, size_t size) {
  TestbedConfig cfg;
  cfg.tcp.checksum = mode;
  Testbed tb(cfg);
  RpcOptions opt;
  opt.size = size;
  return RunRpcBenchmark(tb, opt);
}

struct Pair {
  RpcResult std_r;
  RpcResult comb_r;
};

void Run() {
  std::printf("Table 6: standard checksum vs combined copy and checksum (round-trip us)\n\n");
  const std::vector<Pair> grid = ParallelMap<Pair>(paper::kSizes.size(), [](size_t i) {
    return Pair{Measure(ChecksumMode::kStandard, paper::kSizes[i]),
                Measure(ChecksumMode::kCombined, paper::kSizes[i])};
  });
  TextTable t({"Size (bytes)", "Standard", "Combined", "Saving (%)", "paper Std",
               "paper Comb", "paper Saving (%)", "combine fallbacks/iter"});
  for (size_t i = 0; i < paper::kSizes.size(); ++i) {
    const size_t size = paper::kSizes[i];
    const RpcResult& std_r = grid[i].std_r;
    const RpcResult& comb_r = grid[i].comb_r;
    const double std_us = std_r.MeanRtt().micros();
    const double comb_us = comb_r.MeanRtt().micros();
    const double fallbacks =
        static_cast<double>(comb_r.client_tcp.checksum_fallbacks +
                            comb_r.server_tcp.checksum_fallbacks) /
        static_cast<double>(comb_r.iterations);
    t.AddRow({std::to_string(size), TextTable::Us(std_us), TextTable::Us(comb_us),
              TextTable::Pct(100.0 * (std_us - comb_us) / std_us),
              TextTable::Us(paper::kTable6Standard[i]), TextTable::Us(paper::kTable6Combined[i]),
              TextTable::Pct(100.0 * (paper::kTable6Standard[i] - paper::kTable6Combined[i]) /
                             paper::kTable6Standard[i]),
              TextTable::Num(fallbacks, 1)});
  }
  t.Print();
  std::printf("\nExpected shape: small sizes regress (per-packet bookkeeping, partial sums\n"
              "unusable for data copied into the header mbuf), large sizes gain; the\n"
              "break-even falls between 500 and 1400 bytes.\n");
}

}  // namespace
}  // namespace tcplat

int main(int argc, char** argv) {
  tcplat::BenchFlags flags;
  if (!tcplat::ParseBenchFlags(argc, argv, &flags, "")) return 2;
  tcplat::Run();
  return 0;
}
