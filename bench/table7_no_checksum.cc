// Regenerates Table 7: round-trip latency with and without the TCP checksum
// (negotiated off via the alternate-checksum option, §4.2). The paper finds
// savings growing from ~0% at 4 bytes to ~41% at 8000.

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
  RpcResult with;
  RpcResult without;
};

void Run() {
  std::printf("Table 7: round-trip latency with and without the TCP checksum (us)\n\n");
  const std::vector<Pair> grid = ParallelMap<Pair>(paper::kSizes.size(), [](size_t i) {
    return Pair{Measure(ChecksumMode::kStandard, paper::kSizes[i]),
                Measure(ChecksumMode::kNone, paper::kSizes[i])};
  });
  TextTable t({"Size (bytes)", "Checksum", "No Checksum", "Saving (%)", "paper Cksum",
               "paper NoCksum", "paper Saving (%)"});
  for (size_t i = 0; i < paper::kSizes.size(); ++i) {
    const size_t size = paper::kSizes[i];
    const RpcResult& with = grid[i].with;
    const RpcResult& without = grid[i].without;
    const double with_us = with.MeanRtt().micros();
    const double without_us = without.MeanRtt().micros();
    t.AddRow({std::to_string(size), TextTable::Us(with_us), TextTable::Us(without_us),
              TextTable::Pct(100.0 * (with_us - without_us) / with_us, 1),
              TextTable::Us(paper::kTable7Checksum[i]),
              TextTable::Us(paper::kTable7NoChecksum[i]),
              TextTable::Pct(100.0 * (paper::kTable7Checksum[i] - paper::kTable7NoChecksum[i]) /
                                 paper::kTable7Checksum[i],
                             1)});
  }
  t.Print();
}

}  // namespace
}  // namespace tcplat

int main(int argc, char** argv) {
  tcplat::BenchFlags flags;
  if (!tcplat::ParseBenchFlags(argc, argv, &flags, "")) return 2;
  tcplat::Run();
  return 0;
}
