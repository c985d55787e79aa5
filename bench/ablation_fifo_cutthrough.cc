// Ablation A2: the TCA-100's cut-through transmit FIFO vs a hypothetical
// store-and-forward adapter that releases a PDU to the fiber only once the
// driver finishes writing it. Cut-through overlaps the driver's copy loop
// with wire time — the §4.1.1 design constraint that makes a driver-level
// combined copy+checksum impossible on transmit is also what makes the
// adapter fast.

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

RpcResult Measure(bool cut_through, size_t size) {
  TestbedConfig cfg;
  Testbed tb(cfg);
  tb.client_adapter()->set_cut_through(cut_through);
  tb.server_adapter()->set_cut_through(cut_through);
  RpcOptions opt;
  opt.size = size;
  return RunRpcBenchmark(tb, opt);
}

void Run() {
  std::printf("Ablation A2: TX FIFO cut-through vs store-and-forward (round-trip us)\n\n");
  TextTable t({"Size (bytes)", "Cut-through", "Store-and-forward", "Penalty (%)"});
  struct Pair {
    double ct;
    double sf;
  };
  const std::vector<Pair> rows = ParallelMap<Pair>(paper::kSizes.size(), [](size_t i) {
    return Pair{Measure(true, paper::kSizes[i]).MeanRtt().micros(),
                Measure(false, paper::kSizes[i]).MeanRtt().micros()};
  });
  for (size_t i = 0; i < paper::kSizes.size(); ++i) {
    const auto& [ct, sf] = rows[i];
    t.AddRow({std::to_string(paper::kSizes[i]), TextTable::Us(ct), TextTable::Us(sf),
              TextTable::Pct(100.0 * (sf - ct) / ct, 1)});
  }
  t.Print();
  std::printf("\nThe penalty grows with size: store-and-forward serializes the driver's\n"
              "per-cell copy loop with the wire instead of overlapping them.\n");
}

}  // namespace
}  // namespace tcplat

int main(int argc, char** argv) {
  tcplat::BenchFlags flags;
  if (!tcplat::ParseBenchFlags(argc, argv, &flags, "")) return 2;
  tcplat::Run();
  return 0;
}
