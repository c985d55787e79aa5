// Regenerates Table 1: round-trip latency of the BSD 4.4 TCP over the ATM
// testbed vs. the Ethernet baseline, for the paper's eight transfer sizes.

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

double MeasureRtt(NetworkKind network, size_t size) {
  TestbedConfig cfg;
  cfg.network = network;
  Testbed tb(cfg);
  RpcOptions opt;
  opt.size = size;
  const RpcResult r = RunRpcBenchmark(tb, opt);
  return r.MeanRtt().micros();
}

struct Row {
  double ether;
  double atm;
};

void Run() {
  std::printf("Table 1: Comparison of ATM versus Ethernet round-trip latencies (us)\n\n");
  // Grid: each (size, network) cell is an isolated testbed; run them through
  // the parallel executor and render in submission order.
  const std::vector<Row> rows = ParallelMap<Row>(paper::kSizes.size(), [](size_t i) {
    return Row{MeasureRtt(NetworkKind::kEthernet, paper::kSizes[i]),
               MeasureRtt(NetworkKind::kAtm, paper::kSizes[i])};
  });
  TextTable t({"Size (bytes)", "Ethernet", "ATM", "Decrease (%)", "paper Ether", "paper ATM",
               "paper Decr (%)"});
  for (size_t i = 0; i < paper::kSizes.size(); ++i) {
    const size_t size = paper::kSizes[i];
    const double ether = rows[i].ether;
    const double atm = rows[i].atm;
    t.AddRow({std::to_string(size), TextTable::Us(ether), TextTable::Us(atm),
              TextTable::Pct(100.0 * (ether - atm) / ether),
              TextTable::Us(paper::kTable1Ethernet[i]), TextTable::Us(paper::kTable1Atm[i]),
              TextTable::Pct(100.0 * (paper::kTable1Ethernet[i] - paper::kTable1Atm[i]) /
                             paper::kTable1Ethernet[i])});
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
