// Ablation A1: sweep the sosend small-mbuf/cluster switchover. The paper
// (§2.2.1) attributes the nonlinearity between the 500- and 1400-byte rows
// of Table 2 to the 1 KB threshold — "artifacts of a particular buffer
// management implementation choice rather than inherent protocol behavior".
// Sweeping the threshold moves the kink.

#include <cstdio>
#include <vector>

#include "bench/bench_flags.h"
#include "src/core/rpc_benchmark.h"
#include "src/core/table.h"
#include "src/core/testbed.h"
#include "src/exec/executor.h"

namespace tcplat {
namespace {

void Run() {
  std::printf("Ablation A1: cluster threshold vs per-size RTT and tx User+mcopy time (us)\n\n");
  const size_t sizes[] = {200, 500, 1000, 1400, 2000, 4000};
  const size_t thresholds[] = {0, 256, 1024, 2048, 4096};

  constexpr size_t kNumSizes = std::size(sizes);
  constexpr size_t kNumThresholds = std::size(thresholds);

  // One flat 30-job grid (threshold-major to match the serial loop order).
  struct Cell {
    double rtt_us;
    double copy_us;
  };
  const std::vector<Cell> grid =
      ParallelMap<Cell>(kNumThresholds * kNumSizes, [&sizes, &thresholds](size_t i) {
        TestbedConfig cfg;
        cfg.tcp.cluster_threshold = thresholds[i / kNumSizes];
        Testbed tb(cfg);
        RpcOptions opt;
        opt.size = sizes[i % kNumSizes];
        const RpcResult r = RunRpcBenchmark(tb, opt);
        return Cell{r.MeanRtt().micros(), r.SpanMean(SpanId::kTxUser).micros() +
                                              r.SpanMean(SpanId::kTxTcpMcopy).micros()};
      });

  TextTable rtt({"Threshold", "200", "500", "1000", "1400", "2000", "4000"});
  TextTable copy({"Threshold", "200", "500", "1000", "1400", "2000", "4000"});
  for (size_t ti = 0; ti < kNumThresholds; ++ti) {
    std::vector<std::string> rtt_row = {std::to_string(thresholds[ti])};
    std::vector<std::string> copy_row = {std::to_string(thresholds[ti])};
    for (size_t si = 0; si < kNumSizes; ++si) {
      const Cell& c = grid[ti * kNumSizes + si];
      rtt_row.push_back(TextTable::Us(c.rtt_us));
      copy_row.push_back(TextTable::Us(c.copy_us));
    }
    rtt.AddRow(rtt_row);
    copy.AddRow(copy_row);
  }
  std::printf("Round-trip time by transfer size (columns, bytes):\n");
  rtt.Print();
  std::printf("\nTransmit-side User + mcopy time (where the kink lives):\n");
  copy.Print();
  std::printf("\nThreshold 0 = always clusters; 4096 = never (for these sizes). The paper's\n"
              "kernel used 1024.\n");
}

}  // namespace
}  // namespace tcplat

int main(int argc, char** argv) {
  tcplat::BenchFlags flags;
  if (!tcplat::ParseBenchFlags(argc, argv, &flags, "")) return 2;
  tcplat::Run();
  return 0;
}
