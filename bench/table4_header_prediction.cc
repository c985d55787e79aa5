// Regenerates Table 4 / Figure 1: round-trip latency with header prediction
// (PCB cache + TCP input fast path) enabled vs. disabled.

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

RpcResult Measure(bool prediction, size_t size) {
  TestbedConfig cfg;
  cfg.tcp.header_prediction = prediction;
  Testbed tb(cfg);
  RpcOptions opt;
  opt.size = size;
  return RunRpcBenchmark(tb, opt);
}

struct Pair {
  RpcResult off;
  RpcResult on;
};

void Run() {
  std::printf("Table 4 / Figure 1: Effects of Header Prediction (round-trip us)\n\n");
  // One executor pass over the size grid; the table and the ASCII figure
  // below both render from the same merged results (the serial version
  // re-measured for the figure — same numbers, twice the work).
  const std::vector<Pair> grid = ParallelMap<Pair>(paper::kSizes.size(), [](size_t i) {
    return Pair{Measure(false, paper::kSizes[i]), Measure(true, paper::kSizes[i])};
  });
  TextTable t({"Size (bytes)", "No Prediction", "Prediction", "Decrease (%)", "paper NoPred",
               "paper Pred", "paper Decr (%)", "fast-path hits/iter"});
  for (size_t i = 0; i < paper::kSizes.size(); ++i) {
    const size_t size = paper::kSizes[i];
    const RpcResult& off = grid[i].off;
    const RpcResult& on = grid[i].on;
    const double off_us = off.MeanRtt().micros();
    const double on_us = on.MeanRtt().micros();
    const double hits_per_iter =
        static_cast<double>(on.client_tcp.predict_ack_hits + on.client_tcp.predict_data_hits +
                            on.server_tcp.predict_ack_hits + on.server_tcp.predict_data_hits) /
        static_cast<double>(on.iterations);
    t.AddRow({std::to_string(size), TextTable::Us(off_us), TextTable::Us(on_us),
              TextTable::Pct(100.0 * (off_us - on_us) / off_us),
              TextTable::Us(paper::kTable4NoPrediction[i]),
              TextTable::Us(paper::kTable4Prediction[i]),
              TextTable::Pct(100.0 *
                             (paper::kTable4NoPrediction[i] - paper::kTable4Prediction[i]) /
                             paper::kTable4NoPrediction[i]),
              TextTable::Num(hits_per_iter, 1)});
  }
  t.Print();
  std::printf(
      "\nASCII Figure 1 (round-trip time vs size; P = prediction, N = no prediction):\n");
  for (size_t i = 0; i < paper::kSizes.size(); ++i) {
    const int n_cols = static_cast<int>(grid[i].off.MeanRtt().micros() / 150.0);
    const int p_cols = static_cast<int>(grid[i].on.MeanRtt().micros() / 150.0);
    std::printf("%5zu N |%.*s\n", paper::kSizes[i], n_cols,
                "############################################################################"
                "####################");
    std::printf("      P |%.*s\n", p_cols,
                "............................................................................"
                "....................");
  }
}

}  // namespace
}  // namespace tcplat

int main(int argc, char** argv) {
  tcplat::BenchFlags flags;
  if (!tcplat::ParseBenchFlags(argc, argv, &flags, "")) return 2;
  tcplat::Run();
  return 0;
}
