// Ablation A3: the share of round-trip latency spent on scheduling — the
// paper's §2.2.4 observation that IPQ + Wakeup cost 68 us of the 1021 us
// 4-byte round trip (6.7%) but wash out for large transfers. Also reports
// the hypothetical RTT with free scheduling (softint dispatch and context
// switch costs zeroed), the bound on what a scheduling-free OS could save.

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

void Run() {
  std::printf("Ablation A3: scheduling's share of round-trip latency\n\n");
  TextTable t({"Size (bytes)", "RTT (us)", "IPQ+Wakeup per transfer (us)", "Share (%)",
               "RTT, free scheduling (us)", "Saving (%)"});
  struct Row {
    double rtt;
    double sched;
    double free_rtt;
  };
  const std::vector<Row> rows = ParallelMap<Row>(paper::kSizes.size(), [](size_t i) {
    RpcOptions opt;
    opt.size = paper::kSizes[i];

    TestbedConfig cfg;
    Testbed tb(cfg);
    const RpcResult base = RunRpcBenchmark(tb, opt);

    TestbedConfig free_cfg;
    free_cfg.profile.softint_dispatch = {0.0, 0.0, 0.0};
    free_cfg.profile.wakeup_ctx_switch = {0.0, 0.0, 0.0};
    Testbed free_tb(free_cfg);
    const RpcResult free_sched = RunRpcBenchmark(free_tb, opt);

    // One transfer's scheduling cost over the whole round trip — the
    // paper's own arithmetic (68 us / 1021 us at 4 bytes).
    return Row{base.MeanRtt().micros(),
               base.SpanMean(SpanId::kRxIpq).micros() + base.SpanMean(SpanId::kRxWakeup).micros(),
               free_sched.MeanRtt().micros()};
  });
  for (size_t i = 0; i < paper::kSizes.size(); ++i) {
    const auto& [rtt, sched, free_rtt] = rows[i];
    t.AddRow({std::to_string(paper::kSizes[i]), TextTable::Us(rtt), TextTable::Us(sched),
              TextTable::Pct(100.0 * sched / rtt, 1), TextTable::Us(free_rtt),
              TextTable::Pct(100.0 * (rtt - free_rtt) / rtt, 1)});
  }
  t.Print();
  std::printf("\nPaper reference point: 68 us of the 1021 us 4-byte round trip (6.7%%).\n");
}

}  // namespace
}  // namespace tcplat

int main(int argc, char** argv) {
  tcplat::BenchFlags flags;
  if (!tcplat::ParseBenchFlags(argc, argv, &flags, "")) return 2;
  tcplat::Run();
  return 0;
}
