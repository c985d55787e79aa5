// Ablation A6: cache effects on the data-touching costs.
//
// §1.2: "One disadvantage of this approach, however, is that our
// measurements include cache effects" — the paper's 40000-iteration loops
// ran warm. This ablation scales only the per-byte (data-touching) costs —
// checksums and copies — to ask how the headline results shift if the
// caches had been colder or warmer, leaving per-packet bookkeeping alone.

#include <array>
#include <cstdio>
#include <vector>

#include "bench/bench_flags.h"
#include "src/core/rpc_benchmark.h"
#include "src/core/table.h"
#include "src/core/testbed.h"
#include "src/exec/executor.h"

namespace tcplat {
namespace {

double Rtt(double cache_factor, ChecksumMode mode, size_t size) {
  TestbedConfig cfg;
  cfg.profile = CostProfile::Decstation5000_200().WithCacheFactor(cache_factor);
  cfg.tcp.checksum = mode;
  Testbed tb(cfg);
  RpcOptions opt;
  opt.size = size;
  return RunRpcBenchmark(tb, opt).MeanRtt().micros();
}

void Run() {
  std::printf("Ablation A6: cache factor on data-touching costs (calibrated = 1.0x, warm)\n\n");
  TextTable t({"Cache factor", "4B RTT", "1400B RTT", "8000B RTT", "8000B cksum-elim saving"});
  const std::array<double, 5> factors = {0.5, 1.0, 1.5, 2.0, 3.0};
  struct Row {
    double r4;
    double r1400;
    double r8000;
    double n8000;
  };
  const std::vector<Row> rows = ParallelMap<Row>(factors.size(), [&factors](size_t i) {
    const double f = factors[i];
    return Row{Rtt(f, ChecksumMode::kStandard, 4), Rtt(f, ChecksumMode::kStandard, 1400),
               Rtt(f, ChecksumMode::kStandard, 8000), Rtt(f, ChecksumMode::kNone, 8000)};
  });
  for (size_t i = 0; i < factors.size(); ++i) {
    const auto& [r4, r1400, r8000, n8000] = rows[i];
    t.AddRow({TextTable::Num(factors[i], 1) + "x", TextTable::Us(r4), TextTable::Us(r1400),
              TextTable::Us(r8000), TextTable::Pct(100.0 * (r8000 - n8000) / r8000, 1)});
  }
  t.Print();
  std::printf("\nReadings: small-message latency is nearly cache-insensitive (per-packet\n"
              "bookkeeping dominates), while the large-transfer rows and the checksum-\n"
              "elimination saving both scale with memory-system speed — colder caches\n"
              "would have *strengthened* the paper's §4 argument. The calibrated 1.0x\n"
              "profile embeds the warm-loop behavior the paper measured.\n");
}

}  // namespace
}  // namespace tcplat

int main(int argc, char** argv) {
  tcplat::BenchFlags flags;
  if (!tcplat::ParseBenchFlags(argc, argv, &flags, "")) return 2;
  tcplat::Run();
  return 0;
}
