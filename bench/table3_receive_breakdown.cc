// Regenerates Table 3: breakdown of BSD 4.4 alpha receive-side latency over
// ATM (ATM / IPQ / IP / TCP{checksum,segment} / Wakeup / User).

#include <cstdio>
#include <vector>

#include "bench/bench_flags.h"
#include "src/core/paper_data.h"
#include "src/core/rpc_benchmark.h"
#include "src/core/table.h"
#include "src/core/testbed.h"

namespace tcplat {
namespace {

void Run() {
  std::printf("Table 3: Breakdown of Receive Side Latency (us per transfer)\n\n");

  struct Row {
    const char* label;
    SpanId span;
    const std::array<double, 8>* paper;
  };
  const std::vector<Row> rows = {
      {"ATM", SpanId::kRxDriver, &paper::kTable3Atm},
      {"IPQ", SpanId::kRxIpq, &paper::kTable3Ipq},
      {"IP", SpanId::kRxIp, &paper::kTable3Ip},
      {"TCP checksum", SpanId::kRxTcpChecksum, &paper::kTable3Checksum},
      {"TCP segment", SpanId::kRxTcpSegment, &paper::kTable3Segment},
      {"Wakeup", SpanId::kRxWakeup, &paper::kTable3Wakeup},
      {"User", SpanId::kRxUser, &paper::kTable3User},
  };

  std::vector<std::string> header = {"Layer"};
  for (size_t size : paper::kSizes) {
    header.push_back(std::to_string(size));
  }
  TextTable t(header);

  std::array<RpcResult, 8> results;
  for (size_t i = 0; i < paper::kSizes.size(); ++i) {
    TestbedConfig cfg;
    Testbed tb(cfg);
    RpcOptions opt;
    opt.size = paper::kSizes[i];
    results[i] = RunRpcBenchmark(tb, opt);
  }

  std::array<double, 8> totals{};
  for (const Row& row : rows) {
    std::vector<std::string> cells = {row.label};
    std::vector<std::string> ref = {std::string("  (paper ") + row.label + ")"};
    for (size_t i = 0; i < paper::kSizes.size(); ++i) {
      const double us = results[i].SpanMean(row.span).micros();
      totals[i] += us;
      cells.push_back(TextTable::Us(us, 1));
      ref.push_back(TextTable::Us((*row.paper)[i], 1));
    }
    t.AddRow(cells);
    t.AddRow(ref);
  }
  std::vector<std::string> total_row = {"Total"};
  std::vector<std::string> total_ref = {"  (paper Total)"};
  for (size_t i = 0; i < paper::kSizes.size(); ++i) {
    total_row.push_back(TextTable::Us(totals[i], 1));
    total_ref.push_back(TextTable::Us(paper::kTable3Total[i], 1));
  }
  t.AddRow(total_row);
  t.AddRow(total_ref);
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
