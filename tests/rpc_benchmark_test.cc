// Tests for the measurement harness itself: warmup/measured-region
// handling, span accounting, determinism, and the table formatter.

#include <gtest/gtest.h>

#include "src/core/rpc_benchmark.h"
#include "src/core/table.h"
#include "src/core/testbed.h"

namespace tcplat {
namespace {

RpcResult RunBench(size_t size, int iterations = 50, uint64_t seed = 1) {
  TestbedConfig cfg;
  cfg.seed = seed;
  Testbed tb(cfg);
  RpcOptions opt;
  opt.size = size;
  opt.iterations = iterations;
  opt.warmup = 8;
  return RunRpcBenchmark(tb, opt);
}

TEST(RpcBenchmark, CollectsRequestedIterations) {
  const RpcResult r = RunBench(80, 37);
  EXPECT_EQ(r.rtt.count(), 37u);
  EXPECT_EQ(r.iterations, 37u);
  EXPECT_EQ(r.data_mismatches, 0u);
}

TEST(RpcBenchmark, DeterministicAcrossRuns) {
  const RpcResult a = RunBench(500, 40, 9);
  const RpcResult b = RunBench(500, 40, 9);
  EXPECT_EQ(a.MeanRtt().nanos(), b.MeanRtt().nanos());
  EXPECT_EQ(a.rtt.Min().nanos(), b.rtt.Min().nanos());
  for (size_t i = 0; i < a.spans.size(); ++i) {
    EXPECT_EQ(a.spans[i].nanos(), b.spans[i].nanos());
  }
}

TEST(RpcBenchmark, SteadyStateIsStable) {
  // Post-warmup, the deterministic simulator should produce near-identical
  // round trips (TIME_WAIT teardown noise aside).
  const RpcResult r = RunBench(200, 100);
  EXPECT_LT((r.rtt.Max() - r.rtt.Min()).micros(), 0.05 * r.MeanRtt().micros());
}

TEST(RpcBenchmark, SpansScaleWithIterations) {
  const RpcResult a = RunBench(200, 40);
  const RpcResult b = RunBench(200, 80);
  // Per-transfer means are iteration-independent; totals scale.
  EXPECT_NEAR(a.SpanMean(SpanId::kTxTcpChecksum).micros(),
              b.SpanMean(SpanId::kTxTcpChecksum).micros(), 1.0);
  EXPECT_GT(b.spans[static_cast<size_t>(SpanId::kTxTcpChecksum)].nanos(),
            1.7 * a.spans[static_cast<size_t>(SpanId::kTxTcpChecksum)].nanos());
}

TEST(RpcBenchmark, ChecksumSpanGrowsWithSize) {
  const RpcResult small = RunBench(4);
  const RpcResult large = RunBench(4000);
  EXPECT_GT(large.SpanMean(SpanId::kRxTcpChecksum).micros(),
            10 * small.SpanMean(SpanId::kRxTcpChecksum).micros());
}

TEST(RpcBenchmark, RttQuantizedToPaperClock) {
  const RpcResult r = RunBench(4, 10);
  EXPECT_EQ(r.rtt.Min().nanos() % kPaperClockPeriodNs, 0);
}

TEST(RpcBenchmark, SpanRowsRoughlyPartitionTheRoundTrip) {
  const RpcResult r = RunBench(500);
  double row_sum_us = 0;
  for (SpanId id : {SpanId::kTxUser, SpanId::kTxTcpChecksum, SpanId::kTxTcpMcopy,
                    SpanId::kTxTcpSegment, SpanId::kTxIp, SpanId::kTxDriver, SpanId::kRxDriver,
                    SpanId::kRxIpq, SpanId::kRxIp, SpanId::kRxTcpChecksum,
                    SpanId::kRxTcpSegment, SpanId::kRxWakeup, SpanId::kRxUser}) {
    row_sum_us += r.SpanMean(id).micros();
  }
  // Two transfers per round trip; the rows cover most of the RTT (wire
  // time and untabulated odds and ends account for the rest).
  const double rtt = r.MeanRtt().micros();
  EXPECT_GT(2 * row_sum_us, 0.80 * rtt);
  EXPECT_LT(2 * row_sum_us, 1.05 * rtt);
}

TEST(TextTable, FormatsAlignedColumns) {
  TextTable t({"A", "Bee", "C"});
  t.AddRow({"1", "2", "3"});
  t.AddRow({"100", "20000", "3"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("  A    Bee  C"), std::string::npos);
  EXPECT_NE(s.find("100  20000  3"), std::string::npos);
  EXPECT_NE(s.find("-----"), std::string::npos);
}

TEST(TextTable, CsvOutput) {
  TextTable t({"size", "rtt"});
  t.AddRow({"4", "1095"});
  t.AddRow({"has,comma", "has\"quote"});
  EXPECT_EQ(t.ToCsv(), "size,rtt\n4,1095\n\"has,comma\",\"has\"\"quote\"\n");
}

TEST(TextTable, Formatters) {
  EXPECT_EQ(TextTable::Us(1234.56), "1235");
  EXPECT_EQ(TextTable::Us(1234.56, 1), "1234.6");
  EXPECT_EQ(TextTable::Pct(41.4, 1), "41.4%");
  EXPECT_EQ(TextTable::Num(1.25, 2), "1.25");
}

}  // namespace
}  // namespace tcplat
