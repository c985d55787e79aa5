// End-to-end tests for the observability subsystem on a full testbed run:
// trace coverage, losslessness against the SpanTracker aggregates,
// fixed-seed byte-determinism (serial and under the parallel executor),
// and registry-backed stats views.

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/rpc_benchmark.h"
#include "src/core/testbed.h"
#include "src/exec/executor.h"
#include "src/os/task.h"
#include "src/udp/udp.h"
#include "src/trace/tracer.h"

namespace tcplat {
namespace {

struct TracedEcho {
  std::string json;
  std::string csv;
  size_t events;
};

TracedEcho RunTracedEcho(size_t size, int iterations = 30) {
  TestbedConfig cfg;
  Testbed tb(cfg);
  Tracer tracer;
  tb.AttachTracer(&tracer);
  RpcOptions opt;
  opt.size = size;
  opt.iterations = iterations;
  opt.warmup = 8;
  RunRpcBenchmark(tb, opt);
  return TracedEcho{tracer.ToPerfettoJson(), tracer.ToCsv(), tracer.events().size()};
}

TEST(Observability, TracedRunRecordsEveryLayer) {
  TestbedConfig cfg;
  Testbed tb(cfg);
  Tracer tracer;
  tb.AttachTracer(&tracer);
  RpcOptions opt;
  opt.size = 1400;
  opt.iterations = 20;
  RunRpcBenchmark(tb, opt);

  ASSERT_FALSE(tracer.events().empty());
  bool kinds[64] = {};
  for (const TraceEvent& ev : tracer.events()) {
    kinds[static_cast<int>(ev.kind)] = true;
  }
  for (TraceEventKind k :
       {TraceEventKind::kSpanBegin, TraceEventKind::kSpanEnd, TraceEventKind::kSpanInterval,
        TraceEventKind::kUserWrite, TraceEventKind::kUserRead, TraceEventKind::kWakeup,
        TraceEventKind::kSegTx, TraceEventKind::kSegRx, TraceEventKind::kAck,
        TraceEventKind::kEnqueue, TraceEventKind::kDequeue, TraceEventKind::kPktTx,
        TraceEventKind::kPktRx, TraceEventKind::kPduTx, TraceEventKind::kPduRx}) {
    EXPECT_TRUE(kinds[static_cast<int>(k)]) << TraceEventKindName(k);
  }
}

TEST(Observability, TraceSpanSumsMatchTrackerTotalsWithin1ns) {
  TestbedConfig cfg;
  Testbed tb(cfg);
  Tracer tracer;
  tb.AttachTracer(&tracer);
  RpcOptions opt;
  opt.size = 8000;  // multi-segment: exercises retransmit-free steady state
  opt.iterations = 25;
  RunRpcBenchmark(tb, opt);

  for (Host* host : {&tb.client_host(), &tb.server_host()}) {
    const auto from_trace = tracer.SpanSelfTotalsNanos(host->trace_id());
    for (size_t i = 0; i < from_trace.size(); ++i) {
      const int64_t tracker_ns = host->tracker().total(static_cast<SpanId>(i)).nanos();
      EXPECT_LE(std::abs(from_trace[i] - tracker_ns), 1)
          << host->name() << " " << SpanName(static_cast<SpanId>(i));
    }
  }
}

TEST(Observability, FixedSeedTraceIsByteIdentical) {
  const TracedEcho a = RunTracedEcho(1400);
  const TracedEcho b = RunTracedEcho(1400);
  EXPECT_GT(a.events, 0u);
  EXPECT_EQ(a.json, b.json);
  EXPECT_EQ(a.csv, b.csv);
}

TEST(Observability, SerialAndParallelGridTracesAreByteIdentical) {
  const std::vector<size_t> sizes = {4, 1400, 8000};
  std::vector<std::string> serial;
  for (size_t size : sizes) {
    serial.push_back(RunTracedEcho(size).json);
  }
  Executor ex(4);
  std::vector<std::function<std::string()>> thunks;
  for (size_t size : sizes) {
    thunks.emplace_back([size] { return RunTracedEcho(size).json; });
  }
  const auto outcomes = ex.Run<std::string>(thunks);
  ASSERT_EQ(outcomes.size(), serial.size());
  for (size_t i = 0; i < outcomes.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok());
    EXPECT_EQ(*outcomes[i].value, serial[i]) << "size " << sizes[i];
  }
}

TEST(Observability, DetachedTracerRecordsNothing) {
  TestbedConfig cfg;
  Testbed tb(cfg);
  Tracer tracer;
  tb.AttachTracer(&tracer);
  tb.AttachTracer(nullptr);  // detach again before any traffic
  RpcOptions opt;
  opt.size = 4;
  opt.iterations = 5;
  RunRpcBenchmark(tb, opt);
  EXPECT_TRUE(tracer.events().empty());
}

TEST(Observability, MetricsViewsFollowTheRun) {
  TestbedConfig cfg;
  Testbed tb(cfg);
  RpcOptions opt;
  opt.size = 1400;
  opt.iterations = 20;
  const RpcResult r = RunRpcBenchmark(tb, opt);
  ASSERT_GT(r.client_tcp.segs_sent, 0u);

  MetricsRegistry& m = tb.client_host().metrics();
  bool saw_tcp = false;
  bool saw_hist = false;
  for (const MetricsRegistry::Sample& s : m.Snapshot()) {
    if (s.name == "tcp.segs_sent") {
      saw_tcp = true;
      EXPECT_EQ(s.value, static_cast<int64_t>(tb.client_tcp().stats().segs_sent));
    }
    if (s.name == "tcp.tx.segment_bytes") {
      saw_hist = true;
      ASSERT_NE(s.hist, nullptr);
      EXPECT_GT(s.hist->count(), 0u);
      EXPECT_EQ(s.hist->max(), 1400);
    }
  }
  EXPECT_TRUE(saw_tcp);
  EXPECT_TRUE(saw_hist);
  // The ipq-wait histogram tracks the IPQ interval row: same count.
  bool saw_ipq = false;
  MetricsRegistry& sm = tb.server_host().metrics();
  for (const MetricsRegistry::Sample& s : sm.Snapshot()) {
    if (s.name == "ip.ipq_wait_ns") {
      saw_ipq = true;
      ASSERT_NE(s.hist, nullptr);
      EXPECT_GT(s.hist->count(), 0u);
    }
  }
  EXPECT_TRUE(saw_ipq);
}

SimTask SendOneDatagram(UdpSocket* sock) {
  std::vector<uint8_t> payload(64, 0xAB);
  sock->SendTo(payload, SockAddr{kServerAddr, 7});
  co_return;
}

// The registry's value for `name`, or -1 when no metric has that name.
int64_t MetricValue(const MetricsRegistry& m, std::string_view name) {
  for (const MetricsRegistry::Sample& s : m.Snapshot()) {
    if (s.name == name) {
      return s.value;
    }
  }
  return -1;
}

TEST(Observability, HostReportIncludesUdp) {
  TestbedConfig cfg;
  Testbed tb(cfg);
  UdpSocket* client = tb.client_udp().CreateSocket(7000);
  tb.server_udp().CreateSocket(7);
  tb.client_host().Spawn("udp-send", SendOneDatagram(client));
  tb.sim().RunToCompletion();

  EXPECT_EQ(MetricValue(tb.client_host().metrics(), "udp.datagrams_sent"), 1);
  EXPECT_EQ(MetricValue(tb.server_host().metrics(), "udp.datagrams_received"), 1);
}

}  // namespace
}  // namespace tcplat
