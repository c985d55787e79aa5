// Quickstart: bring up the simulated two-DECstation ATM testbed, run a small
// RPC-style echo, and print the round-trip latency with its per-layer
// breakdown — the paper's core measurement in ~30 lines of user code.
//
//   $ ./quickstart            # the measurement
//   $ ./quickstart --trace    # plus a tcpdump-style capture of one echo
//   $ ./quickstart --stats    # plus each host's per-layer counters as CSV
//
// See examples/rpc_latency.cpp for the configurable version.

#include <cstdio>
#include <cstring>

#include "src/core/rpc_benchmark.h"
#include "src/core/testbed.h"
#include "src/tcp/segment_tap.h"

using namespace tcplat;

int main(int argc, char** argv) {
  bool trace = false;
  bool stats = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0) {
      trace = true;
    } else if (std::strcmp(argv[i], "--stats") == 0) {
      stats = true;
    } else {
      std::fprintf(stderr, "usage: %s [--trace] [--stats]\n", argv[0]);
      return 2;
    }
  }
  // Two DECstation 5000/200s on a private TAXI fiber with FORE TCA-100s.
  TestbedConfig config;
  Testbed testbed(config);

  // The paper's workload: the client sends `size` bytes, the server echoes
  // them, 40000 times (a few hundred suffice in a deterministic simulator).
  RpcOptions options;
  options.size = 200;
  options.iterations = 500;
  const RpcResult result = RunRpcBenchmark(testbed, options);

  std::printf("TCP round-trip for %zu-byte echoes over ATM\n", options.size);
  std::printf("  mean RTT: %.0f us   (paper, Table 1: 1520 us)\n",
              result.MeanRtt().micros());
  std::printf("  min/max:  %.0f / %.0f us over %llu iterations\n\n",
              result.rtt.Min().micros(), result.rtt.Max().micros(),
              static_cast<unsigned long long>(result.rtt.count()));

  std::printf("Where one transfer's time goes (us):\n");
  const struct {
    const char* label;
    SpanId id;
  } rows[] = {
      {"  send:    user/socket layer ", SpanId::kTxUser},
      {"  send:    TCP checksum      ", SpanId::kTxTcpChecksum},
      {"  send:    TCP copy (rexmit) ", SpanId::kTxTcpMcopy},
      {"  send:    TCP protocol      ", SpanId::kTxTcpSegment},
      {"  send:    IP                ", SpanId::kTxIp},
      {"  send:    ATM driver+FIFO   ", SpanId::kTxDriver},
      {"  receive: ATM reassembly    ", SpanId::kRxDriver},
      {"  receive: IP queue wait     ", SpanId::kRxIpq},
      {"  receive: IP                ", SpanId::kRxIp},
      {"  receive: TCP checksum      ", SpanId::kRxTcpChecksum},
      {"  receive: TCP protocol      ", SpanId::kRxTcpSegment},
      {"  receive: process wakeup    ", SpanId::kRxWakeup},
      {"  receive: read()/copyout    ", SpanId::kRxUser},
  };
  for (const auto& row : rows) {
    std::printf("%s %7.1f\n", row.label, result.SpanMean(row.id).micros());
  }

  if (stats) {
    for (Host* host : {&testbed.client_host(), &testbed.server_host()}) {
      std::printf("\n%s counters:\n%s", host->name().c_str(), host->metrics().ToCsv().c_str());
    }
  }

  if (trace) {
    // Watch one echo on the wire, tcpdump style.
    Testbed tb{TestbedConfig{}};
    SegmentTap tap;
    tb.client_tcp().set_tap(&tap);
    RpcOptions one;
    one.size = options.size;
    one.iterations = 1;
    one.warmup = 0;
    RunRpcBenchmark(tb, one);
    std::printf("\nOne %zu-byte echo as the client's TCP saw it:\n%s", options.size,
                tap.Dump().c_str());
  }
  return 0;
}
