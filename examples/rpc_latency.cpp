// RPC latency explorer — the paper's §1 motivation was whether TCP is "a
// viable option for a transport layer for RPC". This example measures an
// RPC-shaped workload (request/response of equal size) under every stack
// configuration the paper studies and prints a decision table.
//
//   $ ./rpc_latency [size_bytes] [iterations]
//   $ ./rpc_latency 200 500

#include <charconv>
#include <cstdio>
#include <cstring>

#include "src/core/rpc_benchmark.h"
#include "src/core/table.h"
#include "src/core/testbed.h"
#include "src/rpc/rpc.h"

using namespace tcplat;

namespace {

// A real RPC round trip through the src/rpc stub layer (framing, xid
// matching, marshal costs) — the classic "null RPC" metric plus one
// argument-bearing call.
struct RpcProbe {
  double null_us = 0;
  double arg_us = 0;
  bool done = false;
};

SimTask RpcProbeClient(Testbed* tb, size_t arg_bytes, RpcProbe* out) {
  Socket* sock = tb->client_tcp().Connect(SockAddr{kServerAddr, 6000});
  while (!sock->connected() && !sock->has_error()) {
    co_await sock->WaitConnected();
  }
  RpcChannel channel(&tb->client_host(), sock);
  constexpr int kIters = 100;
  std::vector<uint8_t> args(arg_bytes, 0x42);
  RpcMessage reply;
  // Warm up the connection.
  for (int i = 0; i < 8; ++i) {
    const uint32_t x = channel.SendCall(1, {});
    while (!channel.PollReply(x, &reply)) {
      co_await channel.WaitReadable();
    }
  }
  SimTime t0 = tb->client_host().CurrentTime();
  for (int i = 0; i < kIters; ++i) {
    const uint32_t x = channel.SendCall(1, {});
    while (!channel.PollReply(x, &reply)) {
      co_await channel.WaitReadable();
    }
  }
  out->null_us = (tb->client_host().CurrentTime() - t0).micros() / kIters;
  t0 = tb->client_host().CurrentTime();
  for (int i = 0; i < kIters; ++i) {
    const uint32_t x = channel.SendCall(1, args);
    while (!channel.PollReply(x, &reply)) {
      co_await channel.WaitReadable();
    }
  }
  out->arg_us = (tb->client_host().CurrentTime() - t0).micros() / kIters;
  sock->Close();
  out->done = true;
}

RpcProbe MeasureRpcLibrary(size_t arg_bytes) {
  Testbed tb{TestbedConfig{}};
  RpcServer server(&tb.server_host(), &tb.server_tcp(), 6000);
  server.Register(1, [](std::span<const uint8_t> a) {
    return std::vector<uint8_t>(a.begin(), a.end());
  });
  server.Start();
  RpcProbe probe;
  tb.client_host().Spawn("probe", RpcProbeClient(&tb, arg_bytes, &probe));
  tb.sim().RunToCompletion();
  return probe;
}

RpcResult Measure(NetworkKind net, ChecksumMode checksum, bool prediction, size_t size,
                  int iterations) {
  TestbedConfig cfg;
  cfg.network = net;
  cfg.tcp.checksum = checksum;
  cfg.tcp.header_prediction = prediction;
  Testbed tb(cfg);
  RpcOptions opt;
  opt.size = size;
  opt.iterations = iterations;
  return RunRpcBenchmark(tb, opt);
}

// A whole decimal number >= 1 that fits `T`.
template <typename T>
bool ParsePositive(const char* arg, T* out) {
  const char* end = arg + std::strlen(arg);
  const auto [ptr, ec] = std::from_chars(arg, end, *out);
  return ec == std::errc() && ptr == end && *out >= 1;
}

}  // namespace

int main(int argc, char** argv) {
  size_t size = 200;
  int iterations = 300;
  if (argc > 3 || (argc > 1 && !ParsePositive(argv[1], &size)) ||
      (argc > 2 && !ParsePositive(argv[2], &iterations))) {
    std::fprintf(stderr, "usage: %s [size_bytes] [iterations]\n", argv[0]);
    return 1;
  }

  std::printf("RPC viability study: %zu-byte request/response, %d iterations\n\n", size,
              iterations);

  TextTable t({"Configuration", "Mean RTT (us)", "p99 (us)", "vs baseline"});
  const RpcResult base =
      Measure(NetworkKind::kAtm, ChecksumMode::kStandard, true, size, iterations);
  auto add = [&](const char* name, const RpcResult& r) {
    t.AddRow({name, TextTable::Us(r.MeanRtt().micros()),
              TextTable::Us(r.rtt.Percentile(99).micros()),
              TextTable::Pct(100.0 * (r.MeanRtt().micros() - base.MeanRtt().micros()) /
                                 base.MeanRtt().micros(),
                             1)});
  };
  add("ATM, standard checksum (baseline)", base);
  add("ATM, no header prediction",
      Measure(NetworkKind::kAtm, ChecksumMode::kStandard, false, size, iterations));
  add("ATM, combined copy+checksum",
      Measure(NetworkKind::kAtm, ChecksumMode::kCombined, true, size, iterations));
  add("ATM, checksum eliminated",
      Measure(NetworkKind::kAtm, ChecksumMode::kNone, true, size, iterations));
  add("Ethernet, standard checksum",
      Measure(NetworkKind::kEthernet, ChecksumMode::kStandard, true, size, iterations));
  t.Print();

  // Through a real stub layer (src/rpc): framing + xid matching + marshal.
  const RpcProbe null_probe = MeasureRpcLibrary(size);
  if (null_probe.done) {
    std::printf("\nThrough the RPC stub library (framing, xid matching, marshalling):\n");
    std::printf("  null RPC:            %7.0f us\n", null_probe.null_us);
    std::printf("  %5zu-byte-arg RPC:   %7.0f us\n", size, null_probe.arg_us);
  }

  // The paper's framing: how does this compare with purpose-built RPC?
  std::printf("\nContext: purpose-built lightweight RPC systems of the era achieved\n"
              "~500 us small-message round trips on comparable hardware; the paper\n"
              "asks how close commodity TCP can get, and where the rest goes\n"
              "(run ./quickstart or bench/paper_report for the breakdown).\n");
  return 0;
}
