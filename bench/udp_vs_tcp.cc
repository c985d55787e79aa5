// UDP vs TCP round-trip latency — the comparison behind the paper's §1
// framing (its baselines, Kay & Pasquale [8][9] and the DEC OSF/1 study
// [3], are UDP/IP measurements on the same class of hardware) and behind
// §4.2's observation that local NFS traffic already ran UDP without
// checksums. Quantifies what TCP's reliability machinery costs per round
// trip on the same stack, and what the checksum costs each protocol.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_flags.h"
#include "src/core/paper_data.h"
#include "src/core/rpc_benchmark.h"
#include "src/core/table.h"
#include "src/core/testbed.h"
#include "src/exec/executor.h"
#include "src/os/task.h"
#include "src/udp/udp.h"

namespace tcplat {
namespace {

struct UdpRun {
  LatencyStats rtt;
  bool done = false;
};

SimTask UdpEchoServer(Testbed* tb, bool checksum, int total) {
  UdpSocket* s = tb->server_udp().CreateSocket(kEchoPort);
  s->set_checksum_enabled(checksum);
  std::vector<uint8_t> buf(65536);
  for (int i = 0; i < total; ++i) {
    size_t n = 0;
    SockAddr from;
    while ((n = s->RecvFrom(buf, &from)) == 0) {
      co_await s->WaitReadable();
    }
    s->SendTo({buf.data(), n}, from);
  }
}

SimTask UdpEchoClient(Testbed* tb, bool checksum, size_t size, int warmup, int iters,
                      UdpRun* out) {
  UdpSocket* s = tb->client_udp().CreateSocket();
  s->set_checksum_enabled(checksum);
  std::vector<uint8_t> msg(size, 0x5A);
  std::vector<uint8_t> buf(65536);
  for (int i = 0; i < warmup + iters; ++i) {
    const SimTime t0 = tb->client_host().CurrentTime();
    s->SendTo(msg, SockAddr{kServerAddr, kEchoPort});
    size_t n = 0;
    while ((n = s->RecvFrom(buf)) == 0) {
      co_await s->WaitReadable();
    }
    const SimTime t1 = tb->client_host().CurrentTime();
    if (i >= warmup) {
      out->rtt.Add(t1.QuantizeToClockTick() - t0.QuantizeToClockTick());
    }
  }
  out->done = true;
}

double UdpRtt(size_t size, bool checksum) {
  Testbed tb{TestbedConfig{}};
  UdpRun run;
  constexpr int kWarmup = 8;
  constexpr int kIters = 150;
  tb.server_host().Spawn("udp-s", UdpEchoServer(&tb, checksum, kWarmup + kIters));
  tb.client_host().Spawn("udp-c",
                         UdpEchoClient(&tb, checksum, size, kWarmup, kIters, &run));
  tb.sim().RunToCompletion();
  return run.done ? run.rtt.Mean().micros() : -1.0;
}

double TcpRtt(size_t size, ChecksumMode mode) {
  TestbedConfig cfg;
  cfg.tcp.checksum = mode;
  Testbed tb(cfg);
  RpcOptions opt;
  opt.size = size;
  return RunRpcBenchmark(tb, opt).MeanRtt().micros();
}

struct Row {
  double udp;
  double udp_nock;
  double tcp;
  double tcp_nock;
};

void Run() {
  std::printf("UDP vs TCP round-trip latency over ATM (us); 'nock' = checksum off\n\n");
  const std::vector<Row> rows = ParallelMap<Row>(paper::kSizes.size(), [](size_t i) {
    const size_t size = paper::kSizes[i];
    return Row{UdpRtt(size, true), UdpRtt(size, false), TcpRtt(size, ChecksumMode::kStandard),
               TcpRtt(size, ChecksumMode::kNone)};
  });
  TextTable t({"Size", "UDP", "UDP nock", "TCP", "TCP nock", "TCP tax (%)",
               "UDP cksum cost", "TCP cksum cost"});
  double min_tax = 0;
  double max_tax = 0;
  for (size_t i = 0; i < paper::kSizes.size(); ++i) {
    const auto& [udp, udp_nock, tcp, tcp_nock] = rows[i];
    const double tax = 100.0 * (tcp - udp) / udp;
    min_tax = i == 0 ? tax : std::min(min_tax, tax);
    max_tax = i == 0 ? tax : std::max(max_tax, tax);
    t.AddRow({std::to_string(paper::kSizes[i]), TextTable::Us(udp), TextTable::Us(udp_nock),
              TextTable::Us(tcp), TextTable::Us(tcp_nock), TextTable::Pct(tax),
              TextTable::Us(udp - udp_nock), TextTable::Us(tcp - tcp_nock)});
  }
  t.Print();
  std::printf("\nReadings: TCP's reliability machinery costs %.0f-%.0f%% over UDP for the\n"
              "RPC pattern (the §1 'is TCP viable for RPC' question — yes, the gap is\n"
              "protocol processing, not a different order of magnitude), and the\n"
              "checksum's absolute cost is protocol-independent: the same data is\n"
              "summed either way, which is why the NFS practice §4.2 cites carried\n"
              "over to the TCP option the paper proposes.\n",
              min_tax, max_tax);
}

}  // namespace
}  // namespace tcplat

int main(int argc, char** argv) {
  tcplat::BenchFlags flags;
  if (!tcplat::ParseBenchFlags(argc, argv, &flags, "")) return 2;
  tcplat::Run();
  return 0;
}
