// The cost of leaving the LAN — §4.2's "local-area traffic" boundary made
// quantitative. Compares round trips on a private segment against the same
// exchange through an IP gateway (two Ethernet hops + forwarding), and
// demonstrates why the paper restricts checksum elimination to the local
// case: a flaky gateway memory corrupts routed traffic invisibly to every
// link CRC.

#include <cstdio>
#include <cstring>
#include <vector>

#include "bench/bench_flags.h"
#include "src/base/random.h"
#include "src/core/routed_testbed.h"
#include "src/core/rpc_benchmark.h"
#include "src/core/table.h"
#include "src/core/testbed.h"
#include "src/os/task.h"

namespace tcplat {
namespace {

struct RoutedRun {
  LatencyStats rtt;
  uint64_t mismatches = 0;
  bool done = false;
};

SimTask RoutedServer(RoutedTestbed* net, size_t size, int total) {
  Socket* listener = net->server_tcp().Listen(5001);
  Socket* s = nullptr;
  while (s == nullptr) {
    s = listener->Accept();
    if (s == nullptr) {
      co_await listener->WaitAcceptable();
    }
  }
  std::vector<uint8_t> buf(size);
  for (int i = 0; i < total; ++i) {
    size_t got = 0;
    while (got < size) {
      const size_t n = s->Read({buf.data() + got, size - got});
      got += n;
      if (n == 0) {
        if (s->eof() || s->has_error()) {
          co_return;
        }
        co_await s->WaitReadable();
      }
    }
    size_t sent = 0;
    while (sent < size) {
      const size_t w = s->Write({buf.data() + sent, size - sent});
      sent += w;
      if (w == 0) {
        co_await s->WaitWritable();
      }
    }
  }
}

SimTask RoutedClient(RoutedTestbed* net, size_t size, int warmup, int iters, RoutedRun* out) {
  Socket* s = net->client_tcp().Connect(SockAddr{kRoutedServerAddr, 5001});
  while (!s->connected() && !s->has_error()) {
    co_await s->WaitConnected();
  }
  std::vector<uint8_t> msg(size);
  std::vector<uint8_t> in(size);
  for (int i = 0; i < warmup + iters; ++i) {
    for (size_t b = 0; b < size; ++b) {
      msg[b] = static_cast<uint8_t>(b * 131 + i);
    }
    const SimTime t0 = net->client_host().CurrentTime();
    size_t sent = 0;
    while (sent < size) {
      const size_t w = s->Write({msg.data() + sent, size - sent});
      sent += w;
      if (w == 0) {
        co_await s->WaitWritable();
      }
    }
    size_t got = 0;
    while (got < size) {
      const size_t n = s->Read({in.data() + got, size - got});
      got += n;
      if (n == 0) {
        if (s->eof() || s->has_error()) {
          co_return;
        }
        co_await s->WaitReadable();
      }
    }
    if (i >= warmup) {
      out->rtt.Add(net->client_host().CurrentTime() - t0);
      if (std::memcmp(in.data(), msg.data(), size) != 0) {
        ++out->mismatches;
      }
    }
  }
  s->Close();
  out->done = true;
}

RoutedRun MeasureRouted(size_t size, ChecksumMode mode, double gw_corrupt_prob) {
  RoutedTestbedConfig cfg;
  cfg.tcp.checksum = mode;
  RoutedTestbed net(cfg);
  auto rng = std::make_shared<Rng>(33);
  if (gw_corrupt_prob > 0) {
    net.gateway_ip().set_forward_corrupt_hook(
        [rng, gw_corrupt_prob](std::vector<uint8_t>& pkt) {
          if (pkt.size() > 60 && rng->NextBool(gw_corrupt_prob)) {
            pkt[48] ^= 0x11;
          }
        });
  }
  RoutedRun run;
  constexpr int kWarmup = 8;
  constexpr int kIters = 120;
  net.server_host().Spawn("gw-server", RoutedServer(&net, size, kWarmup + kIters));
  net.client_host().Spawn("gw-client", RoutedClient(&net, size, kWarmup, kIters, &run));
  net.sim().RunToCompletion();
  return run;
}

double MeasureLocal(size_t size) {
  TestbedConfig cfg;
  cfg.network = NetworkKind::kEthernet;
  Testbed tb(cfg);
  RpcOptions opt;
  opt.size = size;
  opt.iterations = 120;
  return RunRpcBenchmark(tb, opt).MeanRtt().micros();
}

void Run() {
  std::printf("Local segment vs routed path (Ethernet hops, round-trip us)\n\n");
  TextTable t({"Size", "Local segment", "Via gateway", "Gateway tax"});
  for (size_t size : {4u, 200u, 1400u, 4000u}) {
    const double local = MeasureLocal(size);
    const RoutedRun routed = MeasureRouted(size, ChecksumMode::kStandard, 0);
    t.AddRow({std::to_string(size), TextTable::Us(local),
              TextTable::Us(routed.rtt.Mean().micros()),
              TextTable::Pct(100.0 * (routed.rtt.Mean().micros() - local) / local)});
  }
  t.Print();

  std::printf("\nA gateway with flaky memory (0.5%% of forwarded packets corrupted):\n\n");
  TextTable t2({"TCP checksum", "Mean RTT (us)", "App-visible corruption"});
  const RoutedRun on = MeasureRouted(1400, ChecksumMode::kStandard, 0.005);
  const RoutedRun off = MeasureRouted(1400, ChecksumMode::kNone, 0.005);
  t2.AddRow({"on", TextTable::Us(on.rtt.Mean().micros()), std::to_string(on.mismatches)});
  t2.AddRow({"off (negotiated away)", TextTable::Us(off.rtt.Mean().micros()),
             std::to_string(off.mismatches)});
  t2.Print();
  std::printf("\nThis is §4.2's boundary condition in numbers: the no-checksum option is\n"
              "safe only for \"packets that go from source host to destination host\n"
              "without passing through any IP routers\" — past a gateway, the TCP\n"
              "checksum is the only thing standing between router memory and your data.\n");
}

}  // namespace
}  // namespace tcplat

int main(int argc, char** argv) {
  tcplat::BenchFlags flags;
  if (!tcplat::ParseBenchFlags(argc, argv, &flags, "")) return 2;
  tcplat::Run();
  return 0;
}
