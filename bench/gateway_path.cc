// The cost of leaving the LAN — §4.2's "local-area traffic" boundary made
// quantitative. Compares round trips on a private segment against the same
// exchange through an IP gateway (two Ethernet hops + forwarding), and
// demonstrates why the paper restricts checksum elimination to the local
// case: a flaky gateway memory corrupts routed traffic invisibly to every
// link CRC.

#include <cstdio>
#include <vector>

#include "bench/bench_flags.h"
#include "src/base/random.h"
#include "src/core/routed_testbed.h"
#include "src/core/rpc_benchmark.h"
#include "src/core/table.h"
#include "src/core/testbed.h"

namespace tcplat {
namespace {

RpcResult MeasureRouted(size_t size, ChecksumMode mode, double gw_corrupt_prob) {
  TcpConfig tcp;
  tcp.checksum = mode;
  RoutedTestbed net(tcp);
  auto rng = std::make_shared<Rng>(33);
  if (gw_corrupt_prob > 0) {
    net.gateway_ip().set_forward_corrupt_hook(
        [rng, gw_corrupt_prob](std::vector<uint8_t>& pkt) {
          if (pkt.size() > 60 && rng->NextBool(gw_corrupt_prob)) {
            pkt[48] ^= 0x11;
          }
        });
  }
  RpcOptions opt;
  opt.size = size;
  opt.iterations = 120;
  opt.warmup = 8;
  return RunRpcBenchmark(net, opt);
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
    const double routed = MeasureRouted(size, ChecksumMode::kStandard, 0).MeanRtt().micros();
    t.AddRow({std::to_string(size), TextTable::Us(local), TextTable::Us(routed),
              TextTable::Pct(100.0 * (routed - local) / local)});
  }
  t.Print();

  std::printf("\nA gateway with flaky memory (0.5%% of forwarded packets corrupted):\n\n");
  TextTable t2({"TCP checksum", "Mean RTT (us)", "App-visible corruption"});
  const RpcResult on = MeasureRouted(1400, ChecksumMode::kStandard, 0.005);
  const RpcResult off = MeasureRouted(1400, ChecksumMode::kNone, 0.005);
  t2.AddRow({"on", TextTable::Us(on.MeanRtt().micros()), std::to_string(on.data_mismatches)});
  t2.AddRow({"off (negotiated away)", TextTable::Us(off.MeanRtt().micros()),
             std::to_string(off.data_mismatches)});
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
