// Deployment planning on the simulated testbed: a 1994 lab is choosing its
// next LAN and adapter generation. This example sweeps the deployment axes
// the library models — network type, switched vs direct fiber, adapter
// generation (programmed I/O vs DMA), and checksum policy — for two
// workload archetypes (small RPCs and page-sized transfers), then prints a
// recommendation table.
//
//   $ ./network_planning

#include <cstdio>
#include <string>

#include "src/core/rpc_benchmark.h"
#include "src/core/table.h"
#include "src/core/testbed.h"

using namespace tcplat;

namespace {

struct Deployment {
  const char* name;
  NetworkKind network;
  bool switched;
  bool dma;
  ChecksumMode checksum;
};

double Rtt(const Deployment& d, size_t size) {
  TestbedConfig cfg;
  cfg.network = d.network;
  cfg.switched = d.switched && d.network == NetworkKind::kAtm;
  cfg.tcp.checksum = d.checksum;
  Testbed tb(cfg);
  if (d.dma && d.network == NetworkKind::kAtm) {
    tb.client_atm()->set_dma(true);
    tb.server_atm()->set_dma(true);
  }
  RpcOptions opt;
  opt.size = size;
  opt.iterations = 150;
  return RunRpcBenchmark(tb, opt).MeanRtt().micros();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    std::fprintf(stderr, "usage: %s (takes no arguments)\n", argv[0]);
    return 2;
  }
  std::printf("LAN deployment study: 200-byte RPCs and 4000-byte page transfers\n"
              "(simulated DECstation 5000/200 pair, round-trip microseconds)\n\n");

  const Deployment plans[] = {
      {"Ethernet (today)", NetworkKind::kEthernet, false, false, ChecksumMode::kStandard},
      {"ATM, direct fiber", NetworkKind::kAtm, false, false, ChecksumMode::kStandard},
      {"ATM via switch", NetworkKind::kAtm, true, false, ChecksumMode::kStandard},
      {"ATM, no TCP cksum", NetworkKind::kAtm, false, false, ChecksumMode::kNone},
      {"ATM + DMA adapter", NetworkKind::kAtm, false, true, ChecksumMode::kStandard},
      {"ATM + DMA, no cksum", NetworkKind::kAtm, false, true, ChecksumMode::kNone},
  };

  TextTable t({"Deployment", "200B RPC", "4000B page", "RPC vs Ethernet", "Page vs Ethernet"});
  const double base_rpc = Rtt(plans[0], 200);
  const double base_page = Rtt(plans[0], 4000);
  for (const Deployment& d : plans) {
    const double rpc = Rtt(d, 200);
    const double page = Rtt(d, 4000);
    t.AddRow({d.name, TextTable::Us(rpc), TextTable::Us(page),
              TextTable::Pct(100.0 * (base_rpc - rpc) / base_rpc),
              TextTable::Pct(100.0 * (base_page - page) / base_page)});
  }
  t.Print();

  std::printf(
      "\nPlanning notes grounded in the paper:\n"
      " * The ATM jump alone halves both workloads (Table 1).\n"
      " * A first-generation switch costs only tens of microseconds per\n"
      "   round trip, and its fabric errors are caught end-to-end by the\n"
      "   AAL CRC (§4.2.1 source 1) — safe to deploy.\n"
      " * Checksum elimination is a page-transfer optimization; it needs the\n"
      "   local-traffic-only discipline of §4.2.1 (keep it off for routed\n"
      "   traffic).\n"
      " * The DMA adapter is where the next factor-of-two for large\n"
      "   transfers lives (§2.2.3) — but neither it nor any checksum policy\n"
      "   rescues small-RPC latency, which is per-packet software cost\n"
      "   (Tables 2/3): that takes protocol and scheduler work.\n");
  return 0;
}
