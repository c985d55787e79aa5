// Configuration-matrix smoke: every combination of the experiment axes must
// deliver data intact — no configuration interaction may break the stack.

#include <gtest/gtest.h>

#include <string>

#include "src/core/rpc_benchmark.h"
#include "src/core/testbed.h"
#include "src/workload/star_testbed.h"

namespace tcplat {
namespace {

struct MatrixParam {
  NetworkKind network;
  ChecksumMode checksum;
  bool prediction;
  bool nodelay;
  bool switched;
  bool dma;

  std::string Name() const {
    std::string n = network == NetworkKind::kAtm ? "atm" : "eth";
    n += checksum == ChecksumMode::kStandard ? "_std"
         : checksum == ChecksumMode::kCombined ? "_comb"
                                               : "_none";
    n += prediction ? "_pred" : "_nopred";
    n += nodelay ? "_nodelay" : "";
    n += switched ? "_switched" : "";
    n += dma ? "_dma" : "";
    return n;
  }
};

class ConfigMatrix : public ::testing::TestWithParam<MatrixParam> {};

// Runs the echo at three sizes on `hosts`, whose ATM interfaces (null on
// Ethernet) are `client_atm` and `server_atm`.
void ExpectEchoSurvives(const MatrixParam& p, WorkloadHosts& hosts, AtmNetIf* client_atm,
                        AtmNetIf* server_atm) {
  if (p.dma) {
    client_atm->set_dma(true);
    server_atm->set_dma(true);
  }
  for (size_t size : {size_t{4}, size_t{1400}, size_t{8000}}) {
    RpcOptions opt;
    opt.size = size;
    opt.iterations = 12;
    opt.warmup = 4;
    const RpcResult r = RunRpcBenchmark(hosts, opt);
    EXPECT_EQ(r.data_mismatches, 0u) << p.Name() << " size " << size;
    EXPECT_EQ(r.rtt.count(), 12u) << p.Name() << " size " << size;
  }
  EXPECT_EQ(hosts.client_host(0).pool().stats().in_use, 0) << p.Name() << " leaked";
  EXPECT_EQ(hosts.server_host(0).pool().stats().in_use, 0) << p.Name() << " leaked";
}

TEST_P(ConfigMatrix, EchoSurvivesEveryConfiguration) {
  const MatrixParam& p = GetParam();
  TcpConfig tcp;
  tcp.checksum = p.checksum;
  tcp.header_prediction = p.prediction;
  tcp.nodelay = p.nodelay;
  if (p.switched) {
    // The switched two-host topology is the 1 x 1 star.
    StarTestbedConfig cfg;
    cfg.tcp = tcp;
    StarTestbed star(cfg);
    ExpectEchoSurvives(p, star, star.atm_netif(0), star.atm_netif(1));
  } else {
    TestbedConfig cfg;
    cfg.network = p.network;
    cfg.tcp = tcp;
    Testbed tb(cfg);
    ExpectEchoSurvives(p, tb, tb.client_atm(), tb.server_atm());
  }
}

std::vector<MatrixParam> AllConfigs() {
  std::vector<MatrixParam> out;
  for (NetworkKind net : {NetworkKind::kAtm, NetworkKind::kEthernet}) {
    for (ChecksumMode mode :
         {ChecksumMode::kStandard, ChecksumMode::kCombined, ChecksumMode::kNone}) {
      for (bool prediction : {true, false}) {
        for (bool nodelay : {true, false}) {
          out.push_back({net, mode, prediction, nodelay, false, false});
        }
      }
    }
  }
  // The ATM-only axes, on top of the default TCP settings.
  out.push_back({NetworkKind::kAtm, ChecksumMode::kStandard, true, false, true, false});
  out.push_back({NetworkKind::kAtm, ChecksumMode::kNone, true, false, true, false});
  out.push_back({NetworkKind::kAtm, ChecksumMode::kStandard, true, false, false, true});
  out.push_back({NetworkKind::kAtm, ChecksumMode::kCombined, true, false, true, true});
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllAxes, ConfigMatrix, ::testing::ValuesIn(AllConfigs()),
                         [](const auto& inst) { return inst.param.Name(); });

}  // namespace
}  // namespace tcplat
