#include "src/fault/error_experiment.h"

#include "src/fault/injector.h"
#include "src/workload/star_testbed.h"

namespace tcplat {

std::string ErrorSourceName(ErrorSource source) {
  switch (source) {
    case ErrorSource::kLinkBitFlip:
      return "link bit flip";
    case ErrorSource::kLinkCrcDefeating:
      return "CRC-defeating link error";
    case ErrorSource::kControllerCopy:
      return "controller copy error";
    case ErrorSource::kSwitchFabric:
      return "switch fabric error";
  }
  return "?";
}

namespace {

// Runs the echo on `hosts`, whose client and server sit behind `client_atm`
// and `server_atm`, and attributes every injected error to the layer that
// caught it.
ErrorExperimentResult RunAndAttribute(const ErrorExperimentConfig& config, WorkloadHosts& hosts,
                                      const AtmNetIf* client_atm, const AtmNetIf* server_atm,
                                      const InjectionCounter& counter) {
  RpcOptions rpc;
  rpc.size = config.size;
  rpc.iterations = config.iterations;
  rpc.warmup = 8;
  const RpcResult run = RunRpcBenchmark(hosts, rpc);

  ErrorExperimentResult out;
  out.injected = counter.injected;
  const SarReassemblerStats& sar_c = client_atm->sar_stats();
  const SarReassemblerStats& sar_s = server_atm->sar_stats();
  out.caught_cell_crc = sar_c.crc_errors + sar_s.crc_errors;
  out.caught_sar = sar_c.sequence_errors + sar_s.sequence_errors + sar_c.cpcs_errors +
                   sar_s.cpcs_errors + sar_c.protocol_errors + sar_s.protocol_errors;
  out.caught_tcp_checksum =
      run.client_tcp.checksum_errors + run.server_tcp.checksum_errors;
  out.app_mismatches = run.data_mismatches;
  out.retransmits = run.client_tcp.rexmt_timeouts + run.server_tcp.rexmt_timeouts;
  out.mean_rtt_us = run.MeanRtt().micros();
  out.completed = true;
  return out;
}

}  // namespace

ErrorExperimentResult RunErrorExperiment(const ErrorExperimentConfig& config) {
  auto rng = std::make_shared<Rng>(config.seed * 7919 + 13);
  auto counter = std::make_shared<InjectionCounter>();

  if (config.source == ErrorSource::kSwitchFabric) {
    // The switched two-host topology is the 1 x 1 star.
    StarTestbedConfig star_cfg;
    star_cfg.tcp.checksum = config.checksum;
    StarTestbed star(star_cfg);
    star.atm_switch()->set_fabric_corrupt_hook(
        MakeCellBitFlipper(rng, counter, config.probability));
    return RunAndAttribute(config, star, star.atm_netif(0), star.atm_netif(1), *counter);
  }

  TestbedConfig tb_cfg;
  tb_cfg.tcp.checksum = config.checksum;
  Testbed tb(tb_cfg);
  switch (config.source) {
    case ErrorSource::kLinkBitFlip:
      tb.atm_link()->dir(0).set_corrupt_hook(
          MakeCellBitFlipper(rng, counter, config.probability));
      tb.atm_link()->dir(1).set_corrupt_hook(
          MakeCellBitFlipper(rng, counter, config.probability));
      break;
    case ErrorSource::kLinkCrcDefeating:
      tb.atm_link()->dir(0).set_corrupt_hook(
          MakeCrc10DefeatingCorruptor(rng, counter, config.probability));
      tb.atm_link()->dir(1).set_corrupt_hook(
          MakeCrc10DefeatingCorruptor(rng, counter, config.probability));
      break;
    case ErrorSource::kControllerCopy:
      tb.client_atm()->set_controller_fault_hook(
          MakeControllerCorruptor(rng, counter, config.probability));
      tb.server_atm()->set_controller_fault_hook(
          MakeControllerCorruptor(rng, counter, config.probability));
      break;
    case ErrorSource::kSwitchFabric:
      break;  // run on the star above
  }
  return RunAndAttribute(config, tb, tb.client_atm(), tb.server_atm(), *counter);
}

}  // namespace tcplat
