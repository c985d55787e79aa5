#include "src/fault/error_experiment.h"

#include "src/fault/injector.h"

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

ErrorExperimentResult RunErrorExperiment(const ErrorExperimentConfig& config) {
  TestbedConfig tb_cfg;
  tb_cfg.network = NetworkKind::kAtm;
  tb_cfg.switched = config.source == ErrorSource::kSwitchFabric;
  tb_cfg.tcp.checksum = config.checksum;
  tb_cfg.seed = config.seed;
  Testbed tb(tb_cfg);

  auto rng = std::make_shared<Rng>(config.seed * 7919 + 13);
  auto counter = std::make_shared<InjectionCounter>();

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
      tb.atm_switch()->set_fabric_corrupt_hook(
          MakeCellBitFlipper(rng, counter, config.probability));
      break;
  }

  RpcOptions rpc;
  rpc.size = config.size;
  rpc.iterations = config.iterations;
  rpc.warmup = 8;
  const RpcResult run = RunRpcBenchmark(tb, rpc);

  ErrorExperimentResult out;
  out.injected = counter->injected;
  const SarReassemblerStats& sar_c = tb.client_atm()->sar_stats();
  const SarReassemblerStats& sar_s = tb.server_atm()->sar_stats();
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

}  // namespace tcplat
