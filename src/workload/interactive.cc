#include "src/workload/interactive.h"

#include <algorithm>
#include <string>

#include "src/base/check.h"
#include "src/core/table.h"

namespace tcplat {

const char* InteractiveKnobName(InteractiveKnob knob) {
  switch (knob) {
    case InteractiveKnob::kPathological:
      return "nagle+delack";
    case InteractiveKnob::kNodelay:
      return "nodelay";
    case InteractiveKnob::kDelackOff:
      return "delack-off";
  }
  return "?";
}

std::vector<FlowSpec> BuildInteractiveFlows(const InteractiveCell& cell, int clients,
                                            int servers) {
  TCPLAT_CHECK_GT(cell.flows, 0);
  std::vector<FlowSpec> specs;
  specs.reserve(static_cast<size_t>(cell.flows));
  for (int f = 0; f < cell.flows; ++f) {
    FlowSpec spec;
    spec.client = f % clients;
    spec.server = f % servers;
    spec.iterations = cell.iterations;
    spec.warmup = cell.warmup;
    spec.think_time = kInteractiveThinkTime;
    spec.request_chunks = {kInteractiveChunkBytes, kInteractiveChunkBytes};
    spec.response_size = kInteractiveResponseBytes;
    if (f < cell.clean_flows) {
      // Well-behaved control population: the whole request in one write,
      // sent immediately. These flows dominate p50 in mixed cells.
      spec.request_chunks = {2 * kInteractiveChunkBytes};
      spec.client_nodelay = true;
    }
    switch (cell.knob) {
      case InteractiveKnob::kPathological:
        break;
      case InteractiveKnob::kNodelay:
        spec.client_nodelay = true;
        break;
      case InteractiveKnob::kDelackOff:
        spec.server_delack = false;
        break;
    }
    specs.push_back(spec);
  }
  return specs;
}

InteractiveOutcome RunInteractiveCell(const InteractiveCell& cell) {
  return RunInteractiveCell(cell, nullptr);
}

InteractiveOutcome RunInteractiveCell(const InteractiveCell& cell, Tracer* tracer) {
  TCPLAT_CHECK_GT(cell.flows, 0);
  StarTestbedConfig config;
  config.clients = std::min(cell.clients, cell.flows);
  config.servers = std::min(cell.servers, cell.flows);
  config.seed = cell.seed;
  if (cell.delack_timeout.nanos() > 0) {
    config.tcp.delack_timeout = cell.delack_timeout;
  }
  StarTestbed testbed(config);
  if (tracer != nullptr) {
    testbed.AttachTracer(tracer);
  }

  const std::vector<FlowSpec> specs =
      BuildInteractiveFlows(cell, config.clients, config.servers);
  const WorkloadResult result = RunWorkload(testbed, specs);

  InteractiveOutcome out;
  out.samples = result.rtt.count();
  out.mean = result.rtt.Mean();
  if (out.samples > 0) {
    out.p50 = result.rtt.Percentile(50);
    out.p99 = result.rtt.Percentile(99);
  }
  out.completed = result.completed;
  out.aborted = result.aborted;
  for (int idx = 0; idx < config.clients + config.servers; ++idx) {
    const TcpStats& stats = testbed.tcp(idx).stats();
    out.nagle_holds += stats.nagle_holds;
    out.sws_holds += stats.sws_holds;
    out.delayed_acks_fired += stats.delayed_acks_fired;
    out.retransmits += stats.retransmits;
  }
  out.sim_events = testbed.EventsDispatched();
  return out;
}

std::vector<std::string> InteractiveHeader() {
  return {"knob",  "flows", "req",   "resp",  "delack", "samples", "p50",
          "p99",   "nagle", "sws",   "dacks", "rexmt"};
}

std::vector<std::string> InteractiveRow(const InteractiveCell& cell,
                                        const InteractiveOutcome& out) {
  const std::string chunk = std::to_string(kInteractiveChunkBytes);
  const int64_t timer_ns =
      cell.delack_timeout.nanos() > 0 ? cell.delack_timeout.nanos() : TcpConfig().delack_timeout.nanos();
  return {
      InteractiveKnobName(cell.knob),
      std::to_string(cell.flows),
      chunk + "+" + chunk,
      std::to_string(kInteractiveResponseBytes),
      TextTable::Num(static_cast<double>(timer_ns) / 1e6, 0) + " ms",
      std::to_string(out.samples),
      TextTable::Us(static_cast<double>(out.p50.nanos()) / 1e3, 1),
      TextTable::Us(static_cast<double>(out.p99.nanos()) / 1e3, 1),
      std::to_string(out.nagle_holds),
      std::to_string(out.sws_holds),
      std::to_string(out.delayed_acks_fired),
      std::to_string(out.retransmits),
  };
}

}  // namespace tcplat
