#include "src/workload/capacity.h"

#include <algorithm>
#include <string>

#include "src/base/check.h"
#include "src/core/table.h"

namespace tcplat {
namespace {

const char* NetworkName(NetworkKind network) {
  return network == NetworkKind::kAtm ? "atm" : "ether";
}

const char* DisciplineName(LoadDiscipline discipline) {
  switch (discipline) {
    case LoadDiscipline::kClosedLoop:
      return "closed";
    case LoadDiscipline::kOpenLoop:
      return "open";
    case LoadDiscipline::kIncast:
      return "incast";
  }
  return "?";
}

const char* ChecksumName(ChecksumMode mode) {
  switch (mode) {
    case ChecksumMode::kStandard:
      return "std";
    case ChecksumMode::kCombined:
      return "comb";
    case ChecksumMode::kNone:
      return "none";
  }
  return "?";
}

std::vector<FlowSpec> BuildSpecs(const CapacityCell& cell, int clients, int servers) {
  switch (cell.discipline) {
    case LoadDiscipline::kIncast:
      return BuildIncast(cell.flows, clients, cell.size, cell.iterations, cell.warmup);
    case LoadDiscipline::kOpenLoop: {
      OpenLoopConfig open;
      open.flows = cell.flows;
      open.clients = clients;
      open.servers = servers;
      open.size = cell.size;
      open.iterations = cell.iterations;
      open.warmup = cell.warmup;
      if (cell.mean_interarrival.nanos() > 0) {
        open.mean_interarrival = cell.mean_interarrival;
      }
      open.seed = cell.seed;
      return BuildOpenLoop(open);
    }
    case LoadDiscipline::kClosedLoop:
      break;
  }
  ClosedLoopConfig closed;
  closed.flows = cell.flows;
  closed.clients = clients;
  closed.servers = servers;
  closed.size = cell.size;
  closed.iterations = cell.iterations;
  closed.warmup = cell.warmup;
  return BuildClosedLoop(closed);
}

}  // namespace

CapacityOutcome RunCapacityCell(const CapacityCell& cell) {
  return RunCapacityCell(cell, nullptr);
}

CapacityOutcome RunCapacityCell(const CapacityCell& cell, Tracer* tracer) {
  TCPLAT_CHECK_GT(cell.flows, 0);
  StarTestbedConfig config;
  config.network = cell.network;
  // Never build more hosts than there are flows to occupy them.
  config.clients = std::min(cell.clients, cell.flows);
  config.servers = std::min(cell.servers, cell.flows);
  config.seed = cell.seed;
  config.tcp.header_prediction = cell.header_prediction;
  config.tcp.checksum = cell.checksum;
  StarTestbed testbed(config);
  if (tracer != nullptr) {
    testbed.AttachTracer(tracer);
  }

  const std::vector<FlowSpec> specs = BuildSpecs(cell, config.clients, config.servers);
  const WorkloadResult result = RunWorkload(testbed, specs);

  CapacityOutcome out;
  out.samples = result.rtt.count();
  out.mean = result.rtt.Mean();
  if (out.samples > 0) {
    out.p50 = result.rtt.Percentile(50);
    out.p99 = result.rtt.Percentile(99);
  }
  out.completed = result.completed;
  out.aborted = result.aborted;
  out.max_concurrent = result.max_concurrent;
  out.sim_elapsed = testbed.EndTime() - SimTime();
  out.sim_events = testbed.EventsDispatched();
  if (out.sim_elapsed.nanos() > 0) {
    // Each measured round trip echoes `size` bytes up and back down.
    const double bits =
        2.0 * 8.0 * static_cast<double>(cell.size) * static_cast<double>(out.samples);
    out.goodput_mbps = bits / (static_cast<double>(out.sim_elapsed.nanos()) / 1e9) / 1e6;
  }
  return out;
}

std::vector<std::string> CapacityHeader() {
  return {"net",  "load",   "flows", "bytes",   "hp",  "cksum",       "samples",
          "mean", "p50",    "p99",   "goodput", "conc"};
}

std::vector<std::string> CapacityRow(const CapacityCell& cell, const CapacityOutcome& out) {
  return {
      NetworkName(cell.network),
      DisciplineName(cell.discipline),
      std::to_string(cell.flows),
      std::to_string(cell.size),
      cell.header_prediction ? "on" : "off",
      ChecksumName(cell.checksum),
      std::to_string(out.samples),
      TextTable::Us(static_cast<double>(out.mean.nanos()) / 1e3, 1),
      TextTable::Us(static_cast<double>(out.p50.nanos()) / 1e3, 1),
      TextTable::Us(static_cast<double>(out.p99.nanos()) / 1e3, 1),
      TextTable::Num(out.goodput_mbps, 2) + " Mb/s",
      std::to_string(out.max_concurrent),
  };
}

}  // namespace tcplat
