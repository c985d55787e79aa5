#include "src/workload/generator.h"

#include <cmath>

#include "src/base/check.h"
#include "src/base/random.h"

namespace tcplat {

std::vector<FlowSpec> BuildClosedLoop(const ClosedLoopConfig& config) {
  TCPLAT_CHECK_GT(config.flows, 0);
  TCPLAT_CHECK_GT(config.clients, 0);
  TCPLAT_CHECK_GT(config.servers, 0);
  std::vector<FlowSpec> specs;
  specs.reserve(static_cast<size_t>(config.flows));
  for (int f = 0; f < config.flows; ++f) {
    FlowSpec spec;
    spec.client = f % config.clients;
    spec.server = f % config.servers;
    spec.size = config.size;
    spec.iterations = config.iterations;
    spec.warmup = config.warmup;
    spec.think_time = config.think_time;
    specs.push_back(spec);
  }
  return specs;
}

std::vector<FlowSpec> BuildOpenLoop(const OpenLoopConfig& config) {
  TCPLAT_CHECK_GT(config.flows, 0);
  TCPLAT_CHECK_GT(config.mean_interarrival.nanos(), 0);
  Rng rng(config.seed);
  std::vector<FlowSpec> specs;
  specs.reserve(static_cast<size_t>(config.flows));
  int64_t arrival_ns = 0;
  for (int f = 0; f < config.flows; ++f) {
    arrival_ns += static_cast<int64_t>(std::llround(
        rng.NextExponential(static_cast<double>(config.mean_interarrival.nanos()))));
    FlowSpec spec;
    spec.client = f % config.clients;
    spec.server = f % config.servers;
    spec.size = config.size;
    spec.iterations = config.iterations;
    spec.warmup = config.warmup;
    spec.start_delay = SimDuration::FromNanos(arrival_ns);
    specs.push_back(spec);
  }
  return specs;
}

std::vector<FlowSpec> BuildIncast(int flows, int clients, size_t size, int iterations,
                                  int warmup) {
  ClosedLoopConfig config;
  config.flows = flows;
  config.clients = clients;
  config.servers = 1;
  config.size = size;
  config.iterations = iterations;
  config.warmup = warmup;
  return BuildClosedLoop(config);
}

}  // namespace tcplat
