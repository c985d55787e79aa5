// Load generators: builders that turn a traffic intent into FlowSpecs.
//
// Two arrival disciplines:
//  * Closed-loop — a fixed population of flows, each running its echo loop
//    back-to-back with an optional think time. Offered load self-limits to
//    the system's completion rate (the classic interactive-users model).
//  * Open-loop — flows arrive by a deterministic seeded Poisson process
//    (exponential interarrivals from src/base/random); offered load is set
//    by the arrival rate regardless of how the system keeps up.
//
// Plus incast fan-in: every client hammers one server.

#ifndef SRC_WORKLOAD_GENERATOR_H_
#define SRC_WORKLOAD_GENERATOR_H_

#include <cstdint>
#include <vector>

#include "src/workload/flow_driver.h"

namespace tcplat {

struct ClosedLoopConfig {
  int flows = 1;
  int clients = 1;  // flows round-robin over client hosts...
  int servers = 1;  // ...and server hosts
  size_t size = 4;
  int iterations = 200;
  int warmup = 32;
  SimDuration think_time;
};

// Fixed-population flows, round-robining flow i onto client i%K and server
// i%M, all starting at time zero.
std::vector<FlowSpec> BuildClosedLoop(const ClosedLoopConfig& config);

struct OpenLoopConfig {
  int flows = 16;
  int clients = 1;
  int servers = 1;
  size_t size = 4;
  int iterations = 20;
  int warmup = 4;
  // Mean interarrival time of the Poisson process (its rate sets offered
  // load); draws are seeded, so a seed fully determines every arrival.
  SimDuration mean_interarrival = SimDuration::FromMicros(500);
  uint64_t seed = 1;
};

// Poisson arrivals: flow i connects after the sum of i exponential draws.
std::vector<FlowSpec> BuildOpenLoop(const OpenLoopConfig& config);

// Incast fan-in: `flows` closed-loop flows from `clients` client hosts all
// converging on server 0.
std::vector<FlowSpec> BuildIncast(int flows, int clients, size_t size, int iterations,
                                  int warmup);

}  // namespace tcplat

#endif  // SRC_WORKLOAD_GENERATOR_H_
