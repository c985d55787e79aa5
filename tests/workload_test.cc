// The workload engine's contract: a 1x1 star with one closed-loop flow IS
// the switched two-host testbed (pinned RTTs); generators are pure
// functions of their config (seeded arrivals); the closed-loop concurrency
// invariant holds, and max_concurrent counts ties, shared round trips and
// aborted flows exactly; every flow completes or aborts exactly once,
// impaired or not; and bench/capacity's rows are byte-identical across
// executor widths.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/atm/aal34.h"
#include "src/core/rpc_benchmark.h"
#include "src/core/testbed.h"
#include "src/exec/executor.h"
#include "src/fault/impairment.h"
#include "src/workload/capacity.h"
#include "src/workload/flow_driver.h"
#include "src/workload/generator.h"
#include "src/workload/star_testbed.h"

namespace tcplat {
namespace {

// K=1, M=1, one closed-loop flow: the star is the switched two-host
// testbed, and must reproduce the round trips that testbed measured when it
// was still built on its own (120 measured and 32 warm-up round trips). Any
// drift here means the star's wiring (fiber parameters, spawn order, VC
// setup) perturbed event ordering.
TEST(StarTestbed, OneFlowReproducesSwitchedTestbedByteForByte) {
  struct Pinned {
    size_t size;
    int64_t sum_ns;
    int64_t p99_ns;
  };
  for (const Pinned& pinned : {Pinned{4, 134'615'160, 1'121'400},
                               Pinned{1400, 352'251'280, 2'932'560}}) {
    StarTestbedConfig star_cfg;  // defaults: 1 client, 1 server, ATM
    StarTestbed star(star_cfg);
    FlowSpec spec;
    spec.size = pinned.size;
    spec.iterations = 120;
    spec.warmup = 32;
    const WorkloadResult got = RunWorkload(star, {spec});

    ASSERT_EQ(got.flows.size(), 1u);
    EXPECT_TRUE(got.flows[0].completed);
    EXPECT_EQ(got.rtt.count(), 120u) << "size " << pinned.size;
    EXPECT_EQ(got.rtt.sum().nanos(), pinned.sum_ns) << "size " << pinned.size;
    EXPECT_EQ(got.rtt.Percentile(99).nanos(), pinned.p99_ns) << "size " << pinned.size;
  }
}

TEST(StarTestbed, EthernetOneFlowMatchesEthernetTestbed) {
  TestbedConfig ref_cfg;
  ref_cfg.network = NetworkKind::kEthernet;
  Testbed ref(ref_cfg);
  RpcOptions opt;
  opt.size = 200;
  opt.iterations = 60;
  opt.warmup = 16;
  const RpcResult expected = RunRpcBenchmark(ref, opt);

  StarTestbedConfig star_cfg;
  star_cfg.network = NetworkKind::kEthernet;
  StarTestbed star(star_cfg);
  FlowSpec spec;
  spec.size = 200;
  spec.iterations = 60;
  spec.warmup = 16;
  const WorkloadResult got = RunWorkload(star, {spec});

  EXPECT_EQ(got.rtt.count(), expected.rtt.count());
  EXPECT_EQ(got.rtt.sum().nanos(), expected.rtt.sum().nanos());
}

// Open-loop arrivals are a pure function of the generator config: the same
// seed yields the same Poisson schedule, a different seed a different one.
TEST(Generators, OpenLoopArrivalsDeterministicPerSeed) {
  OpenLoopConfig cfg;
  cfg.flows = 32;
  cfg.clients = 4;
  cfg.servers = 2;
  cfg.seed = 7;
  const std::vector<FlowSpec> a = BuildOpenLoop(cfg);
  const std::vector<FlowSpec> b = BuildOpenLoop(cfg);
  ASSERT_EQ(a.size(), 32u);
  ASSERT_EQ(b.size(), 32u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].start_delay.nanos(), b[i].start_delay.nanos()) << "flow " << i;
    if (i > 0) {
      // Cumulative interarrivals: the schedule is nondecreasing.
      EXPECT_GE(a[i].start_delay.nanos(), a[i - 1].start_delay.nanos());
    }
  }

  cfg.seed = 8;
  const std::vector<FlowSpec> c = BuildOpenLoop(cfg);
  bool any_differs = false;
  for (size_t i = 0; i < a.size(); ++i) {
    any_differs |= a[i].start_delay.nanos() != c[i].start_delay.nanos();
  }
  EXPECT_TRUE(any_differs) << "seed is being ignored by the arrival process";
}

TEST(Generators, ClosedLoopRoundRobinsHostsAndPorts) {
  ClosedLoopConfig cfg;
  cfg.flows = 6;
  cfg.clients = 4;
  cfg.servers = 2;
  const std::vector<FlowSpec> specs = BuildClosedLoop(cfg);
  ASSERT_EQ(specs.size(), 6u);
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(specs[i].client, static_cast<int>(i) % 4);
    EXPECT_EQ(specs[i].server, static_cast<int>(i) % 2);
    EXPECT_EQ(specs[i].start_delay.nanos(), 0);
  }
  const std::vector<FlowSpec> incast = BuildIncast(5, 3, 64, 10, 2);
  for (const FlowSpec& s : incast) {
    EXPECT_EQ(s.server, 0);
  }
}

// Closed loop: a fixed population can never have more flows inside a round
// trip than it has members, and on a clean fabric every member completes.
TEST(FlowDriver, ClosedLoopConcurrencyInvariant) {
  StarTestbedConfig star_cfg;
  star_cfg.clients = 2;
  star_cfg.servers = 2;
  StarTestbed star(star_cfg);

  ClosedLoopConfig cfg;
  cfg.flows = 8;
  cfg.clients = 2;
  cfg.servers = 2;
  cfg.size = 64;
  cfg.iterations = 10;
  cfg.warmup = 2;
  const WorkloadResult result = RunWorkload(star, BuildClosedLoop(cfg));

  EXPECT_EQ(result.completed, 8u);
  EXPECT_EQ(result.aborted, 0u);
  EXPECT_EQ(result.data_mismatches, 0u);
  // With no think time a flow's leave and its next enter share an instant
  // every round trip; leaves count first there, or this would read higher.
  EXPECT_EQ(result.max_concurrent, 8u);
  // Each flow contributes exactly its measured iterations.
  EXPECT_EQ(result.rtt.count(), 8u * 10u);
  for (const FlowResult& flow : result.flows) {
    EXPECT_TRUE(flow.completed != flow.aborted);  // exactly one outcome
    EXPECT_EQ(flow.iterations, 10u);
  }
}

// Four flows from four clients whose first 8000-byte round trips all begin
// before any ends: the peak is the whole population.
TEST(FlowDriver, FlowsInsideOneRoundTripTogetherAllCount) {
  StarTestbedConfig star_cfg;
  star_cfg.clients = 4;
  StarTestbed star(star_cfg);

  ClosedLoopConfig cfg;
  cfg.flows = 4;
  cfg.clients = 4;
  cfg.size = 8000;
  cfg.iterations = 1;
  cfg.warmup = 0;
  const WorkloadResult result = RunWorkload(star, BuildClosedLoop(cfg));

  EXPECT_EQ(result.completed, 4u);
  EXPECT_EQ(result.max_concurrent, 4u);
}

// Drops every cell on `vcis` that leaves the switch at or after `from`: one
// connection cut mid-run, the rest of the fabric untouched.
class VcCut final : public LinkImpairment {
 public:
  VcCut(std::vector<uint16_t> vcis, SimTime from) : vcis_(std::move(vcis)), from_(from) {}

  Verdict OnTransmit(SimTime departure, const std::vector<uint8_t>& cell) override {
    bool crc_ok = false;
    const std::optional<AtmCell> parsed = ParseCell(cell, &crc_ok);
    Verdict verdict;
    verdict.drop = departure >= from_ && parsed.has_value() &&
                   std::find(vcis_.begin(), vcis_.end(), parsed->vci) != vcis_.end();
    return verdict;
  }

 private:
  std::vector<uint16_t> vcis_;
  SimTime from_;
};

// A flow whose connection dies mid-round-trip holds that round trip open
// until it aborts, and no longer. Flow 0's VC pair is cut at 5 ms and it
// aborts after its retransmissions run out; flow 1 starts inside that dead
// round trip and runs past the abort; flow 2 starts after the abort. The
// peak is two ({0, 1}, then {1, 2}); left open, flow 0 would make it three.
TEST(FlowDriver, DeadRoundTripCountsUntilTheFlowAborts) {
  StarTestbedConfig star_cfg;
  star_cfg.clients = 3;
  star_cfg.tcp.rexmt_min = SimDuration::FromMillis(20);
  star_cfg.tcp.max_rexmt = 1;
  StarTestbed star(star_cfg);
  const int server = star.clients();  // global index of server 0
  VcCut cut({star.PairVci(0, server), star.PairVci(server, 0)}, SimTime::FromMillis(5));
  star.atm_switch()->set_output_impairment(&cut);

  ClosedLoopConfig cfg;
  cfg.flows = 3;
  cfg.clients = 3;
  cfg.size = 200;
  cfg.iterations = 200;
  cfg.warmup = 0;
  std::vector<FlowSpec> specs = BuildClosedLoop(cfg);
  specs[0].iterations = 100000;
  specs[0].tolerate_errors = true;
  specs[1].start_delay = SimDuration::FromMillis(10);
  specs[2].start_delay = SimDuration::FromMillis(150);
  specs[2].iterations = 20;
  const WorkloadResult result = RunWorkload(star, specs);
  star.atm_switch()->set_output_impairment(nullptr);

  EXPECT_TRUE(result.flows[0].aborted);
  EXPECT_TRUE(result.flows[1].completed);
  EXPECT_TRUE(result.flows[2].completed);
  EXPECT_EQ(result.max_concurrent, 2u);
}

// Exactly-once completion under link impairment: with tolerate_errors set,
// every flow ends in exactly one of {completed, aborted} even when the
// switch fabric is dropping cells, and the totals reconcile.
TEST(FlowDriver, ExactlyOnceCompletionUnderImpairment) {
  StarTestbedConfig star_cfg;
  star_cfg.clients = 2;
  star_cfg.servers = 1;
  StarTestbed star(star_cfg);

  ImpairmentConfig imp;
  imp.drop_prob = 2e-3;
  imp.seed = 11;
  ImpairmentPolicy policy(imp);
  star.atm_switch()->set_output_impairment(&policy);

  ClosedLoopConfig cfg;
  cfg.flows = 6;
  cfg.clients = 2;
  cfg.servers = 1;
  cfg.size = 512;
  cfg.iterations = 8;
  cfg.warmup = 1;
  std::vector<FlowSpec> specs = BuildClosedLoop(cfg);
  for (FlowSpec& s : specs) {
    s.tolerate_errors = true;
  }
  const WorkloadResult result = RunWorkload(star, specs);
  star.atm_switch()->set_output_impairment(nullptr);

  EXPECT_GT(policy.stats().offered, 0u);
  EXPECT_EQ(result.completed + result.aborted, 6u);
  for (const FlowResult& flow : result.flows) {
    EXPECT_TRUE(flow.completed != flow.aborted);
  }
  // Every measured sample came from a flow that got that far; no sample is
  // double counted by the merge.
  uint64_t per_flow_samples = 0;
  for (const FlowResult& flow : result.flows) {
    per_flow_samples += flow.rtt.count();
  }
  EXPECT_EQ(result.rtt.count(), per_flow_samples);
}

// --- bench/capacity determinism matrix -------------------------------------

std::vector<CapacityCell> CapacityGrid() {
  std::vector<CapacityCell> grid;
  for (uint64_t seed : {1, 2}) {
    for (int flows : {1, 4}) {
      CapacityCell cell;
      cell.clients = 2;
      cell.servers = 2;
      cell.flows = flows;
      cell.size = 200;
      cell.iterations = 10;
      cell.warmup = 2;
      cell.seed = seed;
      grid.push_back(cell);
    }
    CapacityCell open;
    open.clients = 2;
    open.servers = 2;
    open.flows = 6;
    open.size = 200;
    open.iterations = 6;
    open.warmup = 1;
    open.discipline = LoadDiscipline::kOpenLoop;
    open.seed = seed;
    grid.push_back(open);
  }
  return grid;
}

std::string SerializeCell(const CapacityCell& cell, const CapacityOutcome& out) {
  std::string row;
  for (const std::string& field : CapacityRow(cell, out)) {
    row += field;
    row += '|';
  }
  row += "samples=" + std::to_string(out.samples);
  row += " events=" + std::to_string(out.sim_events);
  row += " elapsed=" + std::to_string(out.sim_elapsed.nanos());
  return row;
}

std::vector<std::string> RunCapacityGridOn(Executor& exec) {
  const std::vector<CapacityCell> grid = CapacityGrid();
  std::vector<std::function<std::string()>> thunks;
  thunks.reserve(grid.size());
  for (const CapacityCell& cell : grid) {
    thunks.emplace_back([cell] { return SerializeCell(cell, RunCapacityCell(cell)); });
  }
  std::vector<std::string> out;
  for (auto& outcome : exec.Run<std::string>(thunks)) {
    EXPECT_TRUE(outcome.ok()) << outcome.error;
    out.push_back(outcome.ok() ? *outcome.value : outcome.error);
  }
  return out;
}

// TCPLAT_JOBS=1 and TCPLAT_JOBS=4 must produce byte-identical capacity rows
// (submission-order merge), and repeated runs must agree with themselves.
TEST(CapacityDeterminism, SerialAndParallelRowsAreByteIdentical) {
  Executor serial(1);
  Executor parallel(4);
  const std::vector<std::string> a = RunCapacityGridOn(serial);
  const std::vector<std::string> b = RunCapacityGridOn(parallel);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "capacity cell " << i << " diverged between 1 and 4 workers";
  }
}

TEST(CapacityDeterminism, RepeatedCellsAreByteIdentical) {
  const CapacityCell cell = CapacityGrid()[1];  // 4 closed-loop flows
  const std::string first = SerializeCell(cell, RunCapacityCell(cell));
  const std::string second = SerializeCell(cell, RunCapacityCell(cell));
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace tcplat
