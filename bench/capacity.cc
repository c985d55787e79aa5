// Capacity curves: the paper's single-connection latency analysis pushed
// into the many-flow regime of the related ATM multiplexing work.
//
// Grids of (flow count x topology x stack config) cells run on the
// parallel executor; each cell builds a fresh StarTestbed, drives its
// workload to completion, and reduces per-flow RTT stats to offered-load
// vs p50/p99 rows. Output contains only simulated quantities, so it is
// byte-identical across TCPLAT_JOBS settings and repeated runs at a fixed
// --seed (the determinism matrix pins this).
//
// The headline tables revisit Table 4 (header prediction) and Table 7
// (checksum elimination) under 1..256 concurrent flows: the single-entry
// PCB cache wins *because* one connection dominates, and the ~1.3 us/entry
// linear-lookup cost resurfaces as the flow count grows.

#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench/bench_flags.h"
#include "src/core/table.h"
#include "src/exec/executor.h"
#include "src/workload/capacity.h"

namespace tcplat {
namespace {

void PrintGrid(const char* title, const std::vector<CapacityCell>& cells) {
  const std::vector<CapacityOutcome> outcomes =
      ParallelMap<CapacityOutcome>(cells.size(), [&](size_t i) {
        return RunCapacityCell(cells[i]);
      });
  TextTable table(CapacityHeader());
  for (size_t i = 0; i < cells.size(); ++i) {
    table.AddRow(CapacityRow(cells[i], outcomes[i]));
  }
  std::printf("%s\n\n", title);
  table.Print();
  std::printf("\n");
}

CapacityCell BaseCell(uint64_t seed, bool quick) {
  CapacityCell cell;
  cell.clients = 4;
  cell.servers = 2;
  cell.size = 200;
  cell.iterations = quick ? 20 : 50;
  cell.warmup = quick ? 4 : 8;
  cell.seed = seed;
  return cell;
}

void ClosedLoopCurve(uint64_t seed, bool quick) {
  const std::vector<int> flow_counts =
      quick ? std::vector<int>{1, 4, 16, 64} : std::vector<int>{1, 2, 4, 8, 16, 32, 64, 128, 256};
  std::vector<CapacityCell> cells;
  for (int flows : flow_counts) {
    CapacityCell cell = BaseCell(seed, quick);
    cell.flows = flows;
    cells.push_back(cell);
  }
  PrintGrid("Closed-loop capacity curve (ATM star, 4 clients x 2 servers, 200-byte echo)",
            cells);
}

void HeaderPredictionByFlows(uint64_t seed, bool quick) {
  const std::vector<int> flow_counts =
      quick ? std::vector<int>{1, 8, 64} : std::vector<int>{1, 8, 64, 256};
  std::vector<CapacityCell> cells;
  for (int flows : flow_counts) {
    for (bool hp : {true, false}) {
      CapacityCell cell = BaseCell(seed, quick);
      cell.flows = flows;
      cell.header_prediction = hp;
      cells.push_back(cell);
    }
  }
  PrintGrid("Table 4 revisited: header prediction x flow count", cells);
}

void ChecksumByFlows(uint64_t seed, bool quick) {
  const std::vector<int> flow_counts =
      quick ? std::vector<int>{1, 64} : std::vector<int>{1, 8, 64, 256};
  std::vector<CapacityCell> cells;
  for (int flows : flow_counts) {
    for (ChecksumMode mode : {ChecksumMode::kStandard, ChecksumMode::kNone}) {
      CapacityCell cell = BaseCell(seed, quick);
      cell.flows = flows;
      cell.size = 1400;
      cell.checksum = mode;
      cells.push_back(cell);
    }
  }
  PrintGrid("Table 7 revisited: checksum elimination x flow count (1400-byte echo)", cells);
}

void IncastFanIn(uint64_t seed, bool quick) {
  const std::vector<int> flow_counts =
      quick ? std::vector<int>{4, 16} : std::vector<int>{4, 8, 16, 32};
  std::vector<CapacityCell> cells;
  for (int flows : flow_counts) {
    CapacityCell cell = BaseCell(seed, quick);
    cell.flows = flows;
    cell.servers = 1;
    cell.size = 1400;
    cell.discipline = LoadDiscipline::kIncast;
    cells.push_back(cell);
  }
  PrintGrid("Incast fan-in (4 clients -> 1 server, 1400-byte echo)", cells);
}

void OpenLoopSweep(uint64_t seed, bool quick) {
  const std::vector<int64_t> interarrival_us =
      quick ? std::vector<int64_t>{1000, 250} : std::vector<int64_t>{2000, 1000, 500, 250, 100};
  std::vector<CapacityCell> cells;
  for (int64_t us : interarrival_us) {
    CapacityCell cell = BaseCell(seed, quick);
    cell.flows = quick ? 16 : 32;
    cell.discipline = LoadDiscipline::kOpenLoop;
    cell.mean_interarrival = SimDuration::FromMicros(us);
    cells.push_back(cell);
  }
  PrintGrid("Open-loop Poisson arrivals (rate rises top to bottom)", cells);
}

void Run(uint64_t seed, bool quick) {
  std::printf("Multi-flow capacity grids (seed %llu, %s mode)\n"
              "All quantities are simulated; output is byte-identical across\n"
              "TCPLAT_JOBS settings and repeated runs at a fixed --seed.\n\n",
              static_cast<unsigned long long>(seed), quick ? "quick" : "full");
  ClosedLoopCurve(seed, quick);
  HeaderPredictionByFlows(seed, quick);
  ChecksumByFlows(seed, quick);
  IncastFanIn(seed, quick);
  OpenLoopSweep(seed, quick);
  std::printf(
      "Reading: the closed-loop curve self-limits, so mean RTT grows with the\n"
      "flow count while goodput approaches the service capacity and p99\n"
      "inflects once queueing at the switch outputs and server CPUs sets in.\n"
      "Header prediction's single-entry PCB cache pays fully at 1 flow and\n"
      "stops paying as interleaving defeats it, while the disabled rows eat\n"
      "the full linear in_pcblookup walk (~1.3 us/entry) on every segment —\n"
      "the gap between on and off converges as flows grow.\n");
}

}  // namespace
}  // namespace tcplat

int main(int argc, char** argv) {
  tcplat::BenchFlags flags;
  if (!tcplat::ParseBenchFlags(argc, argv, &flags, "[--seed N] [--jobs N] [--quick]")) {
    return 2;
  }
  tcplat::Run(flags.seed, flags.quick);
  return 0;
}
