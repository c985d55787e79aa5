// Regenerates the §3 PCB-lookup microbenchmark: the cost of a linear search
// of the PCB list for lengths from 20 to 1000 entries (the paper measured
// 26 us at 20 entries, 1280 us at 1000, "just less than 1.3 us" per
// element), plus the hash-table alternative the paper recommends and the
// single-entry cache hit cost.

#include <cstdio>
#include <vector>

#include "bench/bench_flags.h"
#include "src/core/paper_data.h"
#include "src/core/table.h"
#include "src/cpu/cpu.h"
#include "src/sim/simulator.h"
#include "src/tcp/pcb.h"

namespace tcplat {
namespace {

// Builds a table of n PCBs and measures the simulated cost of looking up
// the one at the tail (worst case, like the paper's sweep).
SimDuration MeasureLookup(size_t n, PcbLookupMode mode, bool cache, bool second_lookup) {
  Simulator sim;
  Cpu cpu(&sim, CostProfile::Decstation5000_200());
  PcbTable table(&cpu);
  table.set_mode(mode);
  table.set_cache_enabled(cache);

  std::vector<Pcb> pcbs(n);
  for (size_t i = 0; i < n; ++i) {
    pcbs[i].local = SockAddr{MakeAddr(10, 0, 0, 1), static_cast<uint16_t>(1000 + i)};
    pcbs[i].remote = SockAddr{MakeAddr(10, 0, 0, 2), static_cast<uint16_t>(2000 + i)};
  }
  // Head insertion: insert in reverse so pcbs[n-1] ends up at the tail.
  for (size_t i = n; i > 0; --i) {
    table.Insert(&pcbs[i - 1]);
  }

  const Pcb& target = pcbs[n - 1];
  cpu.BeginRun(sim.Now());
  if (second_lookup) {
    // Prime the cache, then measure the repeat lookup.
    table.Lookup(target.remote, target.local);
  }
  const SimTime before = cpu.cursor();
  Pcb* found = table.Lookup(target.remote, target.local);
  const SimDuration cost = cpu.cursor() - before;
  cpu.EndRun();
  if (found != &target) {
    std::fprintf(stderr, "lookup failed!\n");
  }
  return cost;
}

void Run() {
  std::printf("PCB lookup cost (the paper: 20 entries -> 26 us, 1000 -> 1280 us,\n"
              "~1.3 us per element; hash table 'could eliminate the lookup problem')\n\n");
  TextTable t({"Entries", "Linear list (us)", "us/entry", "Hash table (us)",
               "Cached repeat (us)", "paper linear (us)"});
  for (size_t n : {20u, 50u, 100u, 250u, 500u, 1000u}) {
    const double linear = MeasureLookup(n, PcbLookupMode::kLinearList, false, false).micros();
    const double hash = MeasureLookup(n, PcbLookupMode::kHashTable, false, false).micros();
    const double cached = MeasureLookup(n, PcbLookupMode::kLinearList, true, true).micros();
    std::string paper_val = "-";
    if (n == 20) {
      paper_val = TextTable::Us(paper::kPcbSearch20Us);
    } else if (n == 1000) {
      paper_val = TextTable::Us(paper::kPcbSearch1000Us);
    }
    t.AddRow({std::to_string(n), TextTable::Us(linear, 1),
              TextTable::Num(linear / static_cast<double>(n), 2), TextTable::Us(hash, 1),
              TextTable::Us(cached, 1), paper_val});
  }
  t.Print();
}

}  // namespace
}  // namespace tcplat

int main(int argc, char** argv) {
  tcplat::BenchFlags flags;
  if (!tcplat::ParseBenchFlags(argc, argv, &flags, "")) return 2;
  tcplat::Run();
  return 0;
}
