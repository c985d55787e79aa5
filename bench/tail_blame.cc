// Tail blame: why is p99 slower than p50?
//
// Runs the 8-flow capacity cell where PR 4's grids showed the PCB-cache
// inversion (header prediction on vs off, 4 clients x 2 servers, 200-byte
// closed-loop echo), records a full trace, reconstructs every round trip's
// causal chain, and prints which stage of the critical path accounts for
// the p99-p50 gap — queue wait, retransmit stall, FIFO stall, delayed ACK,
// reassembly wait — instead of leaving the tail as one opaque number.
//
// Every printed quantity is simulated, so output is byte-identical across
// TCPLAT_JOBS settings and repeated runs at a fixed --seed (the attribution
// tests pin this). The binary fails (exit 1) if any window's stages do not
// telescope exactly to its RTT or if less than 95% of the p99-p50 gap is
// attributed — so running it under ctest doubles as an acceptance check.

#include <array>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_flags.h"
#include "src/core/table.h"
#include "src/exec/executor.h"
#include "src/trace/attribution.h"
#include "src/trace/causal_graph.h"
#include "src/trace/tracer.h"
#include "src/workload/capacity.h"
#include "src/workload/interactive.h"

namespace tcplat {
namespace {

int g_failures = 0;

void Check(bool ok, const char* what) {
  std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what);
  if (!ok) {
    ++g_failures;
  }
}

struct CellBlame {
  CapacityCell cell;
  CapacityOutcome outcome;
  size_t windows = 0;
  size_t linked_journeys = 0;
  bool stages_telescope = true;  // every window: sum(stages) == rtt
  BlameReport blame;
};

CellBlame RunCell(const CapacityCell& cell) {
  CellBlame result;
  result.cell = cell;

  Tracer tracer;
  result.outcome = RunCapacityCell(cell, &tracer);

  const CausalGraph graph = CausalGraph::Build(tracer);
  result.linked_journeys = graph.linked_count();

  AttributionOptions options;
  options.message_bytes = cell.size;
  options.warmup_windows = cell.warmup;
  const AttributionResult attribution = AttributeRtts(tracer, graph, options);
  result.windows = attribution.windows.size();
  for (const RttWindow& w : attribution.windows) {
    int64_t sum = 0;
    for (int64_t stage : w.stage_ns) {
      sum += stage;
    }
    if (sum != w.rtt_ns()) {
      result.stages_telescope = false;
    }
  }
  result.blame = BuildBlame(attribution.windows, 50.0, 99.0);
  return result;
}

void PrintBlameTable(const BlameReport& blame) {
  TextTable table({"stage", "p50", "p99", "delta", "share"});
  for (size_t s = 0; s < kBlameStageCount; ++s) {
    const int64_t lo = blame.lo_stage_ns[s];
    const int64_t hi = blame.hi_stage_ns[s];
    const int64_t delta = hi - lo;
    const double share = blame.gap_ns() > 0 ? 100.0 * static_cast<double>(delta) /
                                                  static_cast<double>(blame.gap_ns())
                                            : 0.0;
    table.AddRow({std::string(BlameStageName(static_cast<BlameStage>(s))),
                  TextTable::Us(static_cast<double>(lo) / 1e3, 2),
                  TextTable::Us(static_cast<double>(hi) / 1e3, 2),
                  TextTable::Us(static_cast<double>(delta) / 1e3, 2),
                  TextTable::Num(share, 1) + "%"});
  }
  table.Print();
  std::printf("\nevents in the p50/p99 windows: retransmits %d/%d, delayed ACKs %d/%d, "
              "FIFO stalls %s/%s\n\n",
              blame.lo_retransmits, blame.hi_retransmits, blame.lo_delayed_acks,
              blame.hi_delayed_acks,
              TextTable::Us(static_cast<double>(blame.lo_tx_stall_ns) / 1e3, 2).c_str(),
              TextTable::Us(static_cast<double>(blame.hi_tx_stall_ns) / 1e3, 2).c_str());
}

void PrintCell(const CellBlame& r) {
  std::printf("--- 8-flow cell, header prediction %s ---\n",
              r.cell.header_prediction ? "on" : "off");
  std::printf("round trips attributed : %zu (of %" PRIu64 " measured)\n", r.windows,
              r.outcome.samples);
  std::printf("linked packet journeys : %zu\n", r.linked_journeys);
  std::printf("p50 RTT %s  p99 RTT %s  gap %s\n\n",
              TextTable::Us(static_cast<double>(r.blame.lo_rtt_ns) / 1e3, 1).c_str(),
              TextTable::Us(static_cast<double>(r.blame.hi_rtt_ns) / 1e3, 1).c_str(),
              TextTable::Us(static_cast<double>(r.blame.gap_ns()) / 1e3, 1).c_str());
  PrintBlameTable(r.blame);
}

// --- Interactive scenario cells: the Nagle × delayed-ACK pathology in a
// mixed population. Six well-behaved flows (single-write requests,
// TCP_NODELAY) own the p50; two knob-shaped flows own the p99, so the
// p99-p50 gap *is* whatever latency mode the knob arms, and the blame
// report must pin it on the ACK-wait stages — or on nothing, for the
// nodelay / delack-off controls where the mode must vanish.

struct InteractiveBlame {
  const char* scenario = "";
  InteractiveCell cell;
  InteractiveOutcome outcome;
  size_t windows = 0;
  size_t linked_journeys = 0;
  bool stages_telescope = true;
  BlameReport blame;
  // kCliAckWait + kSrvAckWait, in the p50 and p99 windows.
  int64_t ack_wait_lo_ns = 0;
  int64_t ack_wait_hi_ns = 0;
};

int64_t AckWait(const std::array<int64_t, kBlameStageCount>& stage_ns) {
  return stage_ns[static_cast<size_t>(BlameStage::kCliAckWait)] +
         stage_ns[static_cast<size_t>(BlameStage::kSrvAckWait)];
}

InteractiveBlame RunInteractiveScenario(const char* scenario, InteractiveKnob knob,
                                        uint64_t seed, bool quick) {
  InteractiveBlame result;
  result.scenario = scenario;

  InteractiveCell cell;
  cell.flows = 8;
  cell.clients = 4;
  cell.servers = 2;
  cell.clean_flows = 6;
  cell.knob = knob;
  cell.iterations = quick ? 16 : 48;
  cell.warmup = 4;
  cell.seed = seed;
  result.cell = cell;

  Tracer tracer;
  result.outcome = RunInteractiveCell(cell, &tracer);

  const CausalGraph graph = CausalGraph::Build(tracer);
  result.linked_journeys = graph.linked_count();

  AttributionOptions options;
  options.message_bytes = kInteractiveResponseBytes;  // 200 bytes each way
  options.warmup_windows = cell.warmup;
  const AttributionResult attribution = AttributeRtts(tracer, graph, options);
  result.windows = attribution.windows.size();
  for (const RttWindow& w : attribution.windows) {
    int64_t sum = 0;
    for (int64_t stage : w.stage_ns) {
      sum += stage;
    }
    if (sum != w.rtt_ns()) {
      result.stages_telescope = false;
    }
  }
  result.blame = BuildBlame(attribution.windows, 50.0, 99.0);
  result.ack_wait_lo_ns = AckWait(result.blame.lo_stage_ns);
  result.ack_wait_hi_ns = AckWait(result.blame.hi_stage_ns);
  return result;
}

void PrintInteractiveCell(const InteractiveBlame& r) {
  std::printf("--- interactive %s: 6 clean + 2 %s flows, 100+100B requests ---\n",
              r.scenario, InteractiveKnobName(r.cell.knob));
  std::printf("round trips attributed : %zu (of %" PRIu64 " measured)\n", r.windows,
              r.outcome.samples);
  std::printf("linked packet journeys : %zu\n", r.linked_journeys);
  std::printf("p50 RTT %s  p99 RTT %s  gap %s  ack-wait delta %s\n\n",
              TextTable::Us(static_cast<double>(r.blame.lo_rtt_ns) / 1e3, 1).c_str(),
              TextTable::Us(static_cast<double>(r.blame.hi_rtt_ns) / 1e3, 1).c_str(),
              TextTable::Us(static_cast<double>(r.blame.gap_ns()) / 1e3, 1).c_str(),
              TextTable::Us(
                  static_cast<double>(r.ack_wait_hi_ns - r.ack_wait_lo_ns) / 1e3, 1)
                  .c_str());
  PrintBlameTable(r.blame);
}

void AppendBlameCsv(std::string* out, const char* scenario, const char* hp, int flows,
                    size_t size, const BlameReport& blame) {
  char buf[256];
  auto row = [&](const char* stage, int64_t lo, int64_t hi, double share) {
    std::snprintf(buf, sizeof(buf),
                  "%s,%s,%d,%zu,%s,%" PRId64 ",%" PRId64 ",%" PRId64 ",%.2f\n", scenario, hp,
                  flows, size, stage, lo, hi, hi - lo, share);
    *out += buf;
  };
  row("rtt.total", blame.lo_rtt_ns, blame.hi_rtt_ns, 100.0);
  for (size_t s = 0; s < kBlameStageCount; ++s) {
    const int64_t lo = blame.lo_stage_ns[s];
    const int64_t hi = blame.hi_stage_ns[s];
    const double share = blame.gap_ns() > 0 ? 100.0 * static_cast<double>(hi - lo) /
                                                  static_cast<double>(blame.gap_ns())
                                            : 0.0;
    row(std::string(BlameStageName(static_cast<BlameStage>(s))).c_str(), lo, hi, share);
  }
  row("retransmits", blame.lo_retransmits, blame.hi_retransmits, 0.0);
  row("delayed_acks", blame.lo_delayed_acks, blame.hi_delayed_acks, 0.0);
  row("tx_stall_ns", blame.lo_tx_stall_ns, blame.hi_tx_stall_ns, 0.0);
}

std::string ToCsv(const std::vector<CellBlame>& results,
                  const std::vector<InteractiveBlame>& interactive) {
  std::string out = "scenario,hp,flows,size,stage,p50_ns,p99_ns,delta_ns,share_of_gap_pct\n";
  for (const CellBlame& r : results) {
    AppendBlameCsv(&out, "capacity", r.cell.header_prediction ? "on" : "off", r.cell.flows,
                   r.cell.size, r.blame);
  }
  for (const InteractiveBlame& r : interactive) {
    AppendBlameCsv(&out, r.scenario, "on", r.cell.flows, kInteractiveResponseBytes, r.blame);
  }
  return out;
}

std::string ToJson(const std::vector<CellBlame>& results,
                   const std::vector<InteractiveBlame>& interactive) {
  std::string out = "{\n  \"cells\": [\n";
  char buf[256];
  auto stages = [&](const BlameReport& blame) {
    for (size_t s = 0; s < kBlameStageCount; ++s) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\": [%" PRId64 ", %" PRId64 "]", s > 0 ? ", " : "",
                    std::string(BlameStageName(static_cast<BlameStage>(s))).c_str(),
                    blame.lo_stage_ns[s], blame.hi_stage_ns[s]);
      out += buf;
    }
  };
  const size_t total = results.size() + interactive.size();
  size_t emitted = 0;
  for (const CellBlame& r : results) {
    std::snprintf(buf, sizeof(buf),
                  "    {\"scenario\": \"capacity\", \"hp\": %s, \"flows\": %d, \"size\": %zu, "
                  "\"windows\": %zu,\n"
                  "     \"p50_rtt_ns\": %" PRId64 ", \"p99_rtt_ns\": %" PRId64
                  ", \"explained_pct\": %.2f,\n     \"stages\": {",
                  r.cell.header_prediction ? "true" : "false", r.cell.flows, r.cell.size,
                  r.windows, r.blame.lo_rtt_ns, r.blame.hi_rtt_ns, r.blame.explained_pct);
    out += buf;
    stages(r.blame);
    out += "}}";
    out += ++emitted < total ? ",\n" : "\n";
  }
  for (const InteractiveBlame& r : interactive) {
    std::snprintf(buf, sizeof(buf),
                  "    {\"scenario\": \"%s\", \"hp\": true, \"flows\": %d, \"size\": %zu, "
                  "\"windows\": %zu,\n"
                  "     \"p50_rtt_ns\": %" PRId64 ", \"p99_rtt_ns\": %" PRId64
                  ", \"explained_pct\": %.2f,\n     \"ack_wait_delta_ns\": %" PRId64
                  ",\n     \"stages\": {",
                  r.scenario, r.cell.flows, kInteractiveResponseBytes, r.windows, r.blame.lo_rtt_ns,
                  r.blame.hi_rtt_ns, r.blame.explained_pct,
                  r.ack_wait_hi_ns - r.ack_wait_lo_ns);
    out += buf;
    stages(r.blame);
    out += "}}";
    out += ++emitted < total ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

int Run(const BenchFlags& flags) {
  std::printf("Tail blame report (seed %llu, %s mode)\n"
              "p50 vs p99 round trips on the 8-flow capacity cell, decomposed along\n"
              "the causal critical path. All quantities simulated; byte-identical\n"
              "across TCPLAT_JOBS at a fixed --seed.\n\n",
              static_cast<unsigned long long>(flags.seed), flags.quick ? "quick" : "full");

  std::vector<CapacityCell> cells;
  for (bool hp : {true, false}) {
    CapacityCell cell;
    cell.clients = 4;
    cell.servers = 2;
    cell.flows = flags.flows;
    cell.size = flags.size;
    cell.iterations = flags.quick ? 40 : 200;
    cell.warmup = 8;
    cell.seed = flags.seed;
    cell.header_prediction = hp;
    cells.push_back(cell);
  }

  const std::vector<CellBlame> results = ParallelMap<CellBlame>(
      cells.size(), [&](size_t i) { return RunCell(cells[i]); });

  for (const CellBlame& r : results) {
    PrintCell(r);
  }

  // The interactive scenarios: same mixed cell, one knob turned per run.
  struct Scenario {
    const char* name;
    InteractiveKnob knob;
  };
  const std::array<Scenario, 3> scenarios = {{{"delack", InteractiveKnob::kPathological},
                                              {"nodelay", InteractiveKnob::kNodelay},
                                              {"delack-off", InteractiveKnob::kDelackOff}}};
  const std::vector<InteractiveBlame> interactive = ParallelMap<InteractiveBlame>(
      scenarios.size(), [&](size_t i) {
        return RunInteractiveScenario(scenarios[i].name, scenarios[i].knob, flags.seed,
                                      flags.quick);
      });

  for (const InteractiveBlame& r : interactive) {
    PrintInteractiveCell(r);
  }

  std::printf("checks:\n");
  for (const CellBlame& r : results) {
    char what[160];
    std::snprintf(what, sizeof(what), "hp=%s: every round trip attributed (%zu of %" PRIu64 ")",
                  r.cell.header_prediction ? "on" : "off", r.windows, r.outcome.samples);
    Check(r.windows == r.outcome.samples, what);
    std::snprintf(what, sizeof(what), "hp=%s: stages telescope exactly to each RTT",
                  r.cell.header_prediction ? "on" : "off");
    Check(r.stages_telescope, what);
    std::snprintf(what, sizeof(what), "hp=%s: >=95%% of the p99-p50 gap attributed (%.2f%%)",
                  r.cell.header_prediction ? "on" : "off", r.blame.explained_pct);
    Check(r.blame.explained_pct >= 95.0, what);
  }
  for (const InteractiveBlame& r : interactive) {
    char what[200];
    std::snprintf(what, sizeof(what), "%s: every round trip attributed (%zu of %" PRIu64 ")",
                  r.scenario, r.windows, r.outcome.samples);
    Check(r.windows == r.outcome.samples, what);
    std::snprintf(what, sizeof(what), "%s: stages telescope exactly to each RTT", r.scenario);
    Check(r.stages_telescope, what);
    const int64_t gap = r.blame.gap_ns();
    const int64_t ack_wait_delta = r.ack_wait_hi_ns - r.ack_wait_lo_ns;
    if (r.cell.knob == InteractiveKnob::kPathological) {
      // The delayed-ACK mode: the mixed cell's tail is the 200 ms timer,
      // and the blame must land on the ACK-wait stages at the sender.
      std::snprintf(what, sizeof(what),
                    "%s: p99-p50 gap shows the delack mode (gap %.1f ms >= 100 ms)",
                    r.scenario, static_cast<double>(gap) / 1e6);
      Check(gap >= 100'000'000, what);
      std::snprintf(what, sizeof(what),
                    "%s: >=80%% of the gap is ACK-wait at the sender (%.1f%%)", r.scenario,
                    gap > 0 ? 100.0 * static_cast<double>(ack_wait_delta) /
                                  static_cast<double>(gap)
                            : 0.0);
      Check(gap > 0 && ack_wait_delta * 5 >= gap * 4, what);
    } else {
      // Either knob removes one leg of the interaction: the mode vanishes.
      std::snprintf(what, sizeof(what), "%s: the delack mode vanishes (gap %.2f ms < 5 ms)",
                    r.scenario, static_cast<double>(gap) / 1e6);
      Check(gap < 5'000'000, what);
    }
    if (r.cell.knob == InteractiveKnob::kNodelay) {
      std::snprintf(what, sizeof(what), "%s: no ACK-wait blame at all (delta %" PRId64 " ns)",
                    r.scenario, ack_wait_delta);
      Check(r.ack_wait_lo_ns == 0 && r.ack_wait_hi_ns == 0, what);
    }
  }

  if (!flags.csv_path.empty()) {
    if (!WriteTextFile(flags.csv_path, ToCsv(results, interactive))) {
      return 1;
    }
    std::printf("\nwrote %s\n", flags.csv_path.c_str());
  }
  if (!flags.out_path.empty()) {
    if (!WriteTextFile(flags.out_path, ToJson(results, interactive))) {
      return 1;
    }
    std::printf("wrote %s\n", flags.out_path.c_str());
  }
  return g_failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace tcplat

int main(int argc, char** argv) {
  tcplat::BenchFlags flags;
  flags.size = 200;
  flags.flows = 8;
  if (!tcplat::ParseBenchFlags(argc, argv, &flags,
                               "[--seed N] [--jobs N] [--quick] [--flows N] [--size N] "
                               "[--csv PATH] [--out PATH]")) {
    return 2;
  }
  return tcplat::Run(flags);
}
