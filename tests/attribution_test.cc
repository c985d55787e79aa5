// Critical-path attribution contract tests.
//
//  * A traced 1x1 star run decomposes every round trip into stages that
//    telescope exactly to the RTT, and the percentile picks match
//    LatencyStats.
//  * An impaired run's trace holds exactly one impair.drop event per
//    injected drop, and its CSV and blame reports are byte-identical serial
//    vs 4 workers.
//  * LatencyStats::Percentiles()/PercentileGap() match a hand-computed
//    distribution.

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "src/exec/executor.h"
#include "src/fault/impairment.h"
#include "src/trace/attribution.h"
#include "src/trace/causal_graph.h"
#include "src/trace/latency_stats.h"
#include "src/trace/tracer.h"
#include "src/workload/capacity.h"
#include "src/workload/flow_driver.h"
#include "src/workload/generator.h"
#include "src/workload/interactive.h"
#include "src/workload/star_testbed.h"

namespace tcplat {
namespace {

CapacityCell OneFlowCell(size_t size) {
  CapacityCell cell;
  cell.clients = 1;
  cell.servers = 1;
  cell.flows = 1;
  cell.size = size;
  cell.iterations = 40;
  cell.warmup = 8;
  cell.seed = 1;
  return cell;
}

// One closed-loop flow on the 1x1 star: the causal graph must anchor every
// measured round trip, every window's stages must telescope exactly to its
// RTT, and the blame report's percentile picks must equal what LatencyStats
// computed over the same samples (CapacityOutcome's p50/p99).
TEST(Attribution, OneFlowStagesTelescopeAndMatchLatencyStats) {
  for (size_t size : {size_t{200}, size_t{1400}}) {
    const CapacityCell cell = OneFlowCell(size);
    Tracer tracer;
    const CapacityOutcome outcome = RunCapacityCell(cell, &tracer);
    ASSERT_EQ(outcome.samples, 40u) << "size " << size;

    const CausalGraph graph = CausalGraph::Build(tracer);
    EXPECT_GT(graph.linked_count(), 0u);

    AttributionOptions options;
    options.message_bytes = cell.size;
    options.warmup_windows = cell.warmup;
    const AttributionResult result = AttributeRtts(tracer, graph, options);
    ASSERT_EQ(result.windows.size(), outcome.samples) << "size " << size;

    for (size_t i = 0; i < result.windows.size(); ++i) {
      const RttWindow& w = result.windows[i];
      int64_t sum = 0;
      for (int64_t stage : w.stage_ns) {
        sum += stage;
      }
      EXPECT_EQ(sum, w.rtt_ns()) << "window " << i << " does not telescope";
      EXPECT_EQ(w.stage_ns[static_cast<size_t>(BlameStage::kUnattributed)], 0)
          << "window " << i << " on a clean 1x1 run should anchor fully";
      EXPECT_GT(w.rtt_ns(), 0) << "window " << i;
    }

    // The driver quantizes both RTT endpoints to the 40 ns paper clock and
    // reads t1 only after the PRU_RCVD window update, which runs after the
    // traced kUserRead event — so the trace-derived RTT may sit within one
    // clock tick of the driver's sample, never more.
    const BlameReport blame = BuildBlame(result.windows, 50.0, 99.0);
    EXPECT_LE(std::abs(blame.lo_rtt_ns - outcome.p50.nanos()), 40) << "size " << size;
    EXPECT_LE(std::abs(blame.hi_rtt_ns - outcome.p99.nanos()), 40) << "size " << size;
    EXPECT_EQ(blame.explained_pct, 100.0);
  }
}

// --- Impaired runs -------------------------------------------------------

struct ImpairedRunArtifacts {
  uint64_t impair_drop_events = 0;
  uint64_t drops_injected = 0;
  std::string csv;
};

ImpairedRunArtifacts RunImpaired() {
  StarTestbedConfig star_cfg;
  star_cfg.clients = 2;
  star_cfg.servers = 1;
  StarTestbed star(star_cfg);

  Tracer tracer;
  star.AttachTracer(&tracer);
  const uint8_t link_id = tracer.RegisterHost("switch-link");

  ImpairmentConfig imp;
  imp.drop_prob = 2e-3;
  imp.seed = 11;
  ImpairmentPolicy policy(imp);
  policy.AttachTracer(&tracer, link_id);
  star.atm_switch()->set_output_impairment(&policy);

  ClosedLoopConfig cfg;
  cfg.flows = 4;
  cfg.clients = 2;
  cfg.servers = 1;
  cfg.size = 512;
  cfg.iterations = 8;
  cfg.warmup = 1;
  std::vector<FlowSpec> specs = BuildClosedLoop(cfg);
  for (FlowSpec& s : specs) {
    s.tolerate_errors = true;
  }
  RunWorkload(star, specs);
  star.atm_switch()->set_output_impairment(nullptr);

  ImpairedRunArtifacts out;
  out.impair_drop_events = static_cast<uint64_t>(
      std::count_if(tracer.events().begin(), tracer.events().end(), [](const TraceEvent& ev) {
        return ev.kind == TraceEventKind::kImpairDrop;
      }));
  out.drops_injected = policy.stats().dropped;
  out.csv = tracer.ToCsv();
  return out;
}

// The trace must carry exactly one impair.drop event per drop the policy
// injected — no misses, no double counting.
TEST(ImpairedTrace, OneImpairDropEventPerInjectedDrop) {
  const ImpairedRunArtifacts run = RunImpaired();
  ASSERT_GT(run.drops_injected, 0u) << "impairment config injected nothing; test is vacuous";
  EXPECT_EQ(run.impair_drop_events, run.drops_injected);
}

// The impaired trace is pure simulated-time state: running the same
// scenario under a serial and a 4-worker executor must give byte-identical
// CSV.
TEST(ImpairedTrace, CsvByteIdenticalSerialVsParallel) {
  auto run_on = [](Executor& exec) {
    std::vector<std::function<std::string()>> thunks;
    for (int i = 0; i < 3; ++i) {
      thunks.emplace_back([] { return RunImpaired().csv; });
    }
    std::vector<std::string> out;
    for (auto& outcome : exec.Run<std::string>(thunks)) {
      EXPECT_TRUE(outcome.ok()) << outcome.error;
      out.push_back(outcome.ok() ? *outcome.value : outcome.error);
    }
    return out;
  };
  Executor serial(1);
  Executor parallel(4);
  const std::vector<std::string> a = run_on(serial);
  const std::vector<std::string> b = run_on(parallel);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_FALSE(a[i].empty());
    EXPECT_EQ(a[i], b[i]) << "impaired trace " << i << " diverged between 1 and 4 workers";
  }
}

// --- Blame determinism ----------------------------------------------------

std::string BlameFingerprint(const CapacityCell& cell) {
  Tracer tracer;
  RunCapacityCell(cell, &tracer);
  const CausalGraph graph = CausalGraph::Build(tracer);
  AttributionOptions options;
  options.message_bytes = cell.size;
  options.warmup_windows = cell.warmup;
  const AttributionResult result = AttributeRtts(tracer, graph, options);
  const BlameReport blame = BuildBlame(result.windows, 50.0, 99.0);

  char buf[64];
  std::string out;
  std::snprintf(buf, sizeof(buf), "windows=%zu lo=%" PRId64 " hi=%" PRId64 "\n",
                result.windows.size(), blame.lo_rtt_ns, blame.hi_rtt_ns);
  out += buf;
  for (size_t s = 0; s < kBlameStageCount; ++s) {
    std::snprintf(buf, sizeof(buf), "%" PRId64 ",%" PRId64 "\n", blame.lo_stage_ns[s],
                  blame.hi_stage_ns[s]);
    out += buf;
  }
  for (const RttWindow& w : result.windows) {
    std::snprintf(buf, sizeof(buf), "%" PRIu64 ":%" PRId64 "-%" PRId64 "\n", w.flow, w.start_ns,
                  w.end_ns);
    out += buf;
  }
  return out + tracer.ToCsv();
}

// The full blame report for the 8-flow cell — window boundaries and the
// trace CSV, every field of every event, included — must be byte-identical
// between serial and 4-worker execution.
TEST(BlameDeterminism, ReportsByteIdenticalSerialVsParallel) {
  std::vector<CapacityCell> cells;
  for (bool hp : {true, false}) {
    CapacityCell cell;
    cell.clients = 4;
    cell.servers = 2;
    cell.flows = 8;
    cell.size = 200;
    cell.iterations = 12;
    cell.warmup = 4;
    cell.seed = 1;
    cell.header_prediction = hp;
    cells.push_back(cell);
  }
  auto run_on = [&](Executor& exec) {
    std::vector<std::function<std::string()>> thunks;
    for (const CapacityCell& cell : cells) {
      thunks.emplace_back([cell] { return BlameFingerprint(cell); });
    }
    std::vector<std::string> out;
    for (auto& outcome : exec.Run<std::string>(thunks)) {
      EXPECT_TRUE(outcome.ok()) << outcome.error;
      out.push_back(outcome.ok() ? *outcome.value : outcome.error);
    }
    return out;
  };
  Executor serial(1);
  Executor parallel(4);
  const std::vector<std::string> a = run_on(serial);
  const std::vector<std::string> b = run_on(parallel);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "blame report " << i << " diverged between 1 and 4 workers";
  }
}

// Multi-flow: every measured sample must still be attributed, and every
// window must telescope even when flows share hosts and interleave.
TEST(Attribution, EightFlowWindowsAllTelescope) {
  CapacityCell cell;
  cell.clients = 4;
  cell.servers = 2;
  cell.flows = 8;
  cell.size = 200;
  cell.iterations = 12;
  cell.warmup = 4;
  cell.seed = 1;
  Tracer tracer;
  const CapacityOutcome outcome = RunCapacityCell(cell, &tracer);
  const CausalGraph graph = CausalGraph::Build(tracer);
  AttributionOptions options;
  options.message_bytes = cell.size;
  options.warmup_windows = cell.warmup;
  const AttributionResult result = AttributeRtts(tracer, graph, options);
  EXPECT_EQ(result.windows.size(), outcome.samples);
  for (const RttWindow& w : result.windows) {
    int64_t sum = 0;
    for (int64_t stage : w.stage_ns) {
      sum += stage;
    }
    EXPECT_EQ(sum, w.rtt_ns());
  }
  const BlameReport blame = BuildBlame(result.windows, 50.0, 99.0);
  EXPECT_GE(blame.explained_pct, 95.0);
}

// --- interactive Nagle × delayed-ACK blame --------------------------------

int64_t AckWaitNanos(const RttWindow& w) {
  return w.stage_ns[static_cast<size_t>(BlameStage::kCliAckWait)] +
         w.stage_ns[static_cast<size_t>(BlameStage::kSrvAckWait)];
}

AttributionResult AttributeInteractive(const InteractiveCell& cell, Tracer& tracer) {
  const CausalGraph graph = CausalGraph::Build(tracer);
  AttributionOptions options;
  options.message_bytes = 200;  // two 100-byte chunks up, 200 bytes back
  options.warmup_windows = cell.warmup;
  return AttributeRtts(tracer, graph, options);
}

// The pathological cell's round trips are the delayed-ACK timer: the
// sender-side ACK-wait stage (anchored by the kNagleHold event) must own
// at least 80% of every window — in particular the p99 one — and the
// windows must still telescope exactly.
TEST(InteractiveBlame, DelackCellBlamesAckWaitAtTheSender) {
  InteractiveCell cell;
  cell.iterations = 16;
  cell.warmup = 2;
  Tracer tracer;
  const InteractiveOutcome outcome = RunInteractiveCell(cell, &tracer);
  ASSERT_EQ(outcome.samples, 16u);
  const AttributionResult result = AttributeInteractive(cell, tracer);
  ASSERT_EQ(result.windows.size(), 16u);

  const RttWindow* p99 = &result.windows[0];
  for (const RttWindow& w : result.windows) {
    int64_t sum = 0;
    for (int64_t stage : w.stage_ns) {
      sum += stage;
    }
    EXPECT_EQ(sum, w.rtt_ns()) << "window does not telescope";
    EXPECT_GE(AckWaitNanos(w), static_cast<int64_t>(0.8 * static_cast<double>(w.rtt_ns())));
    if (w.rtt_ns() > p99->rtt_ns()) {
      p99 = &w;
    }
  }
  EXPECT_GE(p99->rtt_ns(), 200 * 1'000'000);
  EXPECT_GE(AckWaitNanos(*p99),
            static_cast<int64_t>(0.8 * static_cast<double>(p99->rtt_ns())));
}

// Under TCP_NODELAY no segment is ever held, no kNagleHold event exists,
// and the ACK-wait stages collapse to exactly zero in every window: the
// blame mode vanishes along with the latency mode.
TEST(InteractiveBlame, NodelayCellHasNoAckWaitBlame) {
  InteractiveCell cell;
  cell.knob = InteractiveKnob::kNodelay;
  cell.iterations = 16;
  cell.warmup = 2;
  Tracer tracer;
  const InteractiveOutcome outcome = RunInteractiveCell(cell, &tracer);
  ASSERT_EQ(outcome.samples, 16u);
  const AttributionResult result = AttributeInteractive(cell, tracer);
  ASSERT_EQ(result.windows.size(), 16u);
  for (const RttWindow& w : result.windows) {
    int64_t sum = 0;
    for (int64_t stage : w.stage_ns) {
      sum += stage;
    }
    EXPECT_EQ(sum, w.rtt_ns());
    EXPECT_EQ(AckWaitNanos(w), 0);
    EXPECT_LT(w.rtt_ns(), 5 * 1'000'000);
  }
}

// --- LatencyStats percentile helpers -------------------------------------

TEST(LatencyStats, SummaryAndGapMatchHandComputedDistribution) {
  // 100 samples: 1000, 2000, ..., 100000 ns. Nearest rank (ceil(p/100*n)):
  // p50 -> rank 50 -> 50000; p90 -> 90000; p99 -> 99000; p99.9 -> 100000.
  LatencyStats stats;
  for (int i = 100; i >= 1; --i) {  // insertion order must not matter
    stats.Add(SimDuration::FromNanos(i * 1000));
  }
  const LatencyStats::Summary summary = stats.Percentiles();
  EXPECT_EQ(summary.p50.nanos(), 50000);
  EXPECT_EQ(summary.p90.nanos(), 90000);
  EXPECT_EQ(summary.p99.nanos(), 99000);
  EXPECT_EQ(summary.p999.nanos(), 100000);
  EXPECT_EQ(summary.p50.nanos(), stats.Percentile(50).nanos());
  EXPECT_EQ(summary.p999.nanos(), stats.Percentile(99.9).nanos());

  EXPECT_EQ(stats.PercentileGap(50, 99).nanos(), 49000);
  EXPECT_EQ(stats.PercentileGap(99, 99).nanos(), 0);
  EXPECT_EQ(stats.PercentileGap(0, 100).nanos(),
            stats.Max().nanos() - stats.Min().nanos());
}

TEST(LatencyStats, SummaryOnTinySets) {
  LatencyStats one;
  one.Add(SimDuration::FromNanos(42));
  const LatencyStats::Summary summary = one.Percentiles();
  EXPECT_EQ(summary.p50.nanos(), 42);
  EXPECT_EQ(summary.p999.nanos(), 42);
  EXPECT_EQ(one.PercentileGap(50, 99.9).nanos(), 0);

  LatencyStats empty;
  EXPECT_EQ(empty.Percentiles().p99.nanos(), 0);
  EXPECT_EQ(empty.PercentileGap(50, 99).nanos(), 0);
}

}  // namespace
}  // namespace tcplat
