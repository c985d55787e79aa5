// Contract of the time-series telemetry plane (src/trace/timeseries.h and
// its producers): timelines are a pure function of the seed — byte-identical
// across repeat runs — edge samples land exactly on the discontinuities they
// mark (summing kTcpRtoFire edges reconstructs rexmt_stall_ns to the
// nanosecond, and loss-enter/exit pairs carry the exact peak and deflated
// window), and the default-period plane stays under its point budget.
// bench/congestion --timeline-csv exercises the same paths at full scale;
// these tests pin the invariants on cells small enough for the tier-1
// suite.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/trace/timeseries.h"
#include "src/trace/tracer.h"
#include "src/workload/capacity.h"
#include "src/workload/congestion.h"

namespace tcplat {
namespace {

// Congested enough (Reno + tail drop, small per-VC buffers) that the
// timeline contains real loss episodes and fired RTOs, small enough to
// keep the suite fast.
CongestionCell LossyCell() {
  CongestionCell cell;
  cell.flows = 4;
  cell.bulk_bytes = 48 * 1024;
  cell.buffer_cells = 128;
  cell.variant = CongestionVariant::kReno;
  cell.policy = DropPolicy::kTailDrop;
  return cell;
}

struct TimelineRun {
  CongestionOutcome outcome;
  std::vector<TimeseriesPoint> points;  // sorted on (ts, host)
  std::vector<std::string> host_names;
  std::string csv;
};

TimelineRun RunTimeline(const CongestionCell& cell) {
  Tracer tracer;
  tracer.EnableTimeseries(TimeseriesConfig{});
  TimelineRun run;
  run.outcome = RunCongestionCell(cell, &tracer);
  run.points = tracer.SortedTimeseriesPoints();
  run.host_names = tracer.host_names();
  run.csv = tracer.TimelineCsv();
  return run;
}

bool IsClientHost(const TimelineRun& run, uint8_t host) {
  return host < run.host_names.size() &&
         run.host_names[host].compare(0, 6, "client") == 0;
}

TEST(Timeseries, TimelineByteIdenticalAcrossRepeatsAndSeeds) {
  for (const uint64_t seed : {uint64_t{1}, uint64_t{7}}) {
    CongestionCell cell = LossyCell();
    cell.seed = seed;
    const std::string first = RunTimeline(cell).csv;
    ASSERT_FALSE(first.empty()) << "seed " << seed;
    EXPECT_EQ(first, RunTimeline(cell).csv) << "repeat run diverged, seed " << seed;
  }
}

// Summing the kTcpRtoFire edge values of one client host reconstructs that
// flow's rexmt_stall_ns exactly: the edge is emitted by the same callback
// that accumulates the stall, carrying the fired RTO's length.
TEST(Timeseries, RtoFireEdgesReconstructRexmtStallExactly) {
  const TimelineRun run = RunTimeline(LossyCell());
  ASSERT_GT(run.outcome.rexmt_timeouts, 0u)
      << "cell no longer fires RTOs; edge-exactness is vacuous";

  std::map<uint8_t, uint64_t> stall_by_host;
  for (const TimeseriesPoint& p : run.points) {
    if (p.edge && p.metric == static_cast<uint8_t>(TsMetric::kTcpRtoFire)) {
      EXPECT_GT(p.value, 0) << "RTO edge with non-positive dead-air length";
      stall_by_host[p.host] += static_cast<uint64_t>(p.value);
    }
  }

  uint64_t edge_total = 0;
  uint64_t expected_total = 0;
  for (const auto& [host, stall] : stall_by_host) {
    EXPECT_TRUE(IsClientHost(run, host))
        << "RTO edge on non-client host " << static_cast<int>(host);
    edge_total += stall;
  }
  for (const CongestionFlowStats& fs : run.outcome.flow_stats) {
    expected_total += fs.rexmt_stall_ns;
  }
  EXPECT_EQ(edge_total, expected_total);
}

// Loss-enter edges carry the exact cwnd peak the window fell from; the
// matching loss-exit edge (same host, next in time) carries the deflated
// post-recovery window — ssthresh, i.e. half the effective window at the
// loss with one MSS of integer-division slack.
TEST(Timeseries, LossEdgePairsCarryExactPeakAndDeflatedWindow) {
  const CongestionCell cell = LossyCell();
  const TimelineRun run = RunTimeline(cell);
  const auto mss = static_cast<int64_t>(cell.mss_clamp);

  int pairs = 0;
  for (size_t i = 0; i < run.points.size(); ++i) {
    const TimeseriesPoint& p = run.points[i];
    if (!p.edge || p.metric != static_cast<uint8_t>(TsMetric::kTcpLossEnter)) {
      continue;
    }
    EXPECT_TRUE(IsClientHost(run, p.host));
    for (size_t j = i + 1; j < run.points.size(); ++j) {
      const TimeseriesPoint& q = run.points[j];
      if (q.host != p.host || q.key != p.key || !q.edge) {
        continue;
      }
      if (q.metric == static_cast<uint8_t>(TsMetric::kTcpLossEnter)) {
        break;  // recovery ended via RTO, no exit edge for this episode
      }
      if (q.metric == static_cast<uint8_t>(TsMetric::kTcpLossExit)) {
        EXPECT_LT(q.value, p.value) << "exit valley not below entry peak";
        EXPECT_LE(2 * q.value, p.value + 2 * mss)
            << "exit valley above half the entry peak";
        ++pairs;
        break;
      }
    }
  }
  EXPECT_GT(pairs, 0) << "no loss enter/exit pairs in a lossy cell";
}

// The default-period plane stays frugal: on the 8-flow echo cell (4x2
// hosts, 200 B, 200 round trips per flow) it records 433.0 points per
// flow, and may grow to 1.10x that before this fails.
TEST(Timeseries, DefaultPeriodPointsPerFlowStayUnderBudget) {
  CapacityCell cell;
  cell.flows = 8;
  cell.size = 200;
  cell.iterations = 200;
  cell.warmup = 8;
  cell.seed = 1;
  Tracer tracer;
  tracer.EnableTimeseries(TimeseriesConfig{});
  RunCapacityCell(cell, &tracer);
  const double points_per_flow =
      static_cast<double>(tracer.timeseries()->points().size()) / cell.flows;
  EXPECT_GT(points_per_flow, 0.0);
  EXPECT_LE(points_per_flow, 476.3);
}

}  // namespace
}  // namespace tcplat
