// Congested-bottleneck goodput grid: the congestion-control era measured on
// the paper's testbed. Many bulk flows funnel through one switch output
// trunk with finite per-VC buffers; the grid crosses {congestion variant x
// drop policy x buffer size} (plus a flow-count axis in full mode) and
// reports per-flow goodput, bottleneck efficiency (useful payload over
// cell-slots carried), and Jain's fairness.
//
// The orderings this reproduces, asserted as exit-code checks:
//   * SACK + EPD beats Reno + tail drop on both goodput and efficiency at
//     every common buffer size — frame-level discard stops single-cell
//     losses from poisoning whole AAL frames, and the scoreboard repairs
//     multi-segment losses without timeout stalls.
//   * The gap shrinks as buffers grow: with enough buffer nothing drops and
//     every variant converges on the trunk rate.
//   * The tail-blame section attributes the slow flows' completion deficit
//     (p99 vs p50 flow) to retransmission-timeout dead air (rexmt_stall_ns),
//     pinning the losers' gap on the timeout stage rather than leaving it
//     as one opaque number.
//
// Every printed quantity is simulated, so output is byte-identical across
// TCPLAT_JOBS settings and repeated runs at a fixed --seed; the golden
// manifest (tests/golden/) pins the quick grid's stdout, --csv per-flow
// table and --timeline-csv timeline exactly.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_flags.h"
#include "src/atm/atm_switch.h"
#include "src/core/table.h"
#include "src/exec/executor.h"
#include "src/trace/timeseries.h"
#include "src/trace/tracer.h"
#include "src/workload/congestion.h"

namespace tcplat {
namespace {

int g_failures = 0;

void Check(bool ok, const char* what) {
  std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what);
  if (!ok) {
    ++g_failures;
  }
}

struct CellResult {
  CongestionCell cell;
  CongestionOutcome outcome;
  // Tail blame over per-flow completion times: the p50 (median) flow vs the
  // p99 (slowest) flow, and how much of the deficit the slow flow spent
  // parked on fired retransmission timers.
  int64_t p50_elapsed_ns = 0;
  int64_t p99_elapsed_ns = 0;
  int64_t stall_delta_ns = 0;  // slow flow's RTO dead air minus median's
  int64_t rexmt_delta_ns = 0;  // extra retransmit serialization at the trunk
  double blame_share = 0.0;    // (stall + rexmt deltas) / (p99 - p50), in [0,1]
};

// Trunk time to carry one retransmitted segment: MSS payload + 40 bytes of
// TCP/IP header, AAL3/4-framed (8 bytes CPCS overhead, 44 payload bytes per
// 53-byte cell) at the trunk rate. A retransmission the median flow did not
// need costs the loser this much extra wire time.
int64_t SegmentTrunkNs(const CongestionCell& cell) {
  const uint64_t cpcs_bytes = cell.mss_clamp + 40 + 8;
  const uint64_t cells = (cpcs_bytes + 43) / 44;
  return static_cast<int64_t>(static_cast<double>(cells * 53 * 8) * 1e9 / kCongestionTrunkBps);
}

CellResult RunCell(const CongestionCell& cell) {
  CellResult r;
  r.cell = cell;
  r.outcome = RunCongestionCell(cell);

  // Order flows by completion time (aborted flows sort last via INT64_MAX).
  std::vector<size_t> order(r.outcome.flow_stats.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  auto elapsed = [&](size_t f) {
    const int64_t e = r.outcome.flow_stats[f].elapsed_ns;
    return e < 0 ? INT64_MAX : e;
  };
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return elapsed(a) < elapsed(b); });
  if (!order.empty()) {
    const size_t med = order[order.size() / 2];
    const size_t slow = order.back();
    r.p50_elapsed_ns = elapsed(med);
    r.p99_elapsed_ns = elapsed(slow);
    const int64_t gap = r.p99_elapsed_ns - r.p50_elapsed_ns;
    r.stall_delta_ns = static_cast<int64_t>(r.outcome.flow_stats[slow].rexmt_stall_ns) -
                       static_cast<int64_t>(r.outcome.flow_stats[med].rexmt_stall_ns);
    r.rexmt_delta_ns =
        (static_cast<int64_t>(r.outcome.flow_stats[slow].retransmits) -
         static_cast<int64_t>(r.outcome.flow_stats[med].retransmits)) *
        SegmentTrunkNs(cell);
    if (gap > 0) {
      r.blame_share = std::clamp(
          static_cast<double>(std::max<int64_t>(r.stall_delta_ns, 0) +
                              std::max<int64_t>(r.rexmt_delta_ns, 0)) /
              static_cast<double>(gap),
          0.0, 1.0);
    }
  }
  return r;
}

const CellResult* Find(const std::vector<CellResult>& results, CongestionVariant v,
                       DropPolicy p, size_t buf, int flows) {
  for (const CellResult& r : results) {
    if (r.cell.variant == v && r.cell.policy == p && r.cell.buffer_cells == buf &&
        r.cell.flows == flows) {
      return &r;
    }
  }
  return nullptr;
}

void PrintGrid(const std::vector<CellResult>& results) {
  TextTable table(CongestionHeader());
  for (const CellResult& r : results) {
    table.AddRow(CongestionRow(r.cell, r.outcome));
  }
  table.Print();
}

void PrintTailBlame(const std::vector<CellResult>& results) {
  std::printf("\nTail blame (per-flow completion, p99 = slowest flow vs p50 = median):\n");
  TextTable table({"variant", "policy", "buf", "p50 done", "p99 done", "gap",
                   "RTO stall", "rexmt tx", "share"});
  for (const CellResult& r : results) {
    const int64_t gap = r.p99_elapsed_ns - r.p50_elapsed_ns;
    table.AddRow({CongestionVariantName(r.cell.variant), DropPolicyName(r.cell.policy),
                  std::to_string(r.cell.buffer_cells),
                  TextTable::Num(static_cast<double>(r.p50_elapsed_ns) / 1e6, 1) + " ms",
                  TextTable::Num(static_cast<double>(r.p99_elapsed_ns) / 1e6, 1) + " ms",
                  TextTable::Num(static_cast<double>(gap) / 1e6, 1) + " ms",
                  TextTable::Num(static_cast<double>(r.stall_delta_ns) / 1e6, 1) + " ms",
                  TextTable::Num(static_cast<double>(r.rexmt_delta_ns) / 1e6, 1) + " ms",
                  TextTable::Num(100.0 * r.blame_share, 1) + "%"});
  }
  table.Print();
}

void AppendFlowCsv(std::string* out, const CellResult& r) {
  char buf[256];
  for (size_t f = 0; f < r.outcome.flow_stats.size(); ++f) {
    const CongestionFlowStats& fs = r.outcome.flow_stats[f];
    std::snprintf(buf, sizeof(buf),
                  "%s,%s,%zu,%d,%zu,%.0f,%" PRId64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64
                  ",%" PRIu64 "\n",
                  CongestionVariantName(r.cell.variant), DropPolicyName(r.cell.policy),
                  r.cell.buffer_cells, r.cell.flows, f, fs.goodput_bps, fs.elapsed_ns,
                  fs.retransmits, fs.rexmt_timeouts, fs.fast_retransmits, fs.rexmt_stall_ns);
    *out += buf;
  }
}

std::string ToCsv(const std::vector<CellResult>& results) {
  std::string out =
      "variant,policy,buffer_cells,flows,flow,goodput_bps,elapsed_ns,"
      "retransmits,rexmt_timeouts,fast_retransmits,rexmt_stall_ns\n";
  for (const CellResult& r : results) {
    AppendFlowCsv(&out, r);
  }
  return out;
}

// ---- Dynamics timelines -----------------------------------------------------
//
// Two extra loss-heavy cells run with the timeseries telemetry plane
// attached (src/trace/timeseries.h); the resulting cwnd / queue-occupancy
// timelines must show the congestion era's signatures, not just the right
// end-of-run aggregates:
//   * Reno + tail drop: >=3 cwnd sawteeth, each pinned exactly by the
//     loss-enter edge and its (peak, valley) cwnd edge pair.
//   * Tail-drop occupancy rides the buffer ceiling; EPD occupancy plateaus
//     strictly below it (the threshold plus at most one max-size frame).
//   * RTO dead air: summing the kTcpRtoFire edges reproduces the clients'
//     rexmt_stall_ns within 5%, and cwnd is flat inside every fired window.

struct TimelineResult {
  CongestionCell cell;
  CongestionOutcome outcome;
  std::vector<TimeseriesPoint> points;  // sorted on (ts, host)
  std::vector<std::string> host_names;
  std::string csv;
};

TimelineResult RunTimelineCell(const CongestionCell& cell) {
  TimelineResult r;
  r.cell = cell;
  Tracer tracer;
  tracer.EnableTimeseries(TimeseriesConfig{});
  r.outcome = RunCongestionCell(cell, &tracer);
  r.points = tracer.SortedTimeseriesPoints();
  r.host_names = tracer.host_names();
  r.csv = tracer.TimelineCsv();
  return r;
}

bool IsClientHost(const TimelineResult& r, uint8_t host) {
  return host < r.host_names.size() &&
         r.host_names[host].compare(0, 6, "client") == 0;
}

// Counts exact sawtooth corners. A loss-enter edge carries the peak cwnd the
// window fell from; the matching loss-exit edge (same flow, next in time)
// carries the deflated post-recovery window — ssthresh, i.e. half the
// effective window at the loss (4.3BSD's max(2*mss, min(snd_wnd, cwnd)/2)).
// A corner counts as a halving when the exit valley really is at most half
// the entry peak (one MSS of integer-division slack), strictly below it.
int CountHalvings(const TimelineResult& r) {
  const auto mss = static_cast<int64_t>(r.cell.mss_clamp);
  int halvings = 0;
  for (size_t i = 0; i < r.points.size(); ++i) {
    const TimeseriesPoint& p = r.points[i];
    if (p.metric != static_cast<uint8_t>(TsMetric::kTcpLossEnter) || !p.edge) {
      continue;
    }
    const int64_t peak = p.value;
    for (size_t j = i + 1; j < r.points.size(); ++j) {
      const TimeseriesPoint& q = r.points[j];
      if (q.host != p.host || q.key != p.key || !q.edge) {
        continue;
      }
      if (q.metric == static_cast<uint8_t>(TsMetric::kTcpLossEnter)) {
        break;  // next episode began without a traced exit
      }
      if (q.metric == static_cast<uint8_t>(TsMetric::kTcpLossExit)) {
        if (q.value < peak && 2 * q.value <= peak + 2 * mss) {
          ++halvings;
        }
        break;
      }
    }
  }
  return halvings;
}

int64_t MaxOccupancy(const TimelineResult& r) {
  int64_t max_occ = 0;
  for (const TimeseriesPoint& p : r.points) {
    if (p.metric == static_cast<uint8_t>(TsMetric::kVcOccupancy) ||
        p.metric == static_cast<uint8_t>(TsMetric::kVcHiwat)) {
      max_occ = std::max(max_occ, p.value);
    }
  }
  return max_occ;
}

// Sum of fired-RTO dead air visible in the timeline (client hosts only, to
// match the per-flow stack counters), plus the flat-cwnd verification: no
// cwnd movement for the flow inside any fired window. The window opens when
// the retransmit timer was armed, but the arming ACK's own processing tail
// (wakeup + ACK bookkeeping CPU charges) lands a few microseconds past that
// instant, so a 1 ms boundary guard — against windows that are >=300 ms by
// construction — separates the arming event from genuine ACK-clock progress.
void DeadAirFromTimeline(const TimelineResult& r, int64_t* rto_sum_ns, bool* cwnd_flat) {
  constexpr int64_t kArmGuardNs = 1'000'000;
  *rto_sum_ns = 0;
  *cwnd_flat = true;
  for (const TimeseriesPoint& p : r.points) {
    if (p.metric != static_cast<uint8_t>(TsMetric::kTcpRtoFire) || !p.edge) {
      continue;
    }
    if (IsClientHost(r, p.host)) {
      *rto_sum_ns += p.value;
    }
    const int64_t window_start = p.ts_ns - p.value;
    for (const TimeseriesPoint& q : r.points) {
      if (q.ts_ns >= p.ts_ns) {
        break;  // points are ts-sorted
      }
      if (q.ts_ns > window_start + kArmGuardNs && q.host == p.host && q.key == p.key &&
          q.metric == static_cast<uint8_t>(TsMetric::kTcpCwnd)) {
        *cwnd_flat = false;
      }
    }
  }
}

// Runs the timeline cells and applies the era-signature checks. Writes the
// tail-drop cell's timeline CSV to --timeline-csv when given.
bool RunTimelineSection(const BenchFlags& flags) {
  CongestionCell tail_cell;
  tail_cell.variant = CongestionVariant::kReno;
  tail_cell.policy = DropPolicy::kTailDrop;
  tail_cell.buffer_cells = 128;  // congested enough that losses recur
  tail_cell.flows = flags.flows;
  tail_cell.seed = flags.seed;
  CongestionCell epd_cell = tail_cell;
  epd_cell.policy = DropPolicy::kEpd;

  std::vector<CongestionCell> cells = {tail_cell, epd_cell};
  const std::vector<TimelineResult> tl = ParallelMap<TimelineResult>(
      cells.size(), [&](size_t i) { return RunTimelineCell(cells[i]); });
  const TimelineResult& tail = tl[0];
  const TimelineResult& epd = tl[1];

  std::printf("\ntimeline checks (reno, buf=%zu, %d flows; %zu tail / %zu epd points):\n",
              tail_cell.buffer_cells, tail_cell.flows, tail.points.size(),
              epd.points.size());
  char what[220];

  const int halvings = CountHalvings(tail);
  std::snprintf(what, sizeof(what),
                "reno+tail cwnd shows >=3 exact halving sawteeth (%d loss-enter corners)",
                halvings);
  Check(halvings >= 3, what);

  const int64_t tail_max = MaxOccupancy(tail);
  const int64_t epd_max = MaxOccupancy(epd);
  const auto threshold = static_cast<int64_t>(EpdThreshold(epd_cell.buffer_cells));
  const auto frame_cells = static_cast<int64_t>(kFrameHeadroomCells);
  const bool rides = tail_max == static_cast<int64_t>(tail_cell.buffer_cells);
  const bool plateaus = epd_max < tail_max && epd_max <= threshold + frame_cells;
  std::snprintf(what, sizeof(what),
                "tail occupancy rides the %zu-cell ceiling (max %" PRId64
                "); epd plateaus at its threshold (max %" PRId64 " <= %" PRId64 "+%" PRId64
                ")",
                tail_cell.buffer_cells, tail_max, epd_max, threshold, frame_cells);
  Check(rides && plateaus, what);

  int64_t rto_sum_ns = 0;
  bool cwnd_flat = true;
  DeadAirFromTimeline(tail, &rto_sum_ns, &cwnd_flat);
  int64_t stall_ns = 0;
  for (const CongestionFlowStats& fs : tail.outcome.flow_stats) {
    stall_ns += static_cast<int64_t>(fs.rexmt_stall_ns);
  }
  const int64_t err = std::abs(rto_sum_ns - stall_ns);
  const bool within =
      stall_ns > 0 && err * 20 <= stall_ns;  // within 5% of rexmt_stall_ns
  std::snprintf(what, sizeof(what),
                "timeline RTO dead air matches rexmt_stall_ns within 5%% "
                "(%.2f ms vs %.2f ms) with flat cwnd inside every fired window",
                static_cast<double>(rto_sum_ns) / 1e6, static_cast<double>(stall_ns) / 1e6);
  Check(within && cwnd_flat, what);

  const std::string& csv_path = flags.timeline_csv_path;
  if (!csv_path.empty()) {
    if (!WriteTextFile(csv_path, tail.csv)) {
      return false;
    }
    std::fprintf(stderr, "wrote %s\n", csv_path.c_str());
  }
  return true;
}

int Run(const BenchFlags& flags) {
  std::printf("Congested-bottleneck goodput grid (seed %llu, %s mode)\n"
              "%d bulk flows x 96 KiB into one 6 Mb/s trunk through the cell switch,\n"
              "finite per-VC buffers. All quantities simulated; byte-identical across\n"
              "TCPLAT_JOBS at a fixed --seed.\n\n",
              static_cast<unsigned long long>(flags.seed), flags.quick ? "quick" : "full",
              flags.flows);

  const std::vector<CongestionVariant> kVariants = {
      CongestionVariant::kLegacy, CongestionVariant::kReno, CongestionVariant::kNewReno,
      CongestionVariant::kSack};
  const std::vector<DropPolicy> kPolicies = {DropPolicy::kTailDrop, DropPolicy::kEpd,
                                             DropPolicy::kPpd};
  // buffers[0] is congested enough that drop policy dominates; buffers[2] is
  // nearly drop-free, where the variants must converge.
  const std::vector<size_t> kBuffers = {128, 256, 768};

  std::vector<CongestionCell> cells;
  auto add_cell = [&](CongestionVariant v, DropPolicy p, size_t buf, int flows) {
    for (const CongestionCell& c : cells) {
      if (c.variant == v && c.policy == p && c.buffer_cells == buf && c.flows == flows) {
        return;
      }
    }
    CongestionCell cell;
    cell.variant = v;
    cell.policy = p;
    cell.buffer_cells = buf;
    cell.flows = flows;
    cell.seed = flags.seed;
    cells.push_back(cell);
  };

  // Core cross (both modes): every variant x policy at the middle buffer,
  // plus the headline comparison pair swept across all buffer sizes. The
  // acceptance checks only reference these cells, so quick and full modes
  // gate identically.
  for (CongestionVariant v : kVariants) {
    for (DropPolicy p : kPolicies) {
      add_cell(v, p, 256, flags.flows);
    }
  }
  for (size_t buf : kBuffers) {
    add_cell(CongestionVariant::kReno, DropPolicy::kTailDrop, buf, flags.flows);
    add_cell(CongestionVariant::kSack, DropPolicy::kEpd, buf, flags.flows);
  }
  if (!flags.quick) {
    // Full cross at the outer buffer sizes, and a flow-count axis on the
    // headline pair.
    for (CongestionVariant v : kVariants) {
      for (DropPolicy p : kPolicies) {
        add_cell(v, p, 128, flags.flows);
        add_cell(v, p, 768, flags.flows);
      }
    }
    for (int flows : {4, 16}) {
      add_cell(CongestionVariant::kReno, DropPolicy::kTailDrop, 256, flows);
      add_cell(CongestionVariant::kSack, DropPolicy::kEpd, 256, flows);
    }
  }

  const std::vector<CellResult> results =
      ParallelMap<CellResult>(cells.size(), [&](size_t i) { return RunCell(cells[i]); });

  PrintGrid(results);
  PrintTailBlame(results);

  std::printf("\nchecks:\n");
  bool all_completed = true;
  char what[200];

  for (const CellResult& r : results) {
    if (r.outcome.aborted != 0 ||
        r.outcome.completed != static_cast<uint64_t>(r.cell.flows)) {
      all_completed = false;
    }
  }
  std::snprintf(what, sizeof(what), "every flow in every cell ran to completion");
  Check(all_completed, what);

  const CellResult* reno_tail_lo =
      Find(results, CongestionVariant::kReno, DropPolicy::kTailDrop, kBuffers.front(),
           flags.flows);
  const CellResult* sack_epd_lo = Find(results, CongestionVariant::kSack, DropPolicy::kEpd,
                                       kBuffers.front(), flags.flows);
  const CellResult* reno_tail_hi =
      Find(results, CongestionVariant::kReno, DropPolicy::kTailDrop, kBuffers.back(),
           flags.flows);
  const CellResult* sack_epd_hi = Find(results, CongestionVariant::kSack, DropPolicy::kEpd,
                                       kBuffers.back(), flags.flows);

  for (size_t buf : kBuffers) {
    const CellResult* rt =
        Find(results, CongestionVariant::kReno, DropPolicy::kTailDrop, buf, flags.flows);
    const CellResult* se =
        Find(results, CongestionVariant::kSack, DropPolicy::kEpd, buf, flags.flows);
    if (rt == nullptr || se == nullptr) {
      continue;
    }
    std::snprintf(what, sizeof(what),
                  "buf=%zu: sack+epd goodput beats reno+tail (%.2f > %.2f Mb/s)", buf,
                  se->outcome.aggregate_goodput_mbps, rt->outcome.aggregate_goodput_mbps);
    Check(se->outcome.aggregate_goodput_mbps > rt->outcome.aggregate_goodput_mbps, what);
    std::snprintf(what, sizeof(what),
                  "buf=%zu: sack+epd efficiency beats reno+tail (%.3f > %.3f)", buf,
                  se->outcome.efficiency, rt->outcome.efficiency);
    Check(se->outcome.efficiency > rt->outcome.efficiency, what);
  }

  if (reno_tail_lo != nullptr && sack_epd_lo != nullptr && reno_tail_hi != nullptr &&
      sack_epd_hi != nullptr) {
    const double gap_lo = sack_epd_lo->outcome.aggregate_goodput_mbps -
                          reno_tail_lo->outcome.aggregate_goodput_mbps;
    const double gap_hi = sack_epd_hi->outcome.aggregate_goodput_mbps -
                          reno_tail_hi->outcome.aggregate_goodput_mbps;
    std::snprintf(what, sizeof(what),
                  "goodput gap shrinks as buffers grow (%.2f Mb/s at %zu -> %.2f at %zu)",
                  gap_lo, kBuffers.front(), gap_hi, kBuffers.back());
    Check(gap_hi < gap_lo, what);
  } else {
    Check(false, "gap-shrink endpoints present");
  }

  // The protocol machinery must actually engage: SACK cells feed the
  // scoreboard and repair from it; NewReno cells take partial ACKs.
  uint64_t sack_rx = 0;
  uint64_t sack_rexmt = 0;
  uint64_t partial_acks = 0;
  for (const CellResult& r : results) {
    if (r.cell.variant == CongestionVariant::kSack) {
      sack_rx += r.outcome.sack_blocks_received;
      sack_rexmt += r.outcome.sack_retransmits;
    }
    if (r.cell.variant == CongestionVariant::kNewReno) {
      partial_acks += r.outcome.newreno_partial_acks;
    }
  }
  std::snprintf(what, sizeof(what),
                "SACK cells exercised the scoreboard (%" PRIu64 " blocks, %" PRIu64
                " scoreboard retransmits)",
                sack_rx, sack_rexmt);
  Check(sack_rx > 0 && sack_rexmt > 0, what);
  std::snprintf(what, sizeof(what), "NewReno cells repaired partial ACKs (%" PRIu64 ")",
                partial_acks);
  Check(partial_acks > 0, what);

  // Tail blame: Reno has no way to repair a multi-segment loss without the
  // retransmission timer, so its losers' completion deficit must be
  // substantially RTO dead air — and the attribution must pin at least one
  // timeout-ridden cell's tail mostly (>=50%) on the retransmit/timeout
  // stages rather than leaving the gap opaque.
  double reno_share_min = 1.0;
  bool reno_cell_seen = false;
  const CellResult* worst = nullptr;
  for (const CellResult& r : results) {
    if (r.cell.variant == CongestionVariant::kReno && r.cell.buffer_cells == 256 &&
        r.cell.flows == flags.flows && r.outcome.rexmt_timeouts > 0) {
      reno_cell_seen = true;
      reno_share_min = std::min(reno_share_min, r.blame_share);
    }
    if (r.outcome.rexmt_timeouts > 0 &&
        (worst == nullptr || r.blame_share > worst->blame_share)) {
      worst = &r;
    }
  }
  std::snprintf(what, sizeof(what),
                "tail blame: every timeout-ridden reno cell at buf=256 charges >=40%% of "
                "the p99-p50 deficit to RTO stalls (min %.1f%%)",
                reno_cell_seen ? 100.0 * reno_share_min : 0.0);
  Check(reno_cell_seen && reno_share_min >= 0.4, what);
  if (worst != nullptr) {
    std::snprintf(what, sizeof(what),
                  "tail blame: %s/%s buf=%zu pins >=50%% of its deficit on "
                  "retransmit/timeout stages (%.1f%%)",
                  CongestionVariantName(worst->cell.variant),
                  DropPolicyName(worst->cell.policy), worst->cell.buffer_cells,
                  100.0 * worst->blame_share);
    Check(worst->blame_share >= 0.5, what);
  } else {
    Check(false, "at least one cell saw a retransmission timeout");
  }

  if (!RunTimelineSection(flags)) {
    return 1;
  }

  if (!flags.csv_path.empty()) {
    if (!WriteTextFile(flags.csv_path, ToCsv(results))) {
      return 1;
    }
    // stderr, so stdout stays byte-identical whatever path was asked for.
    std::fprintf(stderr, "wrote %s\n", flags.csv_path.c_str());
  }
  return g_failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace tcplat

int main(int argc, char** argv) {
  tcplat::BenchFlags flags;
  flags.flows = 8;
  if (!tcplat::ParseBenchFlags(argc, argv, &flags,
                               "[--seed N] [--jobs N] [--quick] [--flows N] [--csv PATH] "
                               "[--timeline-csv PATH]")) {
    return 2;
  }
  return tcplat::Run(flags);
}
