// Congested-bottleneck cells: many bulk TCP flows funneled into one
// server's output fiber through the cell switch, with finite per-VC buffers
// and a selectable drop policy (tail / EPD / PPD) — the congestion-control
// era grafted onto the paper's testbed.
//
// Each cell fixes {congestion variant, drop policy, buffer size, flow
// count, link profile} and reports per-flow goodput, bottleneck efficiency
// (useful payload over cell-slots actually carried), and Jain's fairness
// index. The classic results this reproduces: tail drop poisons whole AAL
// frames with single-cell losses (low efficiency), EPD refuses frames it
// cannot complete (efficiency recovers), and SACK repairs multi-segment
// losses without timeout stalls that Reno cannot avoid.

#ifndef SRC_WORKLOAD_CONGESTION_H_
#define SRC_WORKLOAD_CONGESTION_H_

#include <string>
#include <vector>

#include "src/link/link_profile.h"
#include "src/tcp/congestion.h"
#include "src/workload/flow_driver.h"
#include "src/workload/star_testbed.h"

namespace tcplat {

// Rate of the switch output port feeding the server, bits/second. The trunk
// must be slower than the aggregate the clients can generate (and than what
// the server's protocol CPU can absorb) so the shared per-VC buffers at the
// switch — not host CPU or adapter FIFOs — take the overload.
inline constexpr double kCongestionTrunkBps = 6e6;

struct CongestionCell {
  CongestionVariant variant = CongestionVariant::kReno;
  DropPolicy policy = DropPolicy::kTailDrop;
  // Per-VC output buffer at the switch, in cells. Must be > 0: an infinite
  // buffer never congests and the cell would degenerate to the capacity
  // benchmark.
  size_t buffer_cells = 128;
  int flows = 8;  // one client host per flow, all into one server
  uint64_t bulk_bytes = 96 * 1024;  // payload each flow pushes
  LinkProfileKind profile = LinkProfileKind::kLocalFiber;
  // Socket buffers sized to keep many flows window-limited rather than
  // sender-starved; the MSS clamp keeps segments Ethernet-sized so one
  // segment spans several cells (what makes frame-level discard matter).
  size_t sndbuf = 32768;
  size_t rcvbuf = 32768;
  size_t mss_clamp = 1460;
  uint64_t seed = 1;
};

// Per-flow view for the tail-blame section: with one client host per flow,
// the host's TCP counters are exactly the flow's.
struct CongestionFlowStats {
  double goodput_bps = 0.0;
  int64_t elapsed_ns = 0;  // bulk start to completion token, -1 if aborted
  uint64_t retransmits = 0;
  uint64_t rexmt_timeouts = 0;
  uint64_t fast_retransmits = 0;
  uint64_t rexmt_stall_ns = 0;  // simulated dead air waiting on fired RTOs
};

struct CongestionOutcome {
  std::vector<double> goodput_bps;  // per flow, bulk_bytes over its transfer time
  std::vector<CongestionFlowStats> flow_stats;  // index = flow = client host
  double aggregate_goodput_mbps = 0.0;  // total payload over the busy interval
  // Useful payload delivered over the payload capacity of every cell the
  // bottleneck VCs actually carried (44 payload bytes per AAL3/4 cell).
  // Retransmitted segments and poisoned frames burn slots without adding
  // payload, so wasteful drop policies push this down.
  double efficiency = 0.0;
  double fairness = 1.0;  // Jain's index over per-flow goodput
  uint64_t completed = 0;
  uint64_t aborted = 0;
  // Summed over every stack after the run.
  uint64_t retransmits = 0;
  uint64_t rexmt_timeouts = 0;
  uint64_t fast_retransmits = 0;
  uint64_t fast_recovery_episodes = 0;
  uint64_t newreno_partial_acks = 0;
  uint64_t sack_blocks_received = 0;
  uint64_t sack_retransmits = 0;
  // Switch-side accounting, bottleneck VCs only (client -> server).
  uint64_t cells_forwarded = 0;
  uint64_t cells_dropped_tail = 0;
  uint64_t cells_dropped_epd = 0;
  uint64_t cells_dropped_ppd = 0;
  uint64_t frames_discarded = 0;
  int64_t occupancy_hiwat = 0;  // max over the bottleneck VCs
  SimDuration sim_elapsed;
  uint64_t sim_events = 0;
};

// Flow specs for the cell: one bulk flow per client, all toward server 0,
// each carrying the cell's congestion variant as a per-flow socket option.
std::vector<FlowSpec> BuildCongestionFlows(const CongestionCell& cell);

// Builds a fresh star (cell.flows clients, 1 server) with the cell's VC
// buffer policy and link profile, runs every bulk flow to completion and
// reduces goodput/efficiency/fairness. The tracer overload attaches
// `tracer` to every host and the switch first.
CongestionOutcome RunCongestionCell(const CongestionCell& cell);
CongestionOutcome RunCongestionCell(const CongestionCell& cell, Tracer* tracer);

// Table formatting (simulated quantities only — byte-identical across
// TCPLAT_JOBS at a fixed seed).
std::vector<std::string> CongestionHeader();
std::vector<std::string> CongestionRow(const CongestionCell& cell,
                                       const CongestionOutcome& out);

}  // namespace tcplat

#endif  // SRC_WORKLOAD_CONGESTION_H_
