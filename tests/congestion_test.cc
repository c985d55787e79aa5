// Structural contract of the congested-bottleneck cells (src/workload/
// congestion.h): every flow completes, the reduced aggregates stay inside
// their physical bounds, small per-VC buffers actually drop and force
// retransmissions, EPD discards whole AAL frames rather than poisoning
// them cell-by-cell, SACK flows negotiate the option and repair from the
// scoreboard, and every cell is byte-identical across repeated runs at a
// fixed seed. The *comparative* results
// (SACK+EPD beating Reno+tail drop, the gap shrinking with buffer size)
// live in bench/congestion where the full grid runs; these tests pin the
// invariants each grid cell relies on.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/workload/congestion.h"

namespace tcplat {
namespace {

// Small enough to keep the suite fast, congested enough that the 6 Mb/s
// trunk — not the hosts — is the bottleneck.
CongestionCell QuickCell() {
  CongestionCell cell;
  cell.flows = 4;
  cell.bulk_bytes = 48 * 1024;
  cell.buffer_cells = 256;
  return cell;
}

TEST(CongestionCell, AllFlowsCompleteWithSaneAggregates) {
  CongestionCell cell = QuickCell();
  cell.variant = CongestionVariant::kReno;
  cell.policy = DropPolicy::kTailDrop;
  const CongestionOutcome out = RunCongestionCell(cell);
  EXPECT_EQ(out.completed, static_cast<uint64_t>(cell.flows));
  EXPECT_EQ(out.aborted, 0u);
  ASSERT_EQ(out.goodput_bps.size(), static_cast<size_t>(cell.flows));
  for (int f = 0; f < cell.flows; ++f) {
    EXPECT_GT(out.goodput_bps[static_cast<size_t>(f)], 0.0) << "flow " << f;
    EXPECT_GE(out.flow_stats[static_cast<size_t>(f)].elapsed_ns, 0) << "flow " << f;
  }
  // The aggregate cannot exceed the trunk feeding the server.
  EXPECT_GT(out.aggregate_goodput_mbps, 0.0);
  EXPECT_LT(out.aggregate_goodput_mbps * 1e6, kCongestionTrunkBps);
  EXPECT_GT(out.efficiency, 0.0);
  EXPECT_LE(out.efficiency, 1.0);
  EXPECT_GT(out.fairness, 0.0);
  EXPECT_LE(out.fairness, 1.0 + 1e-9);
  EXPECT_GT(out.cells_forwarded, 0u);
}

TEST(CongestionCell, SmallBuffersDropCellsAndForceRetransmits) {
  CongestionCell cell = QuickCell();
  cell.variant = CongestionVariant::kReno;
  cell.policy = DropPolicy::kTailDrop;
  cell.buffer_cells = 128;
  const CongestionOutcome out = RunCongestionCell(cell);
  EXPECT_EQ(out.completed, static_cast<uint64_t>(cell.flows));
  EXPECT_GT(out.cells_dropped_tail, 0u);
  EXPECT_GT(out.retransmits, 0u);
  // Occupancy can never exceed the configured per-VC buffer.
  EXPECT_GT(out.occupancy_hiwat, 0);
  EXPECT_LE(out.occupancy_hiwat, static_cast<int64_t>(cell.buffer_cells));
}

TEST(CongestionCell, EpdDiscardsWholeFramesAtTheThreshold) {
  CongestionCell cell = QuickCell();
  cell.variant = CongestionVariant::kReno;
  cell.policy = DropPolicy::kEpd;
  cell.buffer_cells = 128;
  const CongestionOutcome out = RunCongestionCell(cell);
  EXPECT_EQ(out.completed, static_cast<uint64_t>(cell.flows));
  EXPECT_GT(out.cells_dropped_epd, 0u);
  EXPECT_GT(out.frames_discarded, 0u);
  // EPD refuses frames before the queue is full; each discarded frame is
  // several cells, so the per-frame average must exceed one cell.
  EXPECT_GT(out.cells_dropped_epd, out.frames_discarded);
}

TEST(CongestionCell, SackFlowsNegotiateAndRepairFromTheScoreboard) {
  // The canonical grid cell (8 flows x 96 KiB, 256-cell buffers): enough
  // queue pressure that whole segments go missing while later ones
  // survive — the hole pattern scoreboard-driven retransmission needs —
  // yet enough buffer that recovery completes without the timer.
  CongestionCell cell;
  cell.variant = CongestionVariant::kSack;
  cell.policy = DropPolicy::kEpd;
  cell.buffer_cells = 256;
  const CongestionOutcome out = RunCongestionCell(cell);
  EXPECT_EQ(out.completed, static_cast<uint64_t>(cell.flows));
  EXPECT_GT(out.sack_blocks_received, 0u);
  EXPECT_GT(out.sack_retransmits, 0u);
  // SACK's point is repairing without the retransmission timer; with
  // frame-level discard it must recover at least some losses fast.
  EXPECT_GT(out.fast_recovery_episodes, 0u);
}

// One canonical cell, rendered through CongestionRow (simulated quantities
// only): repeated runs must agree to the byte. bench/congestion's golden
// entry checks the same property end-to-end over the whole grid.
TEST(CongestionCell, RowsAreByteIdenticalAcrossRepeats) {
  CongestionCell cell = QuickCell();
  cell.variant = CongestionVariant::kSack;
  cell.policy = DropPolicy::kEpd;
  const std::vector<std::string> first = CongestionRow(cell, RunCongestionCell(cell));
  const std::vector<std::string> again = CongestionRow(cell, RunCongestionCell(cell));
  EXPECT_EQ(first, again) << "repeat run diverged";
}

TEST(CongestionCell, SeedsAreIndividuallyDeterministic) {
  for (const uint64_t seed : {uint64_t{1}, uint64_t{7}}) {
    CongestionCell cell = QuickCell();
    cell.variant = CongestionVariant::kNewReno;
    cell.policy = DropPolicy::kPpd;
    cell.buffer_cells = 128;
    cell.seed = seed;
    const std::vector<std::string> first = CongestionRow(cell, RunCongestionCell(cell));
    const std::vector<std::string> second = CongestionRow(cell, RunCongestionCell(cell));
    EXPECT_EQ(first, second) << "seed " << seed;
  }
}

}  // namespace
}  // namespace tcplat
