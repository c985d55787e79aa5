// Reproduction invariants: the paper's qualitative claims, asserted as
// tests so regressions in the model or calibration are caught. These are
// the "shape" checks from DESIGN.md §2 — who wins, by roughly what factor,
// where crossovers fall. They read the fidelity ledger
// (src/core/paper_ledger.h), whose bookkeeping the PaperLedger tests pin.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string_view>
#include <vector>

#include "src/core/paper_data.h"
#include "src/core/paper_ledger.h"
#include "src/core/rpc_benchmark.h"

namespace tcplat {
namespace {

const PaperLedger& Ledger() {
  static const PaperLedger ledger = RunPaperLedger();
  return ledger;
}

double RttUs(int table, std::string_view column, size_t size) {
  return Ledger().Cell(table, column, size).ours;
}

const RpcResult& Atm(size_t size) { return Ledger().Run(PaperStack::kAtm, size); }

TEST(PaperLedger, EveryPublishedValueAppearsOnceUnderItsCell) {
  const struct {
    int table;
    std::string_view row;
    const std::array<double, 8>& paper;
  } published[] = {
      {1, "Ethernet", paper::kTable1Ethernet},
      {1, "ATM", paper::kTable1Atm},
      {2, "User", paper::kTable2User},
      {2, "TCP checksum", paper::kTable2Checksum},
      {2, "TCP mcopy", paper::kTable2Mcopy},
      {2, "TCP segment", paper::kTable2Segment},
      {2, "TCP total", paper::kTable2TcpTotal},
      {2, "IP", paper::kTable2Ip},
      {2, "ATM", paper::kTable2Atm},
      {2, "Total", paper::kTable2Total},
      {3, "ATM", paper::kTable3Atm},
      {3, "IPQ", paper::kTable3Ipq},
      {3, "IP", paper::kTable3Ip},
      {3, "TCP checksum", paper::kTable3Checksum},
      {3, "TCP segment", paper::kTable3Segment},
      {3, "TCP total", paper::kTable3TcpTotal},
      {3, "Wakeup", paper::kTable3Wakeup},
      {3, "User", paper::kTable3User},
      {3, "Total", paper::kTable3Total},
      {4, "No Prediction", paper::kTable4NoPrediction},
      {4, "Prediction", paper::kTable4Prediction},
      {5, "ULTRIX cksum", paper::kTable5UltrixCksum},
      {5, "bcopy", paper::kTable5UltrixBcopy},
      {5, "Optimized cksum", paper::kTable5OptCksum},
      {5, "Integrated", paper::kTable5Integrated},
      {6, "Standard", paper::kTable6Standard},
      {6, "Combined", paper::kTable6Combined},
      {7, "Checksum", paper::kTable7Checksum},
      {7, "No Checksum", paper::kTable7NoChecksum},
  };
  const std::vector<PaperCell>& cells = Ledger().cells;
  EXPECT_EQ(cells.size(), std::size(published) * paper::kSizes.size());
  for (const auto& p : published) {
    for (size_t i = 0; i < paper::kSizes.size(); ++i) {
      int found = 0;
      for (const PaperCell& c : cells) {
        if (c.table == p.table && c.row == p.row && c.size == paper::kSizes[i]) {
          ++found;
          EXPECT_EQ(c.paper, p.paper[i]) << "Table " << p.table << " " << p.row << " @ " << c.size;
        }
      }
      EXPECT_EQ(found, 1) << "Table " << p.table << " " << p.row << " @ " << paper::kSizes[i];
    }
  }
}

TEST(PaperLedger, BaselineColumnsAreTheTable1AtmRun) {
  // Table 4 "Prediction", Table 6 "Standard" and Table 7 "Checksum" are the
  // paper's Table 1 ATM stack, and the ledger reads all four from one run.
  for (size_t size : paper::kSizes) {
    const double atm = RttUs(1, "ATM", size);
    EXPECT_EQ(RttUs(4, "Prediction", size), atm) << size;
    EXPECT_EQ(RttUs(6, "Standard", size), atm) << size;
    EXPECT_EQ(RttUs(7, "Checksum", size), atm) << size;
  }
}

TEST(Reproduction, Table1AtmBeatsEthernetAtEverySize) {
  for (size_t size : paper::kSizes) {
    const double a = RttUs(1, "ATM", size);
    const double e = RttUs(1, "Ethernet", size);
    EXPECT_LT(a, e) << size;
    // The paper's decrease is 45-56%; require at least 25% everywhere.
    EXPECT_GT((e - a) / e, 0.25) << size;
  }
}

TEST(Reproduction, Table1AbsoluteRttsNearPaper) {
  for (size_t i = 0; i < paper::kSizes.size(); ++i) {
    const double us = RttUs(1, "ATM", paper::kSizes[i]);
    // Within 25% of the published ATM round-trip times.
    EXPECT_NEAR(us, paper::kTable1Atm[i], 0.25 * paper::kTable1Atm[i]) << paper::kSizes[i];
  }
}

TEST(Reproduction, RttMonotoneInSize) {
  double prev = 0;
  for (size_t size : paper::kSizes) {
    const double us = RttUs(1, "ATM", size);
    EXPECT_GT(us, prev) << size;
    prev = us;
  }
}

TEST(Reproduction, Table2BreakdownNearPaper) {
  const struct {
    SpanId id;
    const std::array<double, 8>* paper;
    double tolerance;  // relative
  } rows[] = {
      {SpanId::kTxUser, &paper::kTable2User, 0.30},
      {SpanId::kTxTcpChecksum, &paper::kTable2Checksum, 0.20},
      {SpanId::kTxIp, &paper::kTable2Ip, 0.30},
  };
  for (size_t i = 0; i < paper::kSizes.size(); ++i) {
    if (paper::kSizes[i] == 8000) {
      continue;  // two-segment case: per-row accounting differs (see docs)
    }
    const RpcResult& r = Atm(paper::kSizes[i]);
    for (const auto& row : rows) {
      const double got = r.SpanMean(row.id).micros();
      const double want = (*row.paper)[i];
      EXPECT_NEAR(got, want, row.tolerance * want + 3.0)
          << SpanName(row.id) << " @ " << paper::kSizes[i];
    }
  }
}

TEST(Reproduction, ChecksumDominatesLargeTransfers) {
  // §2.3: "for large transfers, the checksumming and copying data
  // operations dominate the round trip times."
  const RpcResult& r = Atm(8000);
  const double checksum = r.SpanMean(SpanId::kTxTcpChecksum).micros() +
                          r.SpanMean(SpanId::kRxTcpChecksum).micros();
  const double rtt = r.MeanRtt().micros();
  EXPECT_GT(2 * checksum / rtt, 0.30);
}

TEST(Reproduction, SchedulingVisibleOnlyForSmallTransfers) {
  // §2.2.4: scheduling is ~6.7% of the 4-byte RTT, negligible at 8000.
  const RpcResult& small = Atm(4);
  const RpcResult& large = Atm(8000);
  const double small_share = (small.SpanMean(SpanId::kRxIpq).micros() +
                              small.SpanMean(SpanId::kRxWakeup).micros()) /
                             small.MeanRtt().micros();
  const double large_share = (large.SpanMean(SpanId::kRxIpq).micros() +
                              large.SpanMean(SpanId::kRxWakeup).micros()) /
                             large.MeanRtt().micros();
  EXPECT_GT(small_share, 0.04);
  EXPECT_LT(small_share, 0.10);
  EXPECT_LT(large_share, 0.04);
}

TEST(Reproduction, Table4PredictionHelpsMostAt8000) {
  auto on = [](size_t size) { return RttUs(4, "Prediction", size); };
  auto off = [](size_t size) { return RttUs(4, "No Prediction", size); };
  double delta_small = 0;
  for (size_t size : {size_t{4}, size_t{200}}) {
    delta_small = std::max(delta_small, off(size) - on(size));
  }
  const double delta_8000 = off(8000) - on(8000);
  EXPECT_GT(delta_8000, delta_small)
      << "the fast path only fires in the two-packet 8000-byte case";
  // And prediction never hurts.
  for (size_t size : paper::kSizes) {
    EXPECT_LE(on(size), off(size) + 1.0) << size;
  }
}

TEST(Reproduction, PredictionHitsOnlyAt8000InRpcWorkload) {
  for (size_t size : {size_t{4}, size_t{500}, size_t{4000}}) {
    const RpcResult& r = Atm(size);
    // The very first request of a connection predicts successfully (the
    // server has never sent data, so the ACK field is trivially old); in
    // steady state the RPC pattern never hits below 8000 bytes.
    EXPECT_LE(r.client_tcp.predict_ack_hits + r.client_tcp.predict_data_hits +
                  r.server_tcp.predict_ack_hits + r.server_tcp.predict_data_hits,
              1u)
        << size;
  }
  const RpcResult& r8000 = Atm(8000);
  EXPECT_GT(r8000.server_tcp.predict_data_hits, r8000.iterations / 2)
      << "the second packet of the 8000-byte case takes the fast path";
}

TEST(Reproduction, Table6CombinedChecksumCrossover) {
  auto std_us = [](size_t size) { return RttUs(6, "Standard", size); };
  auto comb_us = [](size_t size) { return RttUs(6, "Combined", size); };
  // Small transfers regress...
  EXPECT_GT(comb_us(4), std_us(4) * 1.05);
  // ...large transfers gain ~20-25%...
  EXPECT_LT(comb_us(8000), std_us(8000) * 0.85);
  // ...with the break-even between 500 and 1400 bytes (paper §4.1.1).
  EXPECT_LT(comb_us(1400), std_us(1400));
}

TEST(Reproduction, Table7ChecksumEliminationSavings) {
  auto saving = [](size_t size) {
    const double with = RttUs(7, "Checksum", size);
    return (with - RttUs(7, "No Checksum", size)) / with;
  };
  // Negligible at 4 bytes...
  EXPECT_LT(saving(4), 0.08);
  // ...large at 8000 (the paper reports 41%).
  EXPECT_GT(saving(8000), 0.30);
  // Savings grow monotonically with size.
  double prev = -1;
  for (size_t size : paper::kSizes) {
    const double s = saving(size);
    EXPECT_GE(s, prev - 0.02) << size;
    prev = s;
  }
}

TEST(Reproduction, EightThousandBytesGoAsTwoSegments) {
  // Stats cover warmup + measured round trips.
  const RpcResult& r = Atm(8000);
  const double rounds = static_cast<double>(r.iterations + RpcOptions{}.warmup);
  EXPECT_NEAR(static_cast<double>(r.client_tcp.data_segs_sent) / rounds, 2.0, 0.1);
  // And 4000 bytes go as one.
  const RpcResult& r4 = Atm(4000);
  EXPECT_NEAR(static_cast<double>(r4.client_tcp.data_segs_sent) / rounds, 1.0, 0.1);
}

}  // namespace
}  // namespace tcplat
