// Fine-grained fidelity pins: mechanism-level details of the paper's
// tables that the coarser reproduction_test does not cover — the mcopy
// small-data threshold, the receive-ATM per-cell structure, the IPQ floor,
// and the Wakeup row's flatness.

#include <gtest/gtest.h>

#include "src/core/paper_ledger.h"
#include "src/core/rpc_benchmark.h"

namespace tcplat {
namespace {

// The ATM baseline run at `size` bytes, one of the paper's sizes.
const RpcResult& Atm(size_t size) {
  static const PaperLedger ledger = RunPaperLedger();
  return ledger.Run(PaperStack::kAtm, size);
}

TEST(Fidelity, McopySmallDataThresholdJump) {
  // Table 2 mcopy row: 4/20 bytes ride in the header mbuf (~5 us); 80
  // bytes and up pay the m_copym chain copy (26+ us). The jump sits where
  // the BSD header-mbuf space runs out.
  const double copy20 = Atm(20).SpanMean(SpanId::kTxTcpMcopy).micros();
  const double copy80 = Atm(80).SpanMean(SpanId::kTxTcpMcopy).micros();
  EXPECT_LT(copy20, 10.0);
  EXPECT_GT(copy80, 2.5 * copy20);
}

TEST(Fidelity, McopyClusterRefcountDrop) {
  // Table 2 mcopy row again: 500 bytes (five small mbufs, deep copy) costs
  // *more* than 1400 bytes (one cluster, reference count) — the §2.2.1
  // "artifact of a particular buffer management implementation choice".
  const double copy500 = Atm(500).SpanMean(SpanId::kTxTcpMcopy).micros();
  const double copy1400 = Atm(1400).SpanMean(SpanId::kTxTcpMcopy).micros();
  EXPECT_GT(copy500, 2 * copy1400);
}

TEST(Fidelity, ReceiveAtmRowScalesPerCell) {
  // Table 3 ATM row: ~9.3 us per 44-byte cell from the EOM's arrival.
  const double atm500 = Atm(500).SpanMean(SpanId::kRxDriver).micros();
  const double atm4000 = Atm(4000).SpanMean(SpanId::kRxDriver).micros();
  // 500 B -> 13 cells; 4000 B -> 92 cells (plus headers/CPCS).
  const double per_cell = (atm4000 - atm500) / (92 - 13);
  EXPECT_NEAR(per_cell, 9.3, 1.5);
}

TEST(Fidelity, IpqFloorIsTheSoftintDispatch) {
  // Table 3 IPQ row floor: ~22 us when the queue is otherwise idle. At
  // 4000 bytes the receive interrupt's tail and the window-update ACK add
  // queueing on top of the floor — visible in the paper's own row, which
  // rises from 22 to 46 us at 4000.
  for (size_t size : {size_t{4}, size_t{500}}) {
    const double ipq = Atm(size).SpanMean(SpanId::kRxIpq).micros();
    EXPECT_NEAR(ipq, 22.0, 3.0) << size;
  }
  const double ipq4000 = Atm(4000).SpanMean(SpanId::kRxIpq).micros();
  EXPECT_GT(ipq4000, 22.0);
  EXPECT_LT(ipq4000, 50.0);
}

TEST(Fidelity, WakeupRowIsFlat) {
  // Table 3 Wakeup row: 46-67 us and essentially size-independent — the
  // §2.2.4 scheduling cost is per-wakeup, not per-byte.
  const double w4 = Atm(4).SpanMean(SpanId::kRxWakeup).micros();
  const double w4000 = Atm(4000).SpanMean(SpanId::kRxWakeup).micros();
  EXPECT_NEAR(w4, 46.0, 4.0);
  EXPECT_NEAR(w4000, w4, 6.0);
}

TEST(Fidelity, TransmitAtmRowTracksCellCount) {
  // Table 2 ATM row: fixed driver entry (~18-23 us) plus ~2.6 us per cell
  // written into the TX FIFO.
  const double tx4 = Atm(4).SpanMean(SpanId::kTxDriver).micros();
  const double tx4000 = Atm(4000).SpanMean(SpanId::kTxDriver).micros();
  EXPECT_NEAR(tx4, 23.0, 3.0);
  EXPECT_NEAR((tx4000 - tx4) / (92 - 2), 2.6, 0.6);
}

TEST(Fidelity, TcpSegmentRowFlatOnTransmit) {
  // Table 2 segment row: 62-72 us, size-independent (fixed protocol work).
  const double s4 = Atm(4).SpanMean(SpanId::kTxTcpSegment).micros();
  const double s4000 = Atm(4000).SpanMean(SpanId::kTxTcpSegment).micros();
  EXPECT_NEAR(s4, 62.0, 6.0);
  EXPECT_NEAR(s4000, s4, 4.0);
}

TEST(Fidelity, ChecksumRowCoversDataPlusForty) {
  // §2.2.2: "the checksum is done over the data and the TCP/IP header" —
  // the row's slope is the in_cksum per-byte rate and its intercept covers
  // the 40 header bytes.
  const double c4 = Atm(4).SpanMean(SpanId::kRxTcpChecksum).micros();
  const double c4000 = Atm(4000).SpanMean(SpanId::kRxTcpChecksum).micros();
  const double per_byte = (c4000 - c4) / (4000 - 4);
  EXPECT_NEAR(per_byte, 0.1405, 0.01);
  // At 4 bytes the row still pays for 44 checksummed bytes.
  EXPECT_GT(c4, 0.1405 * 40);
}

}  // namespace
}  // namespace tcplat
