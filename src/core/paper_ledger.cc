#include "src/core/paper_ledger.h"

#include <algorithm>
#include <utility>

#include "src/base/check.h"
#include "src/core/testbed.h"
#include "src/cpu/cost_profile.h"
#include "src/exec/executor.h"

namespace tcplat {
namespace {

constexpr size_t kSizeCount = paper::kSizes.size();

size_t SizeIndex(size_t size) {
  const auto it = std::find(paper::kSizes.begin(), paper::kSizes.end(), size);
  TCPLAT_CHECK(it != paper::kSizes.end());
  return static_cast<size_t>(it - paper::kSizes.begin());
}

RpcResult RunCell(PaperStack stack, size_t size) {
  TestbedConfig cfg;
  switch (stack) {
    case PaperStack::kAtm:
      break;
    case PaperStack::kEthernet:
      cfg.network = NetworkKind::kEthernet;
      break;
    case PaperStack::kNoPrediction:
      cfg.tcp.header_prediction = false;
      break;
    case PaperStack::kCombined:
      cfg.tcp.checksum = ChecksumMode::kCombined;
      break;
    case PaperStack::kNoChecksum:
      cfg.tcp.checksum = ChecksumMode::kNone;
      break;
  }
  Testbed tb(cfg);
  RpcOptions opt;
  opt.size = size;
  return RunRpcBenchmark(tb, opt);
}

}  // namespace

const RpcResult& PaperLedger::Run(PaperStack stack, size_t size) const {
  return runs[static_cast<size_t>(stack)][SizeIndex(size)];
}

PaperRow PaperLedger::Row(int table, std::string_view row) const {
  const auto it = std::find_if(cells.begin(), cells.end(), [&](const PaperCell& c) {
    return c.table == table && c.row == row;
  });
  TCPLAT_CHECK(cells.end() - it >= static_cast<std::ptrdiff_t>(kSizeCount));
  return PaperRow(&*it, kSizeCount);
}

const PaperCell& PaperLedger::Cell(int table, std::string_view row, size_t size) const {
  return Row(table, row)[SizeIndex(size)];
}

PaperLedger RunPaperLedger() {
  PaperLedger ledger;
  std::vector<RpcResult> results =
      ParallelMap<RpcResult>(kPaperStacks * kSizeCount, [](size_t job) {
        return RunCell(static_cast<PaperStack>(job / kSizeCount), paper::kSizes[job % kSizeCount]);
      });
  for (size_t job = 0; job < results.size(); ++job) {
    ledger.runs[job / kSizeCount][job % kSizeCount] = std::move(results[job]);
  }

  auto add = [&ledger](int table, std::string_view row,
                       const std::array<double, kSizeCount>& published, auto ours) {
    for (size_t i = 0; i < kSizeCount; ++i) {
      ledger.cells.push_back({table, row, paper::kSizes[i], ours(i), published[i]});
    }
  };
  auto rtt = [&ledger](PaperStack stack) {
    return [&ledger, stack](size_t i) {
      return ledger.runs[static_cast<size_t>(stack)][i].MeanRtt().micros();
    };
  };
  // A breakdown row: the per-transfer means of its spans on the ATM
  // baseline, summed in the order given (a total row lists its rows).
  auto spans = [&ledger](std::vector<SpanId> ids) {
    return [&ledger, ids](size_t i) {
      const RpcResult& r = ledger.runs[static_cast<size_t>(PaperStack::kAtm)][i];
      double us = 0;
      for (SpanId id : ids) {
        us += r.SpanMean(id).micros();
      }
      return us;
    };
  };
  const CostProfile prof = CostProfile::Decstation5000_200();
  auto cost = [&prof](CostParams CostProfile::*fn) {
    return [&prof, fn](size_t i) { return (prof.*fn).Eval(paper::kSizes[i]).micros(); };
  };

  add(1, "Ethernet", paper::kTable1Ethernet, rtt(PaperStack::kEthernet));
  add(1, "ATM", paper::kTable1Atm, rtt(PaperStack::kAtm));

  add(2, "User", paper::kTable2User, spans({SpanId::kTxUser}));
  add(2, "TCP checksum", paper::kTable2Checksum, spans({SpanId::kTxTcpChecksum}));
  add(2, "TCP mcopy", paper::kTable2Mcopy, spans({SpanId::kTxTcpMcopy}));
  add(2, "TCP segment", paper::kTable2Segment, spans({SpanId::kTxTcpSegment}));
  add(2, "TCP total", paper::kTable2TcpTotal,
      spans({SpanId::kTxTcpChecksum, SpanId::kTxTcpMcopy, SpanId::kTxTcpSegment}));
  add(2, "IP", paper::kTable2Ip, spans({SpanId::kTxIp}));
  add(2, "ATM", paper::kTable2Atm, spans({SpanId::kTxDriver}));
  add(2, "Total", paper::kTable2Total,
      spans({SpanId::kTxUser, SpanId::kTxTcpChecksum, SpanId::kTxTcpMcopy,
             SpanId::kTxTcpSegment, SpanId::kTxIp, SpanId::kTxDriver}));

  add(3, "ATM", paper::kTable3Atm, spans({SpanId::kRxDriver}));
  add(3, "IPQ", paper::kTable3Ipq, spans({SpanId::kRxIpq}));
  add(3, "IP", paper::kTable3Ip, spans({SpanId::kRxIp}));
  add(3, "TCP checksum", paper::kTable3Checksum, spans({SpanId::kRxTcpChecksum}));
  add(3, "TCP segment", paper::kTable3Segment, spans({SpanId::kRxTcpSegment}));
  add(3, "TCP total", paper::kTable3TcpTotal,
      spans({SpanId::kRxTcpChecksum, SpanId::kRxTcpSegment}));
  add(3, "Wakeup", paper::kTable3Wakeup, spans({SpanId::kRxWakeup}));
  add(3, "User", paper::kTable3User, spans({SpanId::kRxUser}));
  add(3, "Total", paper::kTable3Total,
      spans({SpanId::kRxDriver, SpanId::kRxIpq, SpanId::kRxIp, SpanId::kRxTcpChecksum,
             SpanId::kRxTcpSegment, SpanId::kRxWakeup, SpanId::kRxUser}));

  add(4, "No Prediction", paper::kTable4NoPrediction, rtt(PaperStack::kNoPrediction));
  add(4, "Prediction", paper::kTable4Prediction, rtt(PaperStack::kAtm));

  add(5, "ULTRIX cksum", paper::kTable5UltrixCksum, cost(&CostProfile::ultrix_cksum));
  add(5, "bcopy", paper::kTable5UltrixBcopy, cost(&CostProfile::user_bcopy));
  add(5, "Optimized cksum", paper::kTable5OptCksum, cost(&CostProfile::opt_cksum));
  add(5, "Integrated", paper::kTable5Integrated, cost(&CostProfile::integrated_copy_cksum));

  add(6, "Standard", paper::kTable6Standard, rtt(PaperStack::kAtm));
  add(6, "Combined", paper::kTable6Combined, rtt(PaperStack::kCombined));

  add(7, "Checksum", paper::kTable7Checksum, rtt(PaperStack::kAtm));
  add(7, "No Checksum", paper::kTable7NoChecksum, rtt(PaperStack::kNoChecksum));
  return ledger;
}

}  // namespace tcplat
