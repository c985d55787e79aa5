// The fidelity ledger: every published value of the paper's Tables 1-7
// (src/core/paper_data.h) beside the value this reproduction gives for the
// same cell. bench/paper_report prints all seven tables from it, and the
// reproduction and fidelity tests read it.
//
// Each distinct two-host echo cell is simulated once: five stack
// configurations at the paper's eight sizes, with the RpcOptions defaults.
// Columns that the paper measured on the same stack share one run: Table 4's
// "Prediction", Table 6's "Standard" and Table 7's "Checksum" columns, and
// the rows of Tables 2 and 3, are all read from the ATM baseline. Table 5's
// cells come from the calibrated cost model, not from a run.

#ifndef SRC_CORE_PAPER_LEDGER_H_
#define SRC_CORE_PAPER_LEDGER_H_

#include <array>
#include <cstddef>
#include <span>
#include <string_view>
#include <vector>

#include "src/core/paper_data.h"
#include "src/core/rpc_benchmark.h"

namespace tcplat {

// The stack configurations the paper compares, each on the switchless
// two-host testbed. kAtm is the baseline; each other one changes one thing.
enum class PaperStack { kAtm, kEthernet, kNoPrediction, kCombined, kNoChecksum };
inline constexpr size_t kPaperStacks = 5;

struct PaperCell {
  int table = 0;         // 1-7
  std::string_view row;  // the row or column label the table prints, e.g. "TCP checksum"
  size_t size = 0;       // transfer size in bytes
  double ours = 0;       // microseconds
  double paper = 0;      // microseconds, as published
};

// The 8 cells of one published row or column, in paper::kSizes order.
using PaperRow = std::span<const PaperCell, paper::kSizes.size()>;

struct PaperLedger {
  // runs[stack][i] is the echo benchmark at paper::kSizes[i].
  std::array<std::array<RpcResult, paper::kSizes.size()>, kPaperStacks> runs;
  // One cell per published value, in paper_data.h's order: 29 rows or
  // columns of 8 sizes each.
  std::vector<PaperCell> cells;

  // Lookups by name. Each aborts on a (table, row) the ledger does not hold
  // or a size that is not one of paper::kSizes.
  const RpcResult& Run(PaperStack stack, size_t size) const;
  PaperRow Row(int table, std::string_view row) const;
  const PaperCell& Cell(int table, std::string_view row, size_t size) const;
};

// Runs the 40 echo cells through the process-wide executor (ParallelMap) and
// fills every cell. The result does not depend on TCPLAT_JOBS.
PaperLedger RunPaperLedger();

}  // namespace tcplat

#endif  // SRC_CORE_PAPER_LEDGER_H_
