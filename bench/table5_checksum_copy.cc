// Regenerates Table 5 / Figure 2: user-level cost of the ULTRIX checksum,
// bcopy, the optimized (word-access, unrolled) checksum, and the integrated
// copy+checksum, per transfer size.
//
// The algorithms really execute on real buffers (and are cross-checked
// against each other); the reported microseconds are the calibrated
// DECstation 5000/200 costs. Host-native nanosecond measurements of the
// same four routines live in bench/native_checksum.

#include <cstdio>
#include <vector>

#include "bench/bench_flags.h"
#include "src/base/check.h"
#include "src/base/random.h"
#include "src/core/paper_data.h"
#include "src/core/table.h"
#include "src/cpu/cost_profile.h"
#include "src/net/checksum.h"

namespace tcplat {
namespace {

void Run() {
  std::printf("Table 5 / Figure 2: Copy and Checksum Measurements (us)\n\n");
  const CostProfile prof = CostProfile::Decstation5000_200();
  Rng rng(99);

  TextTable t({"Size", "ULTRIX cksum", "bcopy", "ULTRIX total", "Optimized cksum",
               "Integrated", "Savings (%)", "paper savings (%)"});
  struct FigRow {
    size_t size;
    double total, opt_total, integrated;
  };
  std::vector<FigRow> fig;

  for (size_t i = 0; i < paper::kSizes.size(); ++i) {
    const size_t size = paper::kSizes[i];
    // Execute the real algorithms and check they agree.
    std::vector<uint8_t> src(size);
    std::vector<uint8_t> dst(size);
    for (auto& b : src) {
      b = static_cast<uint8_t>(rng.Next());
    }
    const uint16_t a = UltrixChecksum(src);
    const uint16_t b = OptimizedChecksum(src);
    const uint16_t c = IntegratedCopyChecksum(dst, src);
    TCPLAT_CHECK_EQ(a, b);
    TCPLAT_CHECK_EQ(b, c);
    TCPLAT_CHECK(dst == src);

    const double ultrix = prof.ultrix_cksum.Eval(size).micros();
    const double bcopy = prof.user_bcopy.Eval(size).micros();
    const double opt = prof.opt_cksum.Eval(size).micros();
    const double integ = prof.integrated_copy_cksum.Eval(size).micros();
    const double savings = 100.0 * (1.0 - integ / (opt + bcopy));
    const double paper_savings =
        100.0 * (1.0 - paper::kTable5Integrated[i] /
                           (paper::kTable5OptCksum[i] + paper::kTable5UltrixBcopy[i]));
    t.AddRow({std::to_string(size), TextTable::Us(ultrix), TextTable::Us(bcopy),
              TextTable::Us(ultrix + bcopy), TextTable::Us(opt), TextTable::Us(integ),
              TextTable::Pct(savings), TextTable::Pct(paper_savings)});
    fig.push_back({size, ultrix + bcopy, opt + bcopy, integ});
  }
  t.Print();

  std::printf("\nEffective bandwidth of the integrated copy+checksum loop: %.1f MB/s "
              "(the paper reports 'just above 9 MB/s')\n",
              1.0 / prof.integrated_copy_cksum.per_byte_us);

  std::printf("\nASCII Figure 2 (time vs size; U = copy+ULTRIX cksum, O = copy+optimized, "
              "I = integrated):\n");
  for (const FigRow& r : fig) {
    std::printf("%5zu U |%.*s\n", r.size, static_cast<int>(r.total / 25.0),
                "#############################################################################"
                "#####################");
    std::printf("      O |%.*s\n", static_cast<int>(r.opt_total / 25.0),
                "+++++++++++++++++++++++++++++++++++++++++++++++++++++++++++++++++++++++++++++"
                "+++++++++++++++++++++");
    std::printf("      I |%.*s\n", static_cast<int>(r.integrated / 25.0),
                "............................................................................."
                ".....................");
  }
}

}  // namespace
}  // namespace tcplat

int main(int argc, char** argv) {
  tcplat::BenchFlags flags;
  if (!tcplat::ParseBenchFlags(argc, argv, &flags, "")) return 2;
  tcplat::Run();
  return 0;
}
