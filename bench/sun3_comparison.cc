// Regenerates the §4.1 hardware-scaling comparison: the combined
// copy+checksum on the Sun-3 (Clark et al. 1989) vs the DECstation
// 5000/200, at 1 KB.

#include <cstdio>

#include "bench/bench_flags.h"
#include "src/core/paper_data.h"
#include "src/core/table.h"
#include "src/cpu/cost_profile.h"

namespace tcplat {
namespace {

void Run() {
  constexpr size_t kOneK = 1024;
  const CostProfile sun3 = CostProfile::Sun3();
  const CostProfile dec = CostProfile::Decstation5000_200();

  std::printf("§4.1: combined copy+checksum scaling across hardware (1 KB)\n\n");
  TextTable t({"Machine", "Checksum (us)", "Copy (us)", "Combined (us)",
               "Separate/Combined speedup (%)"});
  auto add = [&t](const char* name, double ck, double cp, double comb) {
    t.AddRow({name, TextTable::Us(ck), TextTable::Us(cp), TextTable::Us(comb),
              TextTable::Pct(100.0 * ((ck + cp) / comb - 1.0))});
  };
  add("Sun-3 (model)", sun3.opt_cksum.Eval(kOneK).micros(),
      sun3.user_bcopy.Eval(kOneK).micros(), sun3.integrated_copy_cksum.Eval(kOneK).micros());
  add("Sun-3 (paper)", paper::kSun3Checksum1K, paper::kSun3Copy1K, paper::kSun3Combined1K);
  add("DECstation (model)", dec.opt_cksum.Eval(kOneK).micros(),
      dec.user_bcopy.Eval(kOneK).micros(), dec.integrated_copy_cksum.Eval(kOneK).micros());
  add("DECstation (paper)", paper::kDec1KOptCksum, paper::kDec1KCopy, paper::kDec1KCombined);
  t.Print();

  const double overall = 100.0 * (1.0 - dec.integrated_copy_cksum.Eval(kOneK).micros() /
                                            sun3.integrated_copy_cksum.Eval(kOneK).micros());
  std::printf("\nOverall improvement moving Sun-3 -> DECstation: %.0f%% "
              "(the paper reports 80%% relative to separate Sun-3 cost)\n",
              overall);
}

}  // namespace
}  // namespace tcplat

int main(int argc, char** argv) {
  tcplat::BenchFlags flags;
  if (!tcplat::ParseBenchFlags(argc, argv, &flags, "")) return 2;
  tcplat::Run();
  return 0;
}
