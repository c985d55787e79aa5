// End-to-end argument, live — §4.2.1 as a demonstration. Runs the echo
// workload over a deliberately dirty fiber and a buggy network controller,
// and shows which layer catches each class of damage under each checksum
// policy, including the one case where eliminating (or integrating) the TCP
// checksum lets corruption reach the application.
//
//   $ ./error_injection

#include <cstdio>

#include "src/core/table.h"
#include "src/fault/error_experiment.h"

using namespace tcplat;

namespace {

void Report(const char* headline, const ErrorExperimentConfig& cfg) {
  const ErrorExperimentResult r = RunErrorExperiment(cfg);
  std::printf("%s\n", headline);
  std::printf("   injected %llu | AAL CRC caught %llu | TCP checksum caught %llu | "
              "reached app %llu | RTT %.0f us\n\n",
              static_cast<unsigned long long>(r.injected),
              static_cast<unsigned long long>(r.caught_cell_crc + r.caught_sar),
              static_cast<unsigned long long>(r.caught_tcp_checksum),
              static_cast<unsigned long long>(r.app_mismatches), r.mean_rtt_us);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    std::fprintf(stderr, "usage: %s (takes no arguments)\n", argv[0]);
    return 2;
  }
  std::printf("The end-to-end argument on a simulated ATM link (1400-byte echoes)\n"
              "==================================================================\n\n");

  ErrorExperimentConfig cfg;
  cfg.size = 1400;
  cfg.iterations = 300;

  std::printf("1) Ordinary fiber noise (random bit flips in cells)\n");
  cfg.source = ErrorSource::kLinkBitFlip;
  cfg.probability = 0.002;
  cfg.checksum = ChecksumMode::kStandard;
  Report("   with the TCP checksum:", cfg);
  cfg.checksum = ChecksumMode::kNone;
  Report("   without it (negotiated off):", cfg);
  std::printf("   => The per-cell CRC-10 catches everything either way; on a clean\n"
              "      local link the TCP checksum adds latency, not protection.\n\n");

  std::printf("2) Pathological errors the CRC cannot see (generator-multiple bursts)\n");
  cfg.source = ErrorSource::kLinkCrcDefeating;
  cfg.probability = 0.002;
  cfg.checksum = ChecksumMode::kStandard;
  Report("   with the TCP checksum:", cfg);
  cfg.checksum = ChecksumMode::kNone;
  Report("   without it:", cfg);
  std::printf("   => Here the TCP checksum is the last line of defense; without it the\n"
              "      corrupted bytes land in the application's buffers. If you turn the\n"
              "      checksum off, something above TCP must check (the paper's\n"
              "      condition for eliminating it).\n\n");

  std::printf("3) A buggy controller corrupting the device-to-host copy\n");
  cfg.source = ErrorSource::kControllerCopy;
  cfg.probability = 0.02;
  cfg.checksum = ChecksumMode::kStandard;
  Report("   standard kernel (checksum after the copy):", cfg);
  cfg.checksum = ChecksumMode::kCombined;
  Report("   combined copy+checksum kernel:", cfg);
  std::printf("   => The integrated loop sums the words it READS, so damage introduced\n"
              "      by the copy itself verifies clean — a subtlety of §4.1.1: fusing\n"
              "      the checksum into the copy silently narrows what it protects.\n");
  return 0;
}
