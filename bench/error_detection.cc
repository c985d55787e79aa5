// Regenerates the §4.2.1 error-detection analysis: for each error source
// the paper enumerates, inject corruption while the echo workload runs and
// attribute every event to the layer that caught it.
//
// The rows demonstrate the paper's systems argument:
//  * Random fiber noise is caught by the per-cell AAL3/4 CRC-10 whether or
//    not TCP checksums — "quieter fibers" make the TCP checksum redundant
//    for this source.
//  * Errors crafted to defeat the CRC (source 4) sail through the AAL and
//    are caught only by the TCP checksum — or reach the application when
//    the checksum was negotiated off (the end-to-end argument's point).
//  * Controller-copy errors (source 2) happen after the CRC check. The
//    standard in_cksum reads the corrupted kernel memory and catches them;
//    the integrated copy+checksum accumulates its sum from the words it
//    reads out of device memory, so the corruption is *invisible* to it —
//    an end-to-end application check is the only recourse.

#include <cstdio>

#include "bench/bench_flags.h"
#include "src/core/table.h"
#include "src/fault/error_experiment.h"

namespace tcplat {
namespace {

const char* ModeName(ChecksumMode mode) {
  switch (mode) {
    case ChecksumMode::kStandard:
      return "standard";
    case ChecksumMode::kCombined:
      return "combined";
    case ChecksumMode::kNone:
      return "none";
  }
  return "?";
}

void Run() {
  std::printf("§4.2.1 error-source vs detector matrix (1400-byte echoes)\n\n");
  TextTable t({"Error source", "Cksum mode", "Injected", "AAL CRC-10", "SAR/CPCS", "TCP cksum",
               "App check", "Rexmt timeouts", "Mean RTT (us)"});

  struct Case {
    ErrorSource source;
    ChecksumMode mode;
    double prob;
  };
  const Case cases[] = {
      {ErrorSource::kLinkBitFlip, ChecksumMode::kStandard, 0.002},
      {ErrorSource::kLinkBitFlip, ChecksumMode::kNone, 0.002},
      {ErrorSource::kLinkCrcDefeating, ChecksumMode::kStandard, 0.002},
      {ErrorSource::kLinkCrcDefeating, ChecksumMode::kNone, 0.002},
      {ErrorSource::kSwitchFabric, ChecksumMode::kStandard, 0.002},
      {ErrorSource::kSwitchFabric, ChecksumMode::kNone, 0.002},
      {ErrorSource::kControllerCopy, ChecksumMode::kStandard, 0.02},
      {ErrorSource::kControllerCopy, ChecksumMode::kCombined, 0.02},
      {ErrorSource::kControllerCopy, ChecksumMode::kNone, 0.02},
  };
  for (const Case& c : cases) {
    ErrorExperimentConfig cfg;
    cfg.source = c.source;
    cfg.checksum = c.mode;
    cfg.probability = c.prob;
    cfg.size = 1400;
    cfg.iterations = 400;
    const ErrorExperimentResult r = RunErrorExperiment(cfg);
    t.AddRow({ErrorSourceName(c.source), ModeName(c.mode), std::to_string(r.injected),
              std::to_string(r.caught_cell_crc), std::to_string(r.caught_sar),
              std::to_string(r.caught_tcp_checksum), std::to_string(r.app_mismatches),
              std::to_string(r.retransmits), TextTable::Us(r.mean_rtt_us)});
  }
  t.Print();
  std::printf("\nNote: a dropped PDU/segment is recovered by TCP retransmission, so the\n"
              "stream completes; 'App check' counts corruptions that survived to the\n"
              "application's own comparison of sent vs echoed bytes.\n");
}

}  // namespace
}  // namespace tcplat

int main(int argc, char** argv) {
  tcplat::BenchFlags flags;
  if (!tcplat::ParseBenchFlags(argc, argv, &flags, "")) return 2;
  tcplat::Run();
  return 0;
}
