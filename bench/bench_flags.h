// Shared argv parsing for the bench binaries, replacing the per-binary
// strcmp loops. Each flag takes either `--flag=value` or `--flag value`
// form; `--trace` may also stand alone (trace to stdout / default sink).
// A binary's usage string is its list of flags: any argument it does not
// name is rejected, so a flag cannot be silently ignored. A binary that
// takes no flags passes "" and rejects every argument.

#ifndef BENCH_BENCH_FLAGS_H_
#define BENCH_BENCH_FLAGS_H_

#include <cstdint>
#include <string>

namespace tcplat {

struct BenchFlags {
  uint64_t seed = 1;
  bool quick = false;
  bool trace = false;      // --trace was given (with or without a path)
  std::string trace_path;  // optional path following --trace
  std::string out_path;    // --out; pre-set the default before parsing
  size_t size = 0;         // --size; pre-set the default before parsing
  int flows = 0;           // --flows (>= 1); pre-set the default before parsing
  std::string csv_path;    // --csv; empty = no CSV export
  // Timeseries telemetry plane (src/trace/timeseries.h).
  bool timeline = false;                // --timeline: enable / select timeline mode
  std::string timeline_csv_path;        // --timeline-csv PATH: long-format CSV out
  int64_t timeline_period_us = 0;       // --timeline-period-us N; 0 = default
};

// Parses argv into `flags` (whose pre-set values are the defaults).
// `accepted` is the binary's usage string; a flag it does not name as a
// whole token (`--timeline` does not name `--timeline-csv`), an unknown
// flag, or a number that is not a whole decimal in its flag's range prints
// the reason and the usage line and returns false. The ranges: --seed any
// 64-bit value; --jobs 1 to 1024; --size 1 to 1 MiB; --flows and
// --timeline-period-us at least 1. `--jobs N` exports TCPLAT_JOBS=N so the
// global executor pool — which is sized on first use — picks it up; pass
// it before any parallel work.
bool ParseBenchFlags(int argc, char** argv, BenchFlags* flags, const char* accepted);

}  // namespace tcplat

#endif  // BENCH_BENCH_FLAGS_H_
