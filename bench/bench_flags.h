// Shared argv parsing for the bench binaries, replacing the per-binary
// strcmp loops. Each flag takes either `--flag=value` or `--flag value`
// form; `--trace` may also stand alone (trace to stdout / default sink).
// A binary's usage string is its list of flags: any flag it does not name
// is rejected, so a flag cannot be silently ignored.

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
  int jobs = 0;            // --jobs; 0 = inherit TCPLAT_JOBS / core count
  int flows = 0;           // --flows (>= 1); pre-set the default before parsing
  std::string csv_path;    // --csv; empty = no CSV export
  std::string perf_path;   // --perf; a fresh BENCH_perf.json to gate on
  std::string congestion_path;  // --congestion; a fresh BENCH_congestion.json
  std::string baseline_dir;       // --baseline-dir; committed baselines
  bool write_baseline = false;    // --write-baseline: refresh the baselines
  bool selftest = false;          // --selftest: pure-logic self-verification
  // Flow sampling and binary captures (src/trace/binary_trace.h).
  uint32_t trace_sample_flows = 0;      // --trace-sample-flows N (>= 1): keep 1-in-N flows
  std::string bin_out_path;             // --bin-out PATH: write a TLBT capture
  std::string from_binary_path;         // --from-binary PATH: read a TLBT capture
  // Timeseries telemetry plane (src/trace/timeseries.h).
  bool timeline = false;                // --timeline: enable / select timeline mode
  std::string timeline_csv_path;        // --timeline-csv PATH: long-format CSV out
  int64_t timeline_period_us = 0;       // --timeline-period-us N; 0 = default
};

// Parses argv into `flags` (whose pre-set values are the defaults).
// `accepted` is the binary's usage string; a flag it does not name as a
// whole token (`--timeline` does not name `--timeline-csv`), an unknown
// flag, or a count flag (--flows, --trace-sample-flows) below 1 prints the
// reason and the usage line and returns false. `--jobs N` also exports
// TCPLAT_JOBS=N so the global executor pool — which is sized on first use
// — picks it up; pass it before any parallel work.
bool ParseBenchFlags(int argc, char** argv, BenchFlags* flags, const char* accepted);

}  // namespace tcplat

#endif  // BENCH_BENCH_FLAGS_H_
