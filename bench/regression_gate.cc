// Perf regression gate: diffs a fresh BENCH_perf.json / BENCH_trace.json
// against committed baselines (bench/baselines/) with per-metric noise
// tolerances, and exits non-zero on a regression so CI can fail the build.
//
// Tolerance policy, per metric class:
//  * Deterministic facts (quick, grid_configs, grid_iterations,
//    capacity_flows, grid_results_identical, and any unclassified key)
//    must match the baseline exactly.
//  * Wall-clock rates (keys ending in _per_sec) vary wildly across CI
//    hardware, so they only gate on collapse: fresh must be at least
//    kMinRateRatio of the baseline. A 10x regression trips; scheduler
//    noise does not.
//  * Wall-clock raw seconds and machine facts (hardware_concurrency,
//    grid_jobs, grid_serial_sec, grid_parallel_sec, grid_speedup) are
//    reported but never gate.
//  * trace_disabled_overhead_pct gates on an absolute ceiling: detached-
//    tracer hooks must stay under kMaxTraceOverheadPct.
//  * Interactive latency metrics (interactive_*_us) are pure simulated
//    quantities but gate on a 1.10x growth ceiling rather than exact
//    equality: they exist to catch a protocol change that re-arms (or
//    widens) the Nagle x delayed-ACK pathology, while letting small
//    timing shifts from unrelated stack work through. Getting faster is
//    always fine.
//  * The trace metrics file (written by observability_selfcheck: reference
//    trace bytes/event-count/FNV-1a hash, binary-pipeline and sampling
//    results) must match the committed baseline exactly — the values are
//    pure simulated data, so any drift is a real behavior change — except
//    the capacity-class metrics binary_trace_bytes_per_event,
//    streaming_graph_peak_nodes, and timeseries_points_per_flow, which
//    gate on a 1.10x growth ceiling (encoding, arena, or sampler-frugality
//    regressions trip, small drifts from new events do not, and shrinking
//    is always fine), and timeseries_overhead_pct, which is wall-clock and
//    gates on an absolute ceiling like trace_disabled_overhead_pct: the
//    timeseries hooks must stay cheap when no sampler records.
//
// Modes: default gates; --write-baseline refreshes the committed files;
// --selftest runs the gate logic on synthetic data (pass + perturbed-fail)
// with no file dependencies, for ctest.

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_flags.h"
#include "src/trace/tracer.h"

namespace tcplat {
namespace {

constexpr double kMinRateRatio = 0.10;
constexpr double kMaxTraceOverheadPct = 10.0;
constexpr double kMaxTraceGrowthRatio = 1.10;
constexpr double kMaxInteractiveGrowthRatio = 1.10;
constexpr double kMinCongestionRatio = 0.90;

int g_failures = 0;
int g_warnings = 0;

void Result(const char* status, const std::string& key, const std::string& detail) {
  std::printf("  [%s] %-40s %s\n", status, key.c_str(), detail.c_str());
  if (std::strcmp(status, "FAIL") == 0) {
    ++g_failures;
  } else if (std::strcmp(status, "warn") == 0) {
    ++g_warnings;
  }
}

bool ReadFile(const std::string& path, std::string* out) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::perror(path.c_str());
    return false;
  }
  char buf[4096];
  size_t n;
  out->clear();
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out->append(buf, n);
  }
  std::fclose(f);
  return true;
}

// Minimal parser for the flat one-level JSON objects the bench binaries
// write: "key": value pairs, values being numbers, booleans, or strings.
// Returns key -> raw value token (quotes stripped for strings).
std::map<std::string, std::string> ParseFlatJson(const std::string& text) {
  std::map<std::string, std::string> out;
  size_t i = 0;
  while (i < text.size()) {
    const size_t key_open = text.find('"', i);
    if (key_open == std::string::npos) {
      break;
    }
    const size_t key_close = text.find('"', key_open + 1);
    if (key_close == std::string::npos) {
      break;
    }
    const std::string key = text.substr(key_open + 1, key_close - key_open - 1);
    size_t colon = key_close + 1;
    while (colon < text.size() && (text[colon] == ' ' || text[colon] == '\t')) {
      ++colon;
    }
    if (colon >= text.size() || text[colon] != ':') {
      i = key_close + 1;  // a bare string (not a key); skip it
      continue;
    }
    size_t v = colon + 1;
    while (v < text.size() && (text[v] == ' ' || text[v] == '\t')) {
      ++v;
    }
    std::string value;
    if (v < text.size() && text[v] == '"') {
      const size_t end = text.find('"', v + 1);
      if (end == std::string::npos) {
        break;
      }
      value = text.substr(v + 1, end - v - 1);
      i = end + 1;
    } else {
      size_t end = v;
      while (end < text.size() && text[end] != ',' && text[end] != '}' && text[end] != '\n') {
        ++end;
      }
      value = text.substr(v, end - v);
      while (!value.empty() && (value.back() == ' ' || value.back() == '\r')) {
        value.pop_back();
      }
      i = end;
    }
    out[key] = value;
  }
  return out;
}

bool EndsWith(const std::string& s, const char* suffix) {
  const size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

// Interactive pathological latencies (perf_selfcheck 2d): simulated, so
// deterministic, but gated on a growth ceiling — the metric's job is to
// catch the latency mode widening, not to pin every nanosecond.
bool IsInteractiveLatency(const std::string& key) {
  return key.rfind("interactive_", 0) == 0 && EndsWith(key, "_us");
}

bool IsIgnored(const std::string& key) {
  static const char* kIgnored[] = {"hardware_concurrency", "grid_jobs", "grid_serial_sec",
                                   "grid_parallel_sec", "grid_speedup"};
  for (const char* k : kIgnored) {
    if (key == k) {
      return true;
    }
  }
  return false;
}

// Applies the tolerance policy to one fresh/baseline pair of flat maps.
void GatePerf(const std::map<std::string, std::string>& fresh,
              const std::map<std::string, std::string>& baseline) {
  for (const auto& [key, base_value] : baseline) {
    auto it = fresh.find(key);
    if (it == fresh.end()) {
      Result("FAIL", key, "missing from fresh results");
      continue;
    }
    const std::string& fresh_value = it->second;
    char detail[160];
    if (IsIgnored(key)) {
      std::snprintf(detail, sizeof(detail), "%s (machine-dependent, not gated)",
                    fresh_value.c_str());
      Result("ok", key, detail);
    } else if (EndsWith(key, "_per_sec")) {
      const double fresh_rate = std::strtod(fresh_value.c_str(), nullptr);
      const double base_rate = std::strtod(base_value.c_str(), nullptr);
      const double floor = base_rate * kMinRateRatio;
      std::snprintf(detail, sizeof(detail), "%.0f vs baseline %.0f (floor %.0f)", fresh_rate,
                    base_rate, floor);
      Result(fresh_rate >= floor ? "ok" : "FAIL", key, detail);
    } else if (key == "trace_disabled_overhead_pct") {
      const double pct = std::strtod(fresh_value.c_str(), nullptr);
      std::snprintf(detail, sizeof(detail), "%.2f%% (ceiling %.1f%%)", pct,
                    kMaxTraceOverheadPct);
      Result(pct <= kMaxTraceOverheadPct ? "ok" : "FAIL", key, detail);
    } else if (IsInteractiveLatency(key)) {
      const double fresh_us = std::strtod(fresh_value.c_str(), nullptr);
      const double ceiling = std::strtod(base_value.c_str(), nullptr) *
                             kMaxInteractiveGrowthRatio;
      std::snprintf(detail, sizeof(detail), "%.1f us vs baseline %s (ceiling %.1f)", fresh_us,
                    base_value.c_str(), ceiling);
      Result(fresh_us <= ceiling ? "ok" : "FAIL", key, detail);
    } else {
      std::snprintf(detail, sizeof(detail), "%s vs baseline %s", fresh_value.c_str(),
                    base_value.c_str());
      Result(fresh_value == base_value ? "ok" : "FAIL", key, detail);
    }
  }
  for (const auto& [key, value] : fresh) {
    if (baseline.find(key) == baseline.end()) {
      Result("warn", key, "new metric (no baseline yet): " + value);
    }
  }
}

// Trace metrics gating on a growth ceiling rather than exact equality:
// binary stream density, the streaming arena's high-water mark, and the
// timeline's point budget may creep as event kinds are added, but a >10%
// jump is an encoding, retention, or sampler-thinning regression.
bool IsCeilinged(const std::string& key) {
  return key == "binary_trace_bytes_per_event" || key == "streaming_graph_peak_nodes" ||
         key == "timeseries_points_per_flow";
}

void GateTrace(const std::map<std::string, std::string>& fresh,
               const std::map<std::string, std::string>& baseline) {
  for (const auto& [key, base_value] : baseline) {
    auto it = fresh.find(key);
    if (it == fresh.end()) {
      Result("FAIL", key, "missing from fresh trace metrics");
      continue;
    }
    if (key == "timeseries_overhead_pct") {
      // Wall-clock, so never exact: the hooks with no recording sampler
      // must stay under the same absolute ceiling as the detached-tracer
      // hooks.
      const double pct = std::strtod(it->second.c_str(), nullptr);
      char detail[160];
      std::snprintf(detail, sizeof(detail), "%.2f%% (ceiling %.1f%%)", pct,
                    kMaxTraceOverheadPct);
      Result(pct <= kMaxTraceOverheadPct ? "ok" : "FAIL", key, detail);
      continue;
    }
    if (IsCeilinged(key)) {
      const double fresh_value = std::strtod(it->second.c_str(), nullptr);
      const double ceiling = std::strtod(base_value.c_str(), nullptr) * kMaxTraceGrowthRatio;
      char detail[160];
      std::snprintf(detail, sizeof(detail), "%s vs baseline %s (ceiling %.3f)",
                    it->second.c_str(), base_value.c_str(), ceiling);
      Result(fresh_value <= ceiling ? "ok" : "FAIL", key, detail);
      continue;
    }
    Result(it->second == base_value ? "ok" : "FAIL", key,
           it->second + " vs baseline " + base_value);
  }
  for (const auto& [key, value] : fresh) {
    if (baseline.find(key) == baseline.end()) {
      Result("warn", key, "new metric (no baseline yet): " + value);
    }
  }
}

// Congestion goodput-grid metrics (bench/congestion): everything is
// simulated and deterministic, but the goodput/efficiency/fairness numbers
// may legitimately drift as the protocol stack evolves — the gate's job is
// to stop them *collapsing*, so they gate on a 0.90x floor of baseline
// (improvement always passes). Counters and the acceptance booleans
// (sack_epd_beats_reno_tail, gap_shrinks_with_buffer, all_flows_completed)
// stay exact.
bool IsCongestionFloored(const std::string& key) {
  return EndsWith(key, "_goodput_mbps") || EndsWith(key, "_efficiency") ||
         EndsWith(key, "_fairness");
}

void GateCongestion(const std::map<std::string, std::string>& fresh,
                    const std::map<std::string, std::string>& baseline) {
  for (const auto& [key, base_value] : baseline) {
    auto it = fresh.find(key);
    if (it == fresh.end()) {
      Result("FAIL", key, "missing from fresh congestion results");
      continue;
    }
    if (IsCongestionFloored(key)) {
      const double fresh_value = std::strtod(it->second.c_str(), nullptr);
      const double floor = std::strtod(base_value.c_str(), nullptr) * kMinCongestionRatio;
      char detail[160];
      std::snprintf(detail, sizeof(detail), "%s vs baseline %s (floor %.3f)",
                    it->second.c_str(), base_value.c_str(), floor);
      Result(fresh_value >= floor ? "ok" : "FAIL", key, detail);
      continue;
    }
    Result(it->second == base_value ? "ok" : "FAIL", key,
           it->second + " vs baseline " + base_value);
  }
  for (const auto& [key, value] : fresh) {
    if (baseline.find(key) == baseline.end()) {
      Result("warn", key, "new metric (no baseline yet): " + value);
    }
  }
}

// Pure-logic verification: the gate must pass on identical data and fail on
// a perturbed baseline, with no files involved.
int SelfTest() {
  std::map<std::string, std::string> perf = {
      {"quick", "true"},
      {"hardware_concurrency", "8"},
      {"rpc_round_trips_per_sec", "100000"},
      {"trace_disabled_overhead_pct", "1.50"},
      {"grid_results_identical", "true"},
      {"interactive_delack_p50_us", "202160.9"},
      {"interactive_nodelay_p99_us", "1938.2"},
  };
  const std::map<std::string, std::string> trace = {
      {"trace_bytes", "12345"},
      {"trace_events", "678"},
      {"trace_fnv64", "00deadbeef00cafe"},
      {"binary_trace_bytes_per_event", "12.790"},
      {"binary_roundtrip_identical", "true"},
      {"binary_executor_identical", "true"},
      {"streaming_matches_batch", "true"},
      {"streaming_graph_peak_nodes", "20"},
      {"trace_sampled_flows", "20"},
      {"sampled_blame_within_tolerance", "true"},
      {"spill_roundtrip_identical", "true"},
      {"reservoir_deterministic", "true"},
      {"timeseries_overhead_pct", "1.20"},
      {"timeseries_points_per_flow", "113.0"},
  };

  const std::map<std::string, std::string> congestion = {
      {"quick", "true"},
      {"flows", "8"},
      {"congestion_sack_epd_256_goodput_mbps", "3.670"},
      {"congestion_sack_epd_256_efficiency", "0.9440"},
      {"congestion_sack_epd_256_fairness", "1.0000"},
      {"congestion_sack_epd_256_retransmits", "56"},
      {"congestion_sack_epd_256_timeouts", "0"},
      {"congestion_sack_epd_beats_reno_tail", "true"},
      {"congestion_gap_shrinks_with_buffer", "true"},
      {"congestion_all_flows_completed", "true"},
  };

  std::printf("selftest: identical data must pass\n");
  GatePerf(perf, perf);
  GateTrace(trace, trace);
  GateCongestion(congestion, congestion);
  if (g_failures != 0) {
    std::printf("selftest FAILED: clean comparison reported %d failure(s)\n", g_failures);
    return 1;
  }

  std::printf("selftest: perturbed data must fail\n");
  int expected = 0;

  std::map<std::string, std::string> slow = perf;
  slow["rpc_round_trips_per_sec"] = "100";  // 1000x collapse, below the ratio floor
  g_failures = 0;
  GatePerf(slow, perf);
  expected += g_failures == 1 ? 0 : 1;

  std::map<std::string, std::string> diverged = perf;
  diverged["grid_results_identical"] = "false";
  g_failures = 0;
  GatePerf(diverged, perf);
  expected += g_failures == 1 ? 0 : 1;

  std::map<std::string, std::string> heavy = perf;
  heavy["trace_disabled_overhead_pct"] = "25.00";
  g_failures = 0;
  GatePerf(heavy, perf);
  expected += g_failures == 1 ? 0 : 1;

  // Interactive latency ceilings: drift within 10% (or any improvement)
  // passes...
  std::map<std::string, std::string> interactive_drift = perf;
  interactive_drift["interactive_delack_p50_us"] = "210000.0";  // +3.9%
  interactive_drift["interactive_nodelay_p99_us"] = "900.0";    // faster
  g_failures = 0;
  GatePerf(interactive_drift, perf);
  expected += g_failures == 0 ? 0 : 1;

  // ...but a widened pathology (the mode re-arming in a "fixed" cell, or
  // the timer cliff growing) trips the ceiling.
  std::map<std::string, std::string> interactive_worse = perf;
  interactive_worse["interactive_delack_p50_us"] = "402000.0";  // 2x the mode
  interactive_worse["interactive_nodelay_p99_us"] = "202000.0";  // mode re-armed
  g_failures = 0;
  GatePerf(interactive_worse, perf);
  expected += g_failures == 2 ? 0 : 1;

  std::map<std::string, std::string> drifted = trace;
  drifted["trace_fnv64"] = "0123456789abcdef";
  g_failures = 0;
  GateTrace(drifted, trace);
  expected += g_failures == 1 ? 0 : 1;

  // Ceiling metrics: growth within 10% of baseline passes...
  std::map<std::string, std::string> creep = trace;
  creep["binary_trace_bytes_per_event"] = "13.900";
  creep["streaming_graph_peak_nodes"] = "21";
  g_failures = 0;
  GateTrace(creep, trace);
  expected += g_failures == 0 ? 0 : 1;

  // ...growth past it is an encoding/retention regression...
  std::map<std::string, std::string> bloated = trace;
  bloated["binary_trace_bytes_per_event"] = "15.100";
  bloated["streaming_graph_peak_nodes"] = "40";
  g_failures = 0;
  GateTrace(bloated, trace);
  expected += g_failures == 2 ? 0 : 1;

  // ...and a lost pipeline property fails exactly.
  std::map<std::string, std::string> broken = trace;
  broken["binary_executor_identical"] = "false";
  broken["trace_sampled_flows"] = "3";
  g_failures = 0;
  GateTrace(broken, trace);
  expected += g_failures == 2 ? 0 : 1;

  // Timeseries: wall-clock overhead drift under the absolute ceiling
  // passes, and the deterministic point budget may shrink freely...
  std::map<std::string, std::string> ts_drift = trace;
  ts_drift["timeseries_overhead_pct"] = "7.80";
  ts_drift["timeseries_points_per_flow"] = "90.0";
  g_failures = 0;
  GateTrace(ts_drift, trace);
  expected += g_failures == 0 ? 0 : 1;

  // ...but hooks past the ceiling, a bloated point budget, or a lost spill
  // or reservoir property all fail.
  std::map<std::string, std::string> ts_broken = trace;
  ts_broken["timeseries_overhead_pct"] = "25.00";
  ts_broken["timeseries_points_per_flow"] = "140.0";
  ts_broken["spill_roundtrip_identical"] = "false";
  ts_broken["reservoir_deterministic"] = "false";
  g_failures = 0;
  GateTrace(ts_broken, trace);
  expected += g_failures == 4 ? 0 : 1;

  // Congestion floors: goodput/efficiency/fairness within 10% of baseline
  // (or better) pass...
  std::map<std::string, std::string> cong_drift = congestion;
  cong_drift["congestion_sack_epd_256_goodput_mbps"] = "3.400";  // -7.4%
  cong_drift["congestion_sack_epd_256_efficiency"] = "0.9600";   // better
  g_failures = 0;
  GateCongestion(cong_drift, congestion);
  expected += g_failures == 0 ? 0 : 1;

  // ...a goodput collapse past the floor fails...
  std::map<std::string, std::string> cong_collapse = congestion;
  cong_collapse["congestion_sack_epd_256_goodput_mbps"] = "1.800";
  cong_collapse["congestion_sack_epd_256_fairness"] = "0.5000";
  g_failures = 0;
  GateCongestion(cong_collapse, congestion);
  expected += g_failures == 2 ? 0 : 1;

  // ...and a lost ordering or determinism boolean fails exactly, as does a
  // drifted deterministic counter.
  std::map<std::string, std::string> cong_broken = congestion;
  cong_broken["congestion_sack_epd_beats_reno_tail"] = "false";
  cong_broken["congestion_sack_epd_256_timeouts"] = "12";
  g_failures = 0;
  GateCongestion(cong_broken, congestion);
  expected += g_failures == 2 ? 0 : 1;

  // A hardware difference alone must NOT fail.
  std::map<std::string, std::string> other_machine = perf;
  other_machine["hardware_concurrency"] = "128";
  other_machine["rpc_round_trips_per_sec"] = "20000";  // 5x slower: within ratio
  g_failures = 0;
  GatePerf(other_machine, perf);
  expected += g_failures == 0 ? 0 : 1;

  if (expected != 0) {
    std::printf("selftest FAILED: %d scenario(s) did not gate as expected\n", expected);
    return 1;
  }
  std::printf("selftest passed\n");
  return 0;
}

int Run(const BenchFlags& flags) {
  if (flags.selftest) {
    return SelfTest();
  }
  if (flags.perf_path.empty() || flags.trace_path.empty()) {
    std::fprintf(stderr, "regression_gate: --perf and --trace are required (or --selftest)\n");
    return 2;
  }
  const std::string dir = flags.baseline_dir.empty() ? "bench/baselines" : flags.baseline_dir;
  const std::string perf_baseline_path = dir + "/BENCH_perf.json";
  const std::string trace_baseline_path = dir + "/BENCH_trace.json";
  const std::string congestion_baseline_path = dir + "/BENCH_congestion.json";

  std::string fresh_perf_text;
  std::string fresh_trace_text;
  std::string fresh_congestion_text;
  if (!ReadFile(flags.perf_path, &fresh_perf_text) ||
      !ReadFile(flags.trace_path, &fresh_trace_text)) {
    return 2;
  }
  // The congestion grid file is optional so pre-existing two-file
  // invocations keep working; CI passes all three.
  if (!flags.congestion_path.empty() &&
      !ReadFile(flags.congestion_path, &fresh_congestion_text)) {
    return 2;
  }
  const std::map<std::string, std::string> fresh_perf = ParseFlatJson(fresh_perf_text);
  const std::map<std::string, std::string> fresh_trace = ParseFlatJson(fresh_trace_text);

  if (flags.write_baseline) {
    if (!WriteTextFile(perf_baseline_path, fresh_perf_text) ||
        !WriteTextFile(trace_baseline_path, fresh_trace_text)) {
      return 2;
    }
    if (!flags.congestion_path.empty() &&
        !WriteTextFile(congestion_baseline_path, fresh_congestion_text)) {
      return 2;
    }
    std::printf("wrote %s and %s\n", perf_baseline_path.c_str(), trace_baseline_path.c_str());
    return 0;
  }

  std::string perf_baseline_text;
  std::string trace_baseline_text;
  if (!ReadFile(perf_baseline_path, &perf_baseline_text) ||
      !ReadFile(trace_baseline_path, &trace_baseline_text)) {
    std::fprintf(stderr, "regression_gate: no baselines in %s (run --write-baseline first)\n",
                 dir.c_str());
    return 2;
  }

  std::printf("perf metrics (%s vs %s):\n", flags.perf_path.c_str(), perf_baseline_path.c_str());
  GatePerf(fresh_perf, ParseFlatJson(perf_baseline_text));
  std::printf("trace metrics (%s vs %s):\n", flags.trace_path.c_str(),
              trace_baseline_path.c_str());
  GateTrace(fresh_trace, ParseFlatJson(trace_baseline_text));

  if (!flags.congestion_path.empty()) {
    std::string congestion_baseline_text;
    if (!ReadFile(congestion_baseline_path, &congestion_baseline_text)) {
      std::fprintf(stderr,
                   "regression_gate: no congestion baseline in %s (run --write-baseline)\n",
                   dir.c_str());
      return 2;
    }
    std::printf("congestion metrics (%s vs %s):\n", flags.congestion_path.c_str(),
                congestion_baseline_path.c_str());
    GateCongestion(ParseFlatJson(fresh_congestion_text),
                   ParseFlatJson(congestion_baseline_text));
  }

  std::printf("%d failure(s), %d warning(s)\n", g_failures, g_warnings);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace tcplat

int main(int argc, char** argv) {
  tcplat::BenchFlags flags;
  if (!tcplat::ParseBenchFlags(argc, argv, &flags,
                               "[--quick] [--perf PATH] [--trace PATH] [--congestion PATH] "
                               "[--baseline-dir DIR] [--write-baseline] [--selftest]")) {
    return 2;
  }
  return tcplat::Run(flags);
}
