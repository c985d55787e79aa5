// Perf regression gate: diffs a fresh BENCH_perf.json / BENCH_trace.json /
// BENCH_congestion.json against committed baselines (bench/baselines/) and
// exits non-zero on a regression so CI can fail the build.
//
// One policy table (kPolicies) covers all three files. Each row names keys
// by prefix and suffix and gives a rule and a bound; the first matching row
// wins, and a key no row matches must equal its baseline exactly (simulated
// facts, counters, hashes and acceptance booleans). The rules:
//  * ignore: machine facts and raw wall-clock seconds are reported only;
//  * floor: fresh >= bound x baseline. Wall-clock rates (_per_sec) vary
//    wildly across CI hardware, so they gate on collapse only (0.10x); the
//    congestion grid's goodput/efficiency/fairness may drift as the stack
//    evolves but must not collapse (0.90x);
//  * ceiling: fresh <= bound x baseline, for simulated quantities allowed to
//    creep but not jump (interactive latencies, TLBT bytes/event, timeline
//    points/flow; 1.10x). Getting smaller is always fine;
//  * absolute ceiling: fresh <= bound, for the wall-clock hook overheads
//    (detached tracer, timeseries hooks with no recording sampler; 10%).
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

enum class Rule { kIgnore, kFloor, kCeiling, kAbsCeiling };

struct Policy {
  const char* prefix;
  const char* suffix;
  Rule rule;
  double bound;
};

constexpr Policy kPolicies[] = {
    {"hardware_concurrency", "", Rule::kIgnore, 0},
    {"grid_jobs", "", Rule::kIgnore, 0},
    {"grid_serial_sec", "", Rule::kIgnore, 0},
    {"grid_parallel_sec", "", Rule::kIgnore, 0},
    {"grid_speedup", "", Rule::kIgnore, 0},
    {"", "_per_sec", Rule::kFloor, 0.10},
    {"trace_disabled_overhead_pct", "", Rule::kAbsCeiling, 10.0},
    {"timeseries_overhead_pct", "", Rule::kAbsCeiling, 10.0},
    {"interactive_", "_us", Rule::kCeiling, 1.10},
    {"binary_trace_bytes_per_event", "", Rule::kCeiling, 1.10},
    {"timeseries_points_per_flow", "", Rule::kCeiling, 1.10},
    {"", "_goodput_mbps", Rule::kFloor, 0.90},
    {"", "_efficiency", Rule::kFloor, 0.90},
    {"", "_fairness", Rule::kFloor, 0.90},
};

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

// The first row whose prefix and suffix both match `key`, or nullptr.
const Policy* FindPolicy(const std::string& key) {
  for (const Policy& p : kPolicies) {
    const size_t pre = std::strlen(p.prefix);
    const size_t suf = std::strlen(p.suffix);
    if (key.size() >= pre + suf && key.compare(0, pre, p.prefix) == 0 &&
        key.compare(key.size() - suf, suf, p.suffix) == 0) {
      return &p;
    }
  }
  return nullptr;
}

// Applies the policy table to one fresh/baseline pair of flat maps: a
// baseline key missing from the fresh results fails, a fresh key with no
// baseline warns.
void Gate(const std::map<std::string, std::string>& fresh,
          const std::map<std::string, std::string>& baseline) {
  for (const auto& [key, base_value] : baseline) {
    const auto it = fresh.find(key);
    if (it == fresh.end()) {
      Result("FAIL", key, "missing from fresh results");
      continue;
    }
    const std::string& value = it->second;
    const double fresh_num = std::strtod(value.c_str(), nullptr);
    const double base_num = std::strtod(base_value.c_str(), nullptr);
    const Policy* policy = FindPolicy(key);
    char detail[160];
    bool ok = true;
    if (policy == nullptr) {
      std::snprintf(detail, sizeof(detail), "%s vs baseline %s", value.c_str(),
                    base_value.c_str());
      ok = value == base_value;
    } else if (policy->rule == Rule::kIgnore) {
      std::snprintf(detail, sizeof(detail), "%s (machine-dependent, not gated)", value.c_str());
    } else if (policy->rule == Rule::kFloor) {
      const double floor = base_num * policy->bound;
      std::snprintf(detail, sizeof(detail), "%s vs baseline %s (floor %.3f)", value.c_str(),
                    base_value.c_str(), floor);
      ok = fresh_num >= floor;
    } else if (policy->rule == Rule::kCeiling) {
      const double ceiling = base_num * policy->bound;
      std::snprintf(detail, sizeof(detail), "%s vs baseline %s (ceiling %.3f)", value.c_str(),
                    base_value.c_str(), ceiling);
      ok = fresh_num <= ceiling;
    } else {
      std::snprintf(detail, sizeof(detail), "%s (ceiling %.1f)", value.c_str(), policy->bound);
      ok = fresh_num <= policy->bound;
    }
    Result(ok ? "ok" : "FAIL", key, detail);
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
      {"trace_sampled_flows", "20"},
      {"sampled_blame_within_tolerance", "true"},
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
  Gate(perf, perf);
  Gate(trace, trace);
  Gate(congestion, congestion);
  if (g_failures != 0) {
    std::printf("selftest FAILED: clean comparison reported %d failure(s)\n", g_failures);
    return 1;
  }

  std::printf("selftest: perturbed data must fail\n");
  int expected = 0;

  std::map<std::string, std::string> slow = perf;
  slow["rpc_round_trips_per_sec"] = "100";  // 1000x collapse, below the ratio floor
  g_failures = 0;
  Gate(slow, perf);
  expected += g_failures == 1 ? 0 : 1;

  std::map<std::string, std::string> diverged = perf;
  diverged["grid_results_identical"] = "false";
  g_failures = 0;
  Gate(diverged, perf);
  expected += g_failures == 1 ? 0 : 1;

  std::map<std::string, std::string> heavy = perf;
  heavy["trace_disabled_overhead_pct"] = "25.00";
  g_failures = 0;
  Gate(heavy, perf);
  expected += g_failures == 1 ? 0 : 1;

  // Interactive latency ceilings: drift within 10% (or any improvement)
  // passes...
  std::map<std::string, std::string> interactive_drift = perf;
  interactive_drift["interactive_delack_p50_us"] = "210000.0";  // +3.9%
  interactive_drift["interactive_nodelay_p99_us"] = "900.0";    // faster
  g_failures = 0;
  Gate(interactive_drift, perf);
  expected += g_failures == 0 ? 0 : 1;

  // ...but a widened pathology (the mode re-arming in a "fixed" cell, or
  // the timer cliff growing) trips the ceiling.
  std::map<std::string, std::string> interactive_worse = perf;
  interactive_worse["interactive_delack_p50_us"] = "402000.0";  // 2x the mode
  interactive_worse["interactive_nodelay_p99_us"] = "202000.0";  // mode re-armed
  g_failures = 0;
  Gate(interactive_worse, perf);
  expected += g_failures == 2 ? 0 : 1;

  std::map<std::string, std::string> drifted = trace;
  drifted["trace_fnv64"] = "0123456789abcdef";
  g_failures = 0;
  Gate(drifted, trace);
  expected += g_failures == 1 ? 0 : 1;

  // Ceiling metrics: growth within 10% of baseline passes...
  std::map<std::string, std::string> creep = trace;
  creep["binary_trace_bytes_per_event"] = "13.900";
  g_failures = 0;
  Gate(creep, trace);
  expected += g_failures == 0 ? 0 : 1;

  // ...growth past it is an encoding regression...
  std::map<std::string, std::string> bloated = trace;
  bloated["binary_trace_bytes_per_event"] = "15.100";
  g_failures = 0;
  Gate(bloated, trace);
  expected += g_failures == 1 ? 0 : 1;

  // ...and a lost pipeline property fails exactly.
  std::map<std::string, std::string> broken = trace;
  broken["binary_executor_identical"] = "false";
  broken["trace_sampled_flows"] = "3";
  g_failures = 0;
  Gate(broken, trace);
  expected += g_failures == 2 ? 0 : 1;

  // Timeseries: wall-clock overhead drift under the absolute ceiling
  // passes, and the deterministic point budget may shrink freely...
  std::map<std::string, std::string> ts_drift = trace;
  ts_drift["timeseries_overhead_pct"] = "7.80";
  ts_drift["timeseries_points_per_flow"] = "90.0";
  g_failures = 0;
  Gate(ts_drift, trace);
  expected += g_failures == 0 ? 0 : 1;

  // ...but hooks past the ceiling or a bloated point budget fail.
  std::map<std::string, std::string> ts_broken = trace;
  ts_broken["timeseries_overhead_pct"] = "25.00";
  ts_broken["timeseries_points_per_flow"] = "140.0";
  g_failures = 0;
  Gate(ts_broken, trace);
  expected += g_failures == 2 ? 0 : 1;

  // Congestion floors: goodput/efficiency/fairness within 10% of baseline
  // (or better) pass...
  std::map<std::string, std::string> cong_drift = congestion;
  cong_drift["congestion_sack_epd_256_goodput_mbps"] = "3.400";  // -7.4%
  cong_drift["congestion_sack_epd_256_efficiency"] = "0.9600";   // better
  g_failures = 0;
  Gate(cong_drift, congestion);
  expected += g_failures == 0 ? 0 : 1;

  // ...a goodput collapse past the floor fails...
  std::map<std::string, std::string> cong_collapse = congestion;
  cong_collapse["congestion_sack_epd_256_goodput_mbps"] = "1.800";
  cong_collapse["congestion_sack_epd_256_fairness"] = "0.5000";
  g_failures = 0;
  Gate(cong_collapse, congestion);
  expected += g_failures == 2 ? 0 : 1;

  // ...and a lost ordering or determinism boolean fails exactly, as does a
  // drifted deterministic counter.
  std::map<std::string, std::string> cong_broken = congestion;
  cong_broken["congestion_sack_epd_beats_reno_tail"] = "false";
  cong_broken["congestion_sack_epd_256_timeouts"] = "12";
  g_failures = 0;
  Gate(cong_broken, congestion);
  expected += g_failures == 2 ? 0 : 1;

  // A hardware difference alone must NOT fail.
  std::map<std::string, std::string> other_machine = perf;
  other_machine["hardware_concurrency"] = "128";
  other_machine["rpc_round_trips_per_sec"] = "20000";  // 5x slower: within ratio
  g_failures = 0;
  Gate(other_machine, perf);
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
  Gate(fresh_perf, ParseFlatJson(perf_baseline_text));
  std::printf("trace metrics (%s vs %s):\n", flags.trace_path.c_str(),
              trace_baseline_path.c_str());
  Gate(fresh_trace, ParseFlatJson(trace_baseline_text));

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
    Gate(ParseFlatJson(fresh_congestion_text),
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
                               "[--perf PATH] [--trace PATH] [--congestion PATH] "
                               "[--baseline-dir DIR] [--write-baseline] [--selftest]")) {
    return 2;
  }
  return tcplat::Run(flags);
}
