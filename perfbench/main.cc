// perfbench: the simulator's end-to-end and per-layer benchmark.
//
//   perfbench --workload <paper_sweep|star64|bulk16_loss> --seed N
//             --seconds S --trace 0|1 [--commit C] [--spans-out FILE]
//
// --trace 0 repeats the workload's fixed simulated work, untraced, for S
// seconds and reports the end-to-end metrics: medians over repetitions,
// with each repetition's host time scaled to the reference host speed by
// the calibration loop (calibrate.h) run before and after it.
// --trace 1 reports the per-layer metrics: tracing overheads from
// alternating repetitions, exact work counts from the layers' public stats,
// and per-unit host costs from replaying the recorded units (layers.h).
// Either way the last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Every repetition's simulated outputs must match the first one's digest.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "calibrate.h"
#include "layers.h"
#include "spans.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown " __VERSION__
#endif

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Calibration-loop seconds that define the reference host speed: about one
// pass on an unloaded core of the 4-core x86-64 host the benchmark was
// built on, so reference seconds read close to host seconds there.
constexpr double kReferenceCalibrationS = 0.012;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string commit = "unknown";
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (*value == '\0' || *end != '\0' || *value == '-') return false;
      have_seed = true;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (*value == '\0' || *end != '\0' || !(args->seconds > 0) || args->seconds > 120) {
        return false;
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) return false;
      args->trace = value[0] - '0';
    } else if (flag == "--commit") {
      args->commit = value;
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else {
      return false;
    }
  }
  return have_seed && args->seconds > 0 && args->trace >= 0 &&
         MakeRun(args->workload, 0) != nullptr;
}

double Seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n == 0 ? 0.0 : (n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2);
}

// "median M pP T max X": the median, the highest percentile P that has at
// least ten samples beyond it (omitted with ten samples or fewer) and the
// maximum, for the human-readable summary.
std::string Distribution(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  char buf[128];
  int n = std::snprintf(buf, sizeof(buf), "median %.6f", Median(v));
  if (v.size() > 10) {
    const size_t i = v.size() - 11;  // v[i] has exactly ten samples above it
    n += std::snprintf(buf + n, sizeof(buf) - n, " p%.0f %.6f",
                       100.0 * static_cast<double>(i + 1) / static_cast<double>(v.size()), v[i]);
  }
  std::snprintf(buf + n, sizeof(buf) - n, " max %.6f", v.back());
  return buf;
}

// The process's resident high-water mark (VmHWM). getrusage's ru_maxrss is
// not used: Linux carries it across exec, so it would report the launching
// Python process's peak whenever that is larger.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

// Tracks correctness and operation counts across every repetition.
class Verdict {
 public:
  void Add(const Outcome& out, const char* what) {
    attempted_ += out.ops_attempted;
    failed_ += out.ops_failed;
    for (const std::string& p : out.problems) Problem(std::string(what) + ": " + p);
    if (!have_digest_) {
      digest_ = out.digest;
      have_digest_ = true;
    } else if (out.digest != digest_) {
      Problem(std::string(what) + ": simulated outputs differ from the first repetition");
    }
  }
  void Problem(const std::string& p) {
    if (problems_.size() < 20) std::printf("problem: %s\n", p.c_str());
    problems_.push_back(p);
  }
  bool correct() const { return problems_.empty() && failed_ == 0 && attempted_ > 0; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  uint64_t digest() const { return digest_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t digest_ = 0;
  bool have_digest_ = false;
  std::vector<std::string> problems_;
};

void PrintResult(const Verdict& verdict, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-32s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              verdict.correct() ? "true" : "false",
              static_cast<unsigned long long>(verdict.attempted()),
              static_cast<unsigned long long>(verdict.failed()));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), v, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

// One repetition: fresh testbeds, timed set-up, timed execution.
struct Rep {
  double setup_s = 0;
  double wall_s = 0;
  Outcome outcome;
};

Rep RunRep(const Args& args, SpanLog* spans, tcplat::Tracer* tracer,
           UnitRecording* recording) {
  Rep rep;
  std::unique_ptr<WorkloadRun> run = MakeRun(args.workload, args.seed);
  const Clock::time_point t0 = Clock::now();
  {
    ScopedSpan span(spans, "setup");
    run->Setup();
  }
  const Clock::time_point t1 = Clock::now();
  if (tracer != nullptr) run->AttachTracer(tracer);
  if (recording != nullptr) run->AttachObserver(recording->Observer());
  const Clock::time_point t2 = Clock::now();
  run->Execute(spans);
  const Clock::time_point t3 = Clock::now();
  rep.setup_s = Seconds(t1 - t0);
  rep.wall_s = Seconds(t3 - t2);
  rep.outcome = run->Finish();
  return rep;
}

// Mean and worst |simulated - paper| / paper over the 16 Table 1 cells, %.
void PaperError(const std::vector<double>& rtt_us, double* mean_pct, double* max_pct) {
  const std::vector<double> paper = PaperTable1Us();
  double sum = 0;
  *max_pct = 0;
  for (size_t i = 0; i < paper.size() && i < rtt_us.size(); ++i) {
    const double err = 100.0 * std::fabs(rtt_us[i] - paper[i]) / paper[i];
    sum += err;
    *max_pct = std::max(*max_pct, err);
  }
  *mean_pct = sum / static_cast<double>(paper.size());
}

int RunEndToEnd(const Args& args) {
  std::printf("peak_rss_mb before the first repetition %.3f\n", PeakRssMb());
  Verdict verdict;
  std::vector<double> setup;  // host seconds of each repetition
  std::vector<double> wall;
  std::vector<double> calib{CalibrateSeconds()};  // calib[i], calib[i + 1] bracket rep i
  std::vector<double> table1;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::nanoseconds(static_cast<int64_t>(args.seconds * 1e9));
  while (wall.size() < 3 || Clock::now() < deadline) {
    Rep rep = RunRep(args, nullptr, nullptr, nullptr);
    calib.push_back(CalibrateSeconds());
    setup.push_back(rep.setup_s);
    wall.push_back(rep.wall_s);
    if (table1.empty()) table1 = rep.outcome.table1_rtt_us;
    verdict.Add(rep.outcome, "rep");
  }
  const double peak_rss_mb = PeakRssMb();  // before the fidelity pass below
  // Fidelity comes from the Table 1 cells; workloads other than
  // paper_sweep run them once more, untimed.
  if (table1.empty()) {
    Args paper = args;
    paper.workload = "paper_sweep";
    Rep rep = RunRep(paper, nullptr, nullptr, nullptr);
    for (const std::string& p : rep.outcome.problems) verdict.Problem("fidelity: " + p);
    table1 = rep.outcome.table1_rtt_us;
  }
  double err_mean = 0;
  double err_max = 0;
  PaperError(table1, &err_mean, &err_max);

  // Each repetition at the reference host speed.
  std::vector<double> wall_ref;
  std::vector<double> setup_ref;
  for (size_t i = 0; i < wall.size(); ++i) {
    const double scale = kReferenceCalibrationS / ((calib[i] + calib[i + 1]) / 2);
    wall_ref.push_back(wall[i] * scale);
    setup_ref.push_back(setup[i] * scale);
  }

  std::printf("reps %zu  calibration_s median %.6f (reference %.6f)\n", wall.size(),
              Median(calib), kReferenceCalibrationS);
  std::printf("host      wall_s %s  setup_s %s\n", Distribution(wall).c_str(),
              Distribution(setup).c_str());
  std::printf("reference wall_s %s  setup_s %s\n", Distribution(wall_ref).c_str(),
              Distribution(setup_ref).c_str());
  std::printf("fail_ratio %llu/%llu\n", static_cast<unsigned long long>(verdict.failed()),
              static_cast<unsigned long long>(verdict.attempted()));
  std::printf("digest %016llx\n", static_cast<unsigned long long>(verdict.digest()));
  PrintResult(verdict, {
                           {"wall_s", Median(wall_ref), "s"},
                           {"setup_s", Median(setup_ref), "s"},
                           {"peak_rss_mb", peak_rss_mb, "MB"},
                           {"paper_err_pct", err_mean, "%"},
                           {"paper_err_max_pct", err_max, "%"},
                       });
  return 0;
}

int RunTraced(const Args& args, SpanLog* spans) {
  Verdict verdict;
  // Alternate four modes so drift hits each alike: untraced, benchmark
  // spans only, simulator Tracer attached but not recording, and Tracer
  // recording.
  enum Mode { kNone = 0, kSpans, kTracerOff, kTracerOn, kModes };
  static const char* const kModeNames[kModes] = {"untraced", "spans", "tracer_off",
                                                 "tracer_on"};
  std::vector<double> wall[kModes];
  uint64_t trace_events = 0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::nanoseconds(static_cast<int64_t>(args.seconds * 1e9));
  for (int round = 0; round < 2 || Clock::now() < deadline; ++round) {
    for (int k = 0; k < kModes; ++k) {
      const int mode = (round + k) % kModes;
      tcplat::Tracer tracer;
      tracer.set_enabled(mode == kTracerOn);
      ScopedSpan span(mode == kSpans ? spans : nullptr, "rep");
      Rep rep = RunRep(args, mode == kSpans ? spans : nullptr,
                       mode >= kTracerOff ? &tracer : nullptr, nullptr);
      wall[mode].push_back(rep.wall_s);
      if (mode == kTracerOn) trace_events = tracer.events().size();
      verdict.Add(rep.outcome, kModeNames[mode]);
    }
  }
  const double base = Median(wall[kNone]);
  // Each round ran every mode once, back to back, so a mode is compared
  // with the untraced repetition of its own round.
  const auto overhead_pct = [&](int mode) {
    std::vector<double> ratios;
    for (size_t r = 0; r < wall[mode].size(); ++r) ratios.push_back(wall[mode][r] / wall[kNone][r]);
    return 100.0 * (Median(ratios) - 1.0);
  };

  // Counting run through the observe-only seam; its outputs must match the
  // untraced repetitions exactly.
  UnitRecording recording(args.workload == "paper_sweep" ? 4000 : 50000);
  Rep observed;
  {
    ScopedSpan span(spans, "observe");
    observed = RunRep(args, spans, nullptr, &recording);
  }
  verdict.Add(observed.outcome, "observed");
  const LayerCounts& counts = observed.outcome.counts;
  UnitCosts costs;
  {
    ScopedSpan span(spans, "replay");
    costs = MeasureUnitCosts(recording, counts, observed.outcome.vc_buffer_cells, 0.3, spans);
  }

  std::vector<Metric> metrics = LayerReport(counts, costs, base * 1e9);
  metrics.push_back({"sim.pending_depth", recording.mean_pending_depth(), "count"});
  metrics.push_back({"trace.off_overhead_pct", overhead_pct(kTracerOff), "%"});
  metrics.push_back({"trace.on_overhead_pct", overhead_pct(kTracerOn), "%"});
  metrics.push_back({"trace.events", static_cast<double>(trace_events), "count"});
  metrics.push_back({"bench.span_overhead_pct", overhead_pct(kSpans), "%"});

  // The layer shares are replay estimates, so they can overshoot the
  // measured wall time; that is reported, not treated as a wrong output.
  double sum = 0;
  std::vector<std::pair<std::string, double>> ranked = LayerShares(counts, costs, base * 1e9);
  for (const auto& [name, share] : ranked) sum += share;
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  std::printf("untraced wall_s median %.6f over %zu reps; share sum (layers) %.4f + stack "
              "%.4f = 1\n",
              base, wall[kNone].size(), sum, 1.0 - sum);
  std::printf("layer ranking:");
  for (const auto& [name, share] : ranked) std::printf(" %s=%.3f", name.c_str(), share);
  std::printf("\n");
  if (sum > 1.0) {
    std::printf("warning: layer estimates exceed the untraced wall time; stack.share < 0\n");
  }
  std::printf("fail_ratio %llu/%llu\n", static_cast<unsigned long long>(verdict.failed()),
              static_cast<unsigned long long>(verdict.attempted()));
  std::printf("digest %016llx\n", static_cast<unsigned long long>(verdict.digest()));
  if (spans != nullptr && !args.spans_out.empty()) {
    if (spans->WriteChromeJson(args.spans_out)) {
      std::printf("spans %zu written to %s\n", spans->spans().size(), args.spans_out.c_str());
    } else {
      std::printf("spans: could not write %s\n", args.spans_out.c_str());
    }
  }
  PrintResult(verdict, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Clock::time_point start = Clock::now();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <paper_sweep|star64|bulk16_loss> --seed N "
                 "--seconds S --trace 0|1 [--commit C] [--spans-out FILE]\n");
    return 2;
  }
#if !defined(__OPTIMIZE__)
  std::fprintf(stderr, "perfbench: refusing to time an unoptimised build (%s)\n",
               PERFBENCH_BUILD_TYPE);
  return 3;
#endif
  const std::string params = WorkloadParams(args.workload, args.seed);
  std::printf("env {\"build_type\": \"%s\", \"compiler\": \"%s\", \"nproc\": %u, "
              "\"commit\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
              "\"trace\": %d, \"params\": %s}\n",
              PERFBENCH_BUILD_TYPE, JsonEscape(PERFBENCH_COMPILER).c_str(),
              std::thread::hardware_concurrency(), JsonEscape(args.commit).c_str(),
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace, params.c_str());
  std::fflush(stdout);
  if (args.trace == 0) return RunEndToEnd(args);
  SpanLog spans(start);
  return RunTraced(args, &spans);
}
