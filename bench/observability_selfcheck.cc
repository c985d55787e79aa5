// Self-check for the observability subsystem. Part one runs the standard
// 1400-byte ATM echo with the packet-lifecycle tracer attached and
// verifies, end to end, the properties the trace is allowed to be trusted
// for:
//
//   1. the trace is populated at every layer it claims to cover;
//   2. per-layer span sums recovered from the trace equal the SpanTracker
//      aggregate totals to the nanosecond (the trace is lossless);
//   3. metrics-registry views read back exactly the stats-struct fields
//      they alias;
//   4. a fixed seed produces a byte-identical Perfetto JSON trace, run to
//      run AND when the runs execute on the src/exec/ parallel executor.
//
// Part two covers the TLBT capture format (src/trace/binary_trace.h), flow
// sampling and their consumers:
//
//   5. encoding the echo's event log as TLBT and decoding it back
//      reproduces the Perfetto JSON byte-for-byte (lossless round trip);
//   6. on an 8-flow capacity cell, the TLBT capture is byte-identical
//      run serially and run four times at once on a 4-job executor;
//   7. attribution over the decoded 8-flow capture covers every measured
//      round trip, every window's stages telescope to its RTT with 0 ns
//      error, and >= 95% of the p99-p50 gap is attributed;
//   8. with 1-in-8 flow sampling on the big capacity cell, peak tracer
//      memory drops >= 4x versus the full trace while the sampled p99
//      stage blame tracks the full-trace blame per stage.
//
// Part three covers the timeseries plane:
//
//   9. the timeseries hooks cost nothing when no sampler is attached
//      (timeseries_overhead_pct, gated on an absolute ceiling);
//  10. the default-period timeseries plane stays frugal
//      (timeseries_points_per_flow, gated on a 1.10x ceiling).
//
// Writes a flat metrics JSON (the regression-gate input) to
// BENCH_trace.json — override with --out — and the reference Perfetto
// trace next to it (<out>_perfetto.json) for ui.perfetto.dev. --bin-out
// additionally writes the 8-flow cell's TLBT capture. Exits nonzero on any
// failure.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_flags.h"

#include "src/base/check.h"
#include "src/core/rpc_benchmark.h"
#include "src/core/testbed.h"
#include "src/exec/executor.h"
#include "src/trace/attribution.h"
#include "src/trace/binary_trace.h"
#include "src/trace/causal_graph.h"
#include "src/trace/timeseries.h"
#include "src/trace/tracer.h"
#include "src/workload/capacity.h"

namespace tcplat {
namespace {

int g_failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
  }
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
}

uint64_t Fnv1a64(const std::string& data) {
  uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : data) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

struct TracedRun {
  std::string json;
  std::string blob;  // the event log as a TLBT stream
  size_t events = 0;
  int64_t max_span_delta_ns = 0;
  bool metrics_match = true;
  bool layers_covered = true;
};

TracedRun RunOnce(size_t size) {
  TestbedConfig cfg;
  Testbed tb(cfg);
  Tracer tracer;
  tb.AttachTracer(&tracer);
  RpcOptions opt;
  opt.size = size;
  opt.iterations = 50;
  opt.warmup = 16;
  RunRpcBenchmark(tb, opt);

  TracedRun out;
  out.events = tracer.events().size();
  out.json = tracer.ToPerfettoJson();
  out.blob = EncodeBinaryTrace(tracer);

  // (2) lossless: trace-recovered span sums == tracker totals.
  for (Host* host : {&tb.client_host(), &tb.server_host()}) {
    const auto from_trace = tracer.SpanSelfTotalsNanos(host->trace_id());
    for (size_t i = 0; i < from_trace.size(); ++i) {
      const int64_t tracker_ns = host->tracker().total(static_cast<SpanId>(i)).nanos();
      out.max_span_delta_ns =
          std::max(out.max_span_delta_ns, std::abs(from_trace[i] - tracker_ns));
    }
  }

  // (3) registry views alias the live structs.
  const TcpStats& tcp = tb.client_tcp().stats();
  const IpStats& ip = tb.client_ip().stats();
  MetricsRegistry& m = tb.client_host().metrics();
  out.metrics_match =
      m.contains("tcp.segs_sent") && m.contains("ip.ipq_wait_ns") &&
      [&] {
        for (const MetricsRegistry::Sample& s : m.Snapshot()) {
          if (s.name == "tcp.segs_sent" && s.value != static_cast<int64_t>(tcp.segs_sent)) {
            return false;
          }
          if (s.name == "ip.packets_sent" &&
              s.value != static_cast<int64_t>(ip.packets_sent)) {
            return false;
          }
          if (s.name == "mbuf.small_allocs" &&
              s.value !=
                  static_cast<int64_t>(tb.client_host().pool().stats().small_allocs)) {
            return false;
          }
        }
        return true;
      }();

  // (1) every layer an ATM echo exercises shows up in the event stream.
  bool saw_sock = false, saw_tcp = false, saw_ip = false, saw_atm = false, saw_sched = false;
  for (const TraceEvent& ev : tracer.events()) {
    switch (ev.layer) {
      case TraceLayer::kSock:
        saw_sock = true;
        break;
      case TraceLayer::kTcp:
        saw_tcp = true;
        break;
      case TraceLayer::kIp:
        saw_ip = true;
        break;
      case TraceLayer::kAtm:
        saw_atm = true;
        break;
      case TraceLayer::kSched:
        saw_sched = true;
        break;
      default:
        break;
    }
  }
  out.layers_covered = saw_sock && saw_tcp && saw_ip && saw_atm && saw_sched;
  return out;
}

CapacityCell EchoCell(int flows, size_t size, int iterations, int warmup, uint64_t seed) {
  CapacityCell cell;
  cell.clients = 4;
  cell.servers = 2;
  cell.flows = flows;
  cell.size = size;
  cell.iterations = iterations;
  cell.warmup = warmup;
  cell.seed = seed;
  return cell;
}

struct BinaryCellRun {
  std::string blob;        // TLBT capture
  size_t peak_bytes = 0;   // tracer recording-buffer high-water mark
  size_t flows_seen = 0;   // sampler only
  size_t flows_kept = 0;   // sampler only
  uint64_t samples = 0;    // measured round trips
};

// Runs `cell` with a tracer attached (optionally flow-sampled at
// 1-in-`sample_one_in`) and encodes the recorded events as TLBT.
BinaryCellRun RunBinaryCell(const CapacityCell& cell, uint32_t sample_one_in) {
  Tracer tracer;
  if (sample_one_in > 1) {
    FlowSampleConfig sample;
    sample.one_in = sample_one_in;
    sample.seed = cell.seed;
    tracer.EnableFlowSampling(sample);
  }
  BinaryCellRun out;
  out.samples = RunCapacityCell(cell, &tracer).samples;
  out.blob = EncodeBinaryTrace(tracer);
  out.peak_bytes = tracer.peak_memory_bytes();
  out.flows_seen = tracer.flows_seen().size();
  out.flows_kept = tracer.flows_kept().size();
  return out;
}

// Runs `run` once on a 1-job executor, then four copies at once on a 4-job
// executor, and returns the five results, serial first. A cell shares
// nothing global, so every result must equal the serial one.
template <typename T>
std::vector<T> RunSerialAndParallel(const std::function<T()>& run) {
  std::vector<T> out;
  for (unsigned jobs : {1u, 4u}) {
    Executor ex(jobs);
    for (auto& outcome : ex.Run<T>(std::vector<std::function<T()>>(jobs, run))) {
      TCPLAT_CHECK(outcome.ok()) << outcome.error;
      out.push_back(std::move(*outcome.value));
    }
  }
  return out;
}

// Wall-clock echo rate with the given tracer attached (nullptr = none);
// the timeseries-overhead probe, mirroring perf_selfcheck's
// MeasureTraceDisabledOverheadPct.
double MeasureEchoEventRate(int iterations, Tracer* tracer) {
  TestbedConfig cfg;
  Testbed tb(cfg);
  if (tracer != nullptr) {
    tb.AttachTracer(tracer);
  }
  RpcOptions opt;
  opt.size = 1400;
  opt.iterations = iterations;
  const auto t0 = std::chrono::steady_clock::now();
  RunRpcBenchmark(tb, opt);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return static_cast<double>(tb.sim().events_dispatched()) / wall;
}

// The timeseries hooks must cost nothing when no sampler records: both
// sides attach a full tracer; one also enables the timeseries plane with a
// non-positive period, which keeps every producer hook live (TcpConnection,
// AtmSwitch, RunWorkload all reach TimeseriesSampler::Push) but records no
// points. Each round runs the two sides back to back, alternating which
// goes first, and yields one paired overhead; the estimate is the median
// round. Pairing cancels host drift between rounds and the median drops a
// round an outlier hit. (Keeping each side's best rate instead failed the
// 10% ceiling whenever one side caught a single fast outlier.)
double MeasureTimeseriesOverheadPct(int iterations, int rounds) {
  const auto rate = [iterations](bool hooked) {
    Tracer tracer;
    if (hooked) {
      TimeseriesConfig cfg;
      cfg.period_ns = 0;  // hooks live, sampler records nothing
      tracer.EnableTimeseries(cfg);
    }
    return MeasureEchoEventRate(iterations, &tracer);
  };
  std::vector<double> overhead_pct;
  for (int round = 0; round < rounds; ++round) {
    double base = 0;
    double hooked = 0;
    if (round % 2 == 0) {
      base = rate(false);
      hooked = rate(true);
    } else {
      hooked = rate(true);
      base = rate(false);
    }
    overhead_pct.push_back(100.0 * (base - hooked) / base);
  }
  const auto mid = overhead_pct.begin() + overhead_pct.size() / 2;
  std::nth_element(overhead_pct.begin(), mid, overhead_pct.end());
  return *mid;
}

// Decodes `blob` and runs the batch CausalGraph + AttributeRtts path on it.
std::vector<RttWindow> BatchWindows(const std::string& blob, const AttributionOptions& opt,
                                    bool* decode_ok) {
  Tracer decoded;
  *decode_ok = DecodeBinaryTrace(blob, &decoded);
  if (!*decode_ok) {
    return {};
  }
  const CausalGraph graph = CausalGraph::Build(decoded);
  return AttributeRtts(decoded, graph, opt).windows;
}

// True when every window's stages sum exactly to its RTT (0 ns span-sum
// delta).
bool StagesTelescope(const std::vector<RttWindow>& windows) {
  for (const RttWindow& w : windows) {
    int64_t sum = 0;
    for (int64_t stage : w.stage_ns) {
      sum += stage;
    }
    if (sum != w.rtt_ns()) {
      return false;
    }
  }
  return true;
}

int Run(const BenchFlags& flags) {
  std::printf("observability_selfcheck (%s mode, seed %llu)\n\n",
              flags.quick ? "quick" : "full", static_cast<unsigned long long>(flags.seed));

  const TracedRun a = RunOnce(1400);
  std::printf("1400-byte echo: %zu events, max span delta %lld ns\n\n", a.events,
              static_cast<long long>(a.max_span_delta_ns));
  Check(a.events > 0, "trace is non-empty");
  Check(a.layers_covered, "sock/tcp/ip/atm/sched layers all present in the trace");
  Check(a.max_span_delta_ns <= 1, "trace span sums match tracker totals within 1 ns");
  Check(a.metrics_match, "metrics-registry views read back the live struct fields");

  // (4a) run-to-run determinism with a fixed seed.
  const TracedRun b = RunOnce(1400);
  Check(a.json == b.json, "same seed reproduces a byte-identical trace");

  // (4b) serial vs parallel-executor determinism across a size grid.
  const std::vector<size_t> sizes = {4, 536, 1400, 8000};
  std::vector<std::string> serial;
  for (size_t size : sizes) {
    serial.push_back(RunOnce(size).json);
  }
  Executor ex(4);
  std::vector<std::function<std::string()>> thunks;
  for (size_t size : sizes) {
    thunks.emplace_back([size] { return RunOnce(size).json; });
  }
  const auto outcomes = ex.Run<std::string>(thunks);
  bool identical = outcomes.size() == serial.size();
  for (size_t i = 0; identical && i < outcomes.size(); ++i) {
    identical = outcomes[i].ok() && *outcomes[i].value == serial[i];
  }
  Check(identical, "4-size grid traces are byte-identical serial vs 4-job parallel");

  // (5) TLBT round trip: encode -> decode -> export equals the export of
  // the recorded events byte-for-byte.
  const std::string& echo_blob = a.blob;
  BinaryTraceReader echo_reader(echo_blob);
  Check(echo_reader.ok(), "binary echo stream parses");
  Check(echo_reader.record_count() == a.events,
        "binary stream carries every event of the echo trace");
  const double bytes_per_event =
      echo_reader.record_count() > 0
          ? static_cast<double>(echo_blob.size()) / static_cast<double>(echo_reader.record_count())
          : 0.0;
  Tracer echo_decoded;
  const bool echo_decode_ok = DecodeBinaryTrace(echo_blob, &echo_decoded);
  const bool roundtrip_identical = echo_decode_ok && echo_decoded.ToPerfettoJson() == a.json;
  Check(roundtrip_identical,
        "binary round trip reproduces the Perfetto JSON byte-for-byte");
  std::printf("binary echo stream: %zu bytes, %.2f bytes/event (in-memory struct: %zu)\n\n",
              echo_blob.size(), bytes_per_event, sizeof(TraceEvent));

  // (6) 8-flow cell: the binary stream must not depend on executor width or
  // on the cells running beside it.
  const CapacityCell small_cell =
      EchoCell(/*flows=*/8, /*size=*/200, flags.quick ? 40 : 200, /*warmup=*/8, flags.seed);
  const std::vector<BinaryCellRun> small_runs = RunSerialAndParallel<BinaryCellRun>(
      [&] { return RunBinaryCell(small_cell, /*sample_one_in=*/1); });
  const BinaryCellRun& jobs1 = small_runs.front();
  const bool executor_identical =
      std::all_of(small_runs.begin(), small_runs.end(),
                  [&](const BinaryCellRun& run) { return run.blob == jobs1.blob; });
  Check(executor_identical,
        "binary stream byte-identical serially and on a 4-job executor");
  if (!flags.bin_out_path.empty()) {
    Check(WriteTextFile(flags.bin_out_path, jobs1.blob),
          "binary stream written to " + flags.bin_out_path);
  }

  // (7) attribution over the decoded 8-flow capture.
  AttributionOptions small_opt;
  small_opt.message_bytes = small_cell.size;
  small_opt.warmup_windows = small_cell.warmup;
  bool small_decode_ok = false;
  const std::vector<RttWindow> small_windows =
      BatchWindows(jobs1.blob, small_opt, &small_decode_ok);
  Check(small_decode_ok, "8-flow cell binary stream decodes cleanly");
  Check(small_windows.size() == jobs1.samples,
        "every measured round trip of the 8-flow cell is attributed");
  Check(StagesTelescope(small_windows), "stages telescope to each RTT with 0 ns error");
  const BlameReport small_blame = BuildBlame(small_windows, 50.0, 99.0);
  char line[160];
  std::snprintf(line, sizeof(line), ">=95%% of the p99-p50 gap attributed (%.2f%%)",
                small_blame.explained_pct);
  Check(small_blame.explained_pct >= 95.0, line);

  // (8) flow sampling on the big cell: memory must collapse, blame must
  // not. Same cell, same seed; only the sampler differs.
  const CapacityCell big_cell = EchoCell(flags.quick ? 64 : 256, /*size=*/200,
                                         flags.quick ? 24 : 32, /*warmup=*/4, flags.seed);
  const BinaryCellRun full = RunBinaryCell(big_cell, /*sample_one_in=*/1);
  const BinaryCellRun sampled = RunBinaryCell(big_cell, /*sample_one_in=*/8);
  Check(sampled.flows_kept > 0 && sampled.flows_kept < sampled.flows_seen,
        "sampler kept a strict non-empty subset of flows");
  const double memory_ratio =
      sampled.peak_bytes > 0
          ? static_cast<double>(full.peak_bytes) / static_cast<double>(sampled.peak_bytes)
          : 0.0;
  std::snprintf(line, sizeof(line),
                "1-in-8 sampling cuts peak tracer memory >= 4x (%zu -> %zu bytes, %.2fx)",
                full.peak_bytes, sampled.peak_bytes, memory_ratio);
  Check(memory_ratio >= 4.0, line);

  AttributionOptions big_opt;
  big_opt.message_bytes = big_cell.size;
  big_opt.warmup_windows = big_cell.warmup;
  bool full_decode_ok = false;
  bool sampled_decode_ok = false;
  const std::vector<RttWindow> full_windows = BatchWindows(full.blob, big_opt, &full_decode_ok);
  const std::vector<RttWindow> sampled_windows =
      BatchWindows(sampled.blob, big_opt, &sampled_decode_ok);
  Check(full_decode_ok && sampled_decode_ok, "big-cell binary streams decode cleanly");
  Check(StagesTelescope(sampled_windows), "sampled-trace stages still telescope exactly");
  // The flow driver runs warmup + iterations round trips per flow and
  // measures the last `iterations`; attribution drops the same warmup.
  const size_t expected_windows =
      sampled.flows_kept * static_cast<size_t>(big_cell.iterations);
  std::snprintf(line, sizeof(line),
                "sampled trace attributes every kept flow's round trips (%zu windows, %zu kept "
                "flows of %zu)",
                sampled_windows.size(), sampled.flows_kept, sampled.flows_seen);
  Check(sampled_windows.size() == expected_windows, line);

  const BlameReport full_blame = BuildBlame(full_windows, 50.0, 99.0);
  const BlameReport sampled_blame = BuildBlame(sampled_windows, 50.0, 99.0);
  // Per stage, the sampled p99 decomposition must track the full-trace one
  // within 10% of the window's RTT (the percentile is taken over ~1/8 of
  // the population, so stage-relative tolerances would be meaningless for
  // near-zero stages).
  const int64_t tolerance_ns =
      full_blame.hi_rtt_ns > 0 ? full_blame.hi_rtt_ns / 10 : 1;
  bool blame_matches = true;
  for (size_t s = 0; s < kBlameStageCount; ++s) {
    const int64_t delta = std::abs(full_blame.hi_stage_ns[s] - sampled_blame.hi_stage_ns[s]);
    if (delta > tolerance_ns) {
      std::printf("  stage %s: full p99 %" PRId64 " ns vs sampled %" PRId64
                  " ns (tolerance %" PRId64 ")\n",
                  std::string(BlameStageName(static_cast<BlameStage>(s))).c_str(),
                  full_blame.hi_stage_ns[s], sampled_blame.hi_stage_ns[s], tolerance_ns);
      blame_matches = false;
    }
  }
  std::snprintf(line, sizeof(line),
                "sampled p99 stage blame matches full trace within 10%% per stage "
                "(p99 RTT %" PRId64 " vs %" PRId64 " ns)",
                full_blame.hi_rtt_ns, sampled_blame.hi_rtt_ns);
  Check(blame_matches, line);

  // (9) timeseries hook overhead with no sampler recording, at the same
  // run length in quick and full mode so both modes measure the same thing.
  const double ts_overhead_pct = MeasureTimeseriesOverheadPct(/*iterations=*/2000, /*rounds=*/9);
  std::snprintf(line, sizeof(line),
                "timeseries hooks with recording off cost <= 10%% (measured %.2f%%)",
                ts_overhead_pct);
  Check(ts_overhead_pct <= 10.0, line);

  // (10) default-period plane on the 8-flow cell: points per flow
  // is a deterministic simulated quantity the gate holds to a ceiling.
  Tracer ts_tracer;
  ts_tracer.EnableTimeseries(TimeseriesConfig{});
  RunCapacityCell(small_cell, &ts_tracer);
  const double points_per_flow =
      static_cast<double>(ts_tracer.timeseries()->points().size()) /
      static_cast<double>(small_cell.flows);
  std::snprintf(line, sizeof(line),
                "default-period timeseries stays frugal (%.1f points/flow on the 8-flow cell)",
                points_per_flow);
  Check(points_per_flow > 0, line);

  // Reference Perfetto trace next to the metrics file.
  std::string perfetto_path = flags.out_path;
  const char* suffix = ".json";
  if (perfetto_path.size() >= 5 &&
      perfetto_path.compare(perfetto_path.size() - 5, 5, suffix) == 0) {
    perfetto_path.resize(perfetto_path.size() - 5);
  }
  perfetto_path += "_perfetto.json";
  Check(WriteTextFile(perfetto_path, a.json), "reference trace written to " + perfetto_path);

  // Flat metrics JSON for the regression gate. Everything here is pure
  // simulated data, so every value is byte-stable across machines and job
  // counts; the gate holds the two capacity-class metrics to a 1.10x
  // ceiling and everything else exact.
  char buf[256];
  std::string metrics = "{\n";
  metrics += std::string("  \"quick\": ") + (flags.quick ? "true" : "false") + ",\n";
  metrics += "  \"trace_bytes\": " + std::to_string(a.json.size()) + ",\n";
  metrics += "  \"trace_events\": " + std::to_string(a.events) + ",\n";
  std::snprintf(buf, sizeof(buf), "  \"trace_fnv64\": \"%016" PRIx64 "\",\n",
                Fnv1a64(a.json));
  metrics += buf;
  std::snprintf(buf, sizeof(buf), "  \"binary_trace_bytes_per_event\": %.3f,\n",
                bytes_per_event);
  metrics += buf;
  metrics += std::string("  \"binary_roundtrip_identical\": ") +
             (roundtrip_identical ? "true" : "false") + ",\n";
  metrics += std::string("  \"binary_executor_identical\": ") +
             (executor_identical ? "true" : "false") + ",\n";
  metrics += "  \"trace_sampled_flows\": " + std::to_string(sampled.flows_kept) + ",\n";
  std::snprintf(buf, sizeof(buf), "  \"sampled_memory_ratio\": %.2f,\n", memory_ratio);
  metrics += buf;
  metrics += std::string("  \"sampled_blame_within_tolerance\": ") +
             (blame_matches ? "true" : "false") + ",\n";
  std::snprintf(buf, sizeof(buf), "  \"timeseries_overhead_pct\": %.2f,\n", ts_overhead_pct);
  metrics += buf;
  std::snprintf(buf, sizeof(buf), "  \"timeseries_points_per_flow\": %.1f\n", points_per_flow);
  metrics += buf;
  metrics += "}\n";
  Check(WriteTextFile(flags.out_path, metrics), "metrics written to " + flags.out_path);

  std::printf("\n%s\n", g_failures == 0 ? "all checks passed" : "FAILURES");
  return g_failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace tcplat

int main(int argc, char** argv) {
  tcplat::BenchFlags flags;
  flags.out_path = "BENCH_trace.json";
  if (!tcplat::ParseBenchFlags(argc, argv, &flags,
                               "[--quick] [--seed N] [--out PATH] [--bin-out PATH]")) {
    return 2;
  }
  return tcplat::Run(flags);
}
