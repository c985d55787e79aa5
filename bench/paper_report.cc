// Regenerates the full paper-vs-measured comparison as one markdown report
// with explicit shape checks — the machine-written counterpart of
// EXPERIMENTS.md. Run it after any model or calibration change:
//
//   $ ./paper_report            # markdown to stdout, exit 1 on any FAIL
//
// Covers every table/figure plus the §3 and §4.1 inline numbers. Each
// section ends with the shape criteria that make the reproduction count
// (who wins, by what factor, where crossovers fall).
//
// With --trace=PATH the Tables-2/3 representative run (1400-byte ATM echo)
// is repeated with a packet-lifecycle tracer attached and the result is
// written as Chrome/Perfetto trace_event JSON (open at ui.perfetto.dev).
// The traced run cross-checks itself: per-layer span sums recovered from
// the trace must match the SpanTracker totals to the nanosecond.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_flags.h"

#include "src/core/paper_data.h"
#include "src/core/rpc_benchmark.h"
#include "src/core/testbed.h"
#include "src/cpu/cost_profile.h"
#include "src/exec/executor.h"
#include "src/fault/impairment.h"
#include "src/sim/simulator.h"
#include "src/tcp/pcb.h"
#include "src/trace/binary_trace.h"
#include "src/trace/metrics.h"
#include "src/trace/tracer.h"
#include "src/workload/flow_driver.h"
#include "src/workload/generator.h"
#include "src/workload/star_testbed.h"

namespace tcplat {
namespace {

int g_checks = 0;
int g_failures = 0;

void Check(bool ok, const std::string& what) {
  ++g_checks;
  if (!ok) {
    ++g_failures;
  }
  std::printf("- %s %s\n", ok ? "PASS" : "FAIL", what.c_str());
}

RpcResult Measure(const TestbedConfig& cfg, size_t size, int iterations = 100) {
  TestbedConfig c = cfg;
  Testbed tb(c);
  RpcOptions opt;
  opt.size = size;
  opt.iterations = iterations;
  opt.warmup = 16;
  return RunRpcBenchmark(tb, opt);
}

struct Sweep {
  std::array<double, 8> rtt_us{};
};

Sweep MeasureSweep(const TestbedConfig& cfg) {
  Sweep out;
  const std::vector<double> rtts = ParallelMap<double>(paper::kSizes.size(), [&cfg](size_t i) {
    return Measure(cfg, paper::kSizes[i]).MeanRtt().micros();
  });
  for (size_t i = 0; i < paper::kSizes.size(); ++i) {
    out.rtt_us[i] = rtts[i];
  }
  return out;
}

void Table1() {
  std::printf("\n## Table 1 — ATM vs Ethernet\n\n");
  TestbedConfig atm_cfg;
  TestbedConfig eth_cfg;
  eth_cfg.network = NetworkKind::kEthernet;
  const Sweep atm = MeasureSweep(atm_cfg);
  const Sweep eth = MeasureSweep(eth_cfg);

  std::printf("| Size | Ethernet | ATM | decrease | paper Eth | paper ATM | paper decr |\n");
  std::printf("|---|---|---|---|---|---|---|\n");
  bool atm_always_wins = true;
  double max_err = 0;
  for (size_t i = 0; i < paper::kSizes.size(); ++i) {
    const double decr = 100.0 * (eth.rtt_us[i] - atm.rtt_us[i]) / eth.rtt_us[i];
    const double paper_decr =
        100.0 * (paper::kTable1Ethernet[i] - paper::kTable1Atm[i]) / paper::kTable1Ethernet[i];
    std::printf("| %zu | %.0f | %.0f | %.0f%% | %.0f | %.0f | %.0f%% |\n", paper::kSizes[i],
                eth.rtt_us[i], atm.rtt_us[i], decr, paper::kTable1Ethernet[i],
                paper::kTable1Atm[i], paper_decr);
    atm_always_wins = atm_always_wins && atm.rtt_us[i] < eth.rtt_us[i];
    max_err = std::max(max_err,
                       std::abs(atm.rtt_us[i] - paper::kTable1Atm[i]) / paper::kTable1Atm[i]);
  }
  std::printf("\n");
  Check(atm_always_wins, "ATM beats Ethernet at every size");
  Check(max_err < 0.25, "ATM RTTs within 25% of the paper at every size");
}

void Tables2And3() {
  std::printf("\n## Tables 2/3 — per-layer breakdowns (selected rows)\n\n");
  TestbedConfig cfg;
  std::printf("| Size | tx cksum (ours/paper) | tx IP | rx segment | rx wakeup |\n");
  std::printf("|---|---|---|---|---|\n");
  double cksum_err = 0;
  const std::array<size_t, 4> rows = {0u, 3u, 5u, 6u};
  const std::vector<RpcResult> results = ParallelMap<RpcResult>(
      rows.size(), [&cfg, &rows](size_t j) { return Measure(cfg, paper::kSizes[rows[j]]); });
  for (size_t j = 0; j < rows.size(); ++j) {
    const size_t i = rows[j];
    const RpcResult& r = results[j];
    std::printf("| %zu | %.0f / %.0f | %.0f / %.0f | %.0f / %.0f | %.0f / %.0f |\n",
                paper::kSizes[i], r.SpanMean(SpanId::kTxTcpChecksum).micros(),
                paper::kTable2Checksum[i], r.SpanMean(SpanId::kTxIp).micros(),
                paper::kTable2Ip[i], r.SpanMean(SpanId::kRxTcpSegment).micros(),
                paper::kTable3Segment[i], r.SpanMean(SpanId::kRxWakeup).micros(),
                paper::kTable3Wakeup[i]);
    cksum_err = std::max(cksum_err, std::abs(r.SpanMean(SpanId::kTxTcpChecksum).micros() -
                                             paper::kTable2Checksum[i]) /
                                        paper::kTable2Checksum[i]);
  }
  std::printf("\n");
  Check(cksum_err < 0.20, "transmit checksum row within 20% of the paper");
}

void Table4() {
  std::printf("\n## Table 4 — header prediction\n\n");
  TestbedConfig on_cfg;
  TestbedConfig off_cfg;
  off_cfg.tcp.header_prediction = false;
  const std::vector<RpcResult> r =
      ParallelMap<RpcResult>(4, [&on_cfg, &off_cfg](size_t i) {
        const TestbedConfig& cfg = (i % 2 == 0) ? on_cfg : off_cfg;
        return Measure(cfg, i < 2 ? 4 : 8000);
      });
  const double on4 = r[0].MeanRtt().micros();
  const double off4 = r[1].MeanRtt().micros();
  const RpcResult& on8000 = r[2];
  const double off8000 = r[3].MeanRtt().micros();
  std::printf("4 B: %.0f -> %.0f us; 8000 B: %.0f -> %.0f us with prediction\n\n", off4, on4,
              off8000, on8000.MeanRtt().micros());
  Check(on4 <= off4 && on8000.MeanRtt().micros() <= off8000, "prediction never hurts");
  Check((off8000 - on8000.MeanRtt().micros()) > (off4 - on4),
        "prediction helps most in the two-packet 8000-byte case");
  Check(on8000.server_tcp.predict_data_hits > on8000.iterations / 2,
        "the second 8000-byte packet takes the receiver fast path");
}

void PcbSection() {
  std::printf("\n## §3 — PCB lookup\n\n");
  Simulator sim;
  Cpu cpu(&sim, CostProfile::Decstation5000_200());
  PcbTable table(&cpu);
  table.set_cache_enabled(false);
  std::vector<Pcb> pcbs(1000);
  for (size_t i = 0; i < pcbs.size(); ++i) {
    pcbs[i].local = SockAddr{MakeAddr(10, 0, 0, 1), 5001};
    pcbs[i].remote = SockAddr{MakeAddr(10, 0, 0, 2), static_cast<uint16_t>(1000 + i)};
  }
  for (size_t i = pcbs.size(); i > 0; --i) {
    table.Insert(&pcbs[i - 1]);
  }
  cpu.BeginRun(sim.Now());
  SimTime t0 = cpu.cursor();
  table.Lookup(pcbs[999].remote, pcbs[999].local);
  const double us1000 = (cpu.cursor() - t0).micros();
  cpu.EndRun();
  std::printf("1000-entry linear search: %.0f us (paper: %.0f)\n\n", us1000,
              paper::kPcbSearch1000Us);
  Check(std::abs(us1000 - paper::kPcbSearch1000Us) / paper::kPcbSearch1000Us < 0.10,
        "1000-entry search within 10% of the paper");
}

void Table5() {
  std::printf("\n## Table 5 — copy & checksum calibration\n\n");
  const CostProfile p = CostProfile::Decstation5000_200();
  double max_err = 0;
  for (size_t i = 0; i < paper::kSizes.size(); ++i) {
    const double ours = p.ultrix_cksum.Eval(paper::kSizes[i]).micros();
    // Relative error with a 2 us absolute allowance: single-digit paper
    // rows are rounded to the microsecond.
    const double excess =
        std::abs(ours - paper::kTable5UltrixCksum[i]) - 2.0;
    max_err = std::max(max_err, excess / std::max(paper::kTable5UltrixCksum[i], 1.0));
  }
  const double bw = 1.0 / p.integrated_copy_cksum.per_byte_us;
  std::printf("ULTRIX checksum fit max error %.1f%%; integrated-loop bandwidth %.1f MB/s "
              "(paper: just above 9)\n\n",
              100 * max_err, bw);
  Check(max_err < 0.10, "Table 5 calibration within 10% everywhere");
  Check(bw > 9.0 && bw < 10.0, "the 9 MB/s memory ceiling reproduces");
}

void Table6() {
  std::printf("\n## Table 6 — combined copy+checksum\n\n");
  TestbedConfig std_cfg;
  TestbedConfig comb_cfg;
  comb_cfg.tcp.checksum = ChecksumMode::kCombined;
  const std::array<size_t, 3> sizes = {4, 1400, 8000};
  const std::vector<double> r =
      ParallelMap<double>(6, [&std_cfg, &comb_cfg, &sizes](size_t i) {
        return Measure(i % 2 == 0 ? std_cfg : comb_cfg, sizes[i / 2]).MeanRtt().micros();
      });
  const double s4 = r[0], c4 = r[1], s1400 = r[2], c1400 = r[3], s8000 = r[4], c8000 = r[5];
  std::printf("4 B: %+.0f%%; 1400 B: %+.0f%%; 8000 B: %+.0f%% (paper: -22/+10/+24)\n\n",
              100 * (s4 - c4) / s4, 100 * (s1400 - c1400) / s1400,
              100 * (s8000 - c8000) / s8000);
  Check(c4 > s4, "small messages regress under the combined kernel");
  Check(c1400 < s1400 && c8000 < s8000, "large messages gain");
  Check(100 * (s8000 - c8000) / s8000 > 15, "8000-byte gain exceeds 15%");
}

void Table7() {
  std::printf("\n## Table 7 — checksum elimination\n\n");
  TestbedConfig std_cfg;
  TestbedConfig none_cfg;
  none_cfg.tcp.checksum = ChecksumMode::kNone;
  double prev = -1;
  bool monotone = true;
  double save8000 = 0;
  std::printf("| Size | saving | paper |\n|---|---|---|\n");
  struct Pair {
    double s;
    double n;
  };
  const std::vector<Pair> grid =
      ParallelMap<Pair>(paper::kSizes.size(), [&std_cfg, &none_cfg](size_t i) {
        return Pair{Measure(std_cfg, paper::kSizes[i]).MeanRtt().micros(),
                    Measure(none_cfg, paper::kSizes[i]).MeanRtt().micros()};
      });
  for (size_t i = 0; i < paper::kSizes.size(); ++i) {
    const auto& [s, n] = grid[i];
    const double saving = 100 * (s - n) / s;
    const double paper_saving = 100 *
                                (paper::kTable7Checksum[i] - paper::kTable7NoChecksum[i]) /
                                paper::kTable7Checksum[i];
    std::printf("| %zu | %.1f%% | %.1f%% |\n", paper::kSizes[i], saving, paper_saving);
    monotone = monotone && saving >= prev - 2.0;
    prev = saving;
    if (paper::kSizes[i] == 8000) {
      save8000 = saving;
    }
  }
  std::printf("\n");
  Check(monotone, "savings grow monotonically with size");
  Check(save8000 > 30, "8000-byte saving exceeds 30% (paper: 41%)");
}

// Per-host recovery/overflow counters under an impaired fabric, read back
// through each host's MetricsRegistry. The paper's testbed never leaves the
// error-free regime; this section shows the machinery the §4.2.1 argument
// would forfeit, and pins the registry views to the live TcpStats structs.
void HostCounters() {
  std::printf("\n## Host counters — TCP recovery under 0.2%% cell loss\n\n");
  StarTestbedConfig star_cfg;
  star_cfg.clients = 2;
  star_cfg.servers = 1;
  StarTestbed star(star_cfg);

  ImpairmentConfig imp;
  imp.drop_prob = 2e-3;
  imp.seed = 11;
  ImpairmentPolicy policy(imp);
  star.atm_switch()->set_output_impairment(&policy);

  ClosedLoopConfig cfg;
  cfg.flows = 6;
  cfg.clients = 2;
  cfg.servers = 1;
  cfg.size = 512;
  cfg.iterations = 8;
  cfg.warmup = 1;
  std::vector<FlowSpec> specs = BuildClosedLoop(cfg);
  for (FlowSpec& s : specs) {
    s.tolerate_errors = true;
  }
  RunWorkload(star, specs);
  star.atm_switch()->set_output_impairment(nullptr);

  const std::array<const char*, 9> names = {
      "tcp.retransmits",        "tcp.rexmt_timeouts",     "tcp.dup_acks_received",
      "tcp.fast_retransmits",   "tcp.fast_recovery_episodes", "tcp.sack_retransmits",
      "tcp.zero_window_probes", "tcp.delayed_acks_fired", "tcp.listen_overflows"};
  auto metric = [](Host& host, const char* name) -> int64_t {
    for (const MetricsRegistry::Sample& s : host.metrics().Snapshot()) {
      if (s.name == name) {
        return s.value;
      }
    }
    return -1;
  };

  std::printf("| counter | client0 | client1 | server0 |\n|---|---|---|---|\n");
  for (const char* name : names) {
    std::printf("| %s | %lld | %lld | %lld |\n", name,
                static_cast<long long>(metric(star.client_host(0), name)),
                static_cast<long long>(metric(star.client_host(1), name)),
                static_cast<long long>(metric(star.server_host(0), name)));
  }
  std::printf("\ncells dropped by the fabric: %llu\n\n",
              static_cast<unsigned long long>(policy.stats().dropped));

  uint64_t retransmits = 0;
  bool views_alias = true;
  for (int i = 0; i < star.host_count(); ++i) {
    retransmits += star.tcp(i).stats().retransmits;
    views_alias = views_alias &&
                  metric(star.host(i), "tcp.retransmits") ==
                      static_cast<int64_t>(star.tcp(i).stats().retransmits) &&
                  metric(star.host(i), "tcp.listen_overflows") ==
                      static_cast<int64_t>(star.tcp(i).stats().listen_overflows);
  }
  Check(policy.stats().dropped > 0, "the fabric injected loss");
  Check(retransmits > 0, "cell loss forced TCP retransmissions");
  Check(views_alias, "registry views alias the live TcpStats counters");
}

// The Tables-2/3 run again, instrumented. Encodes the recorded events as a
// compact TLBT stream (the capture file format), decodes it back, and
// proves the pipeline is lossless: summing self/interval times per span out
// of the decoded trace reproduces the aggregate SpanTracker totals.
// Produces the same Perfetto-loadable JSON file as the recorded events.
void TracedRun(const std::string& path) {
  std::printf("\n## Traced run — 1400-byte ATM echo\n\n");
  TestbedConfig cfg;
  Testbed tb(cfg);
  Tracer tracer;
  tb.AttachTracer(&tracer);
  RpcOptions opt;
  opt.size = 1400;
  opt.iterations = 100;
  opt.warmup = 16;
  RunRpcBenchmark(tb, opt);

  const std::string blob = EncodeBinaryTrace(tracer);
  Tracer decoded;
  const bool decode_ok = DecodeBinaryTrace(blob, &decoded);
  Check(decode_ok, "binary trace stream decodes back losslessly");
  if (!decode_ok) {
    return;
  }

  int64_t max_delta = 0;
  for (Host* host : {&tb.client_host(), &tb.server_host()}) {
    const auto from_trace = decoded.SpanSelfTotalsNanos(host->trace_id());
    for (size_t i = 0; i < from_trace.size(); ++i) {
      const int64_t tracker_ns = host->tracker().total(static_cast<SpanId>(i)).nanos();
      max_delta = std::max(max_delta, std::abs(from_trace[i] - tracker_ns));
    }
  }
  std::printf("%zu events across %zu hosts (%zu-byte binary stream); "
              "trace-vs-tracker span delta %lld ns\n\n",
              decoded.events().size(), decoded.host_names().size(), blob.size(),
              static_cast<long long>(max_delta));
  Check(!decoded.events().empty(), "traced run recorded events");
  Check(max_delta <= 1, "per-layer span sums from the trace match tracker totals within 1 ns");
  Check(WriteTextFile(path, decoded.ToPerfettoJson()), "trace written to " + path);
}

}  // namespace
}  // namespace tcplat

int main(int argc, char** argv) {
  tcplat::BenchFlags flags;
  if (!tcplat::ParseBenchFlags(argc, argv, &flags, "[--trace=PATH]")) {
    return 2;
  }
  const std::string trace_path = flags.trace_path;
  std::printf("# Paper reproduction report\n");
  std::printf("\nWolman, Voelker & Thekkath, USENIX Winter 1994 — regenerated live.\n");
  tcplat::Table1();
  tcplat::Tables2And3();
  tcplat::Table4();
  tcplat::PcbSection();
  tcplat::Table5();
  tcplat::Table6();
  tcplat::Table7();
  tcplat::HostCounters();
  if (!trace_path.empty()) {
    tcplat::TracedRun(trace_path);
  }
  std::printf("\n## Summary\n\n%d/%d shape checks passed.\n", tcplat::g_checks - tcplat::g_failures,
              tcplat::g_checks);
  return tcplat::g_failures == 0 ? 0 : 1;
}
