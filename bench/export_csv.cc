// Machine-readable export: sweeps the paper's size range across every stack
// configuration and emits tidy CSV (one row per measurement) for plotting
// pipelines — regenerate Figures 1 and 2 in your plotting tool of choice.
//
//   $ ./export_csv > sweep.csv
//
// With --trace [--size N] it instead runs one echo benchmark with the
// packet-lifecycle tracer attached and emits the raw event stream as flat
// CSV (one row per event: timestamps, layer, kind, span, flow/packet ids).
//
//   $ ./export_csv --trace --size 1400 > trace.csv
//
// With --timeline it runs one congested-bottleneck cell with the timeseries
// telemetry plane attached (src/trace/timeseries.h) and emits the long-
// format timeline CSV (ts_ns,host,metric,key,value,edge) — cwnd sawteeth,
// per-VC queue occupancy, per-flow goodput — byte-identical across
// TCPLAT_JOBS at a fixed seed.
//
//   $ ./export_csv --timeline --seed 1 > timeline.csv
//
// A flag outside its mode is rejected, not ignored: --size needs --trace;
// --quick, --seed, --flows and --timeline-period-us need --timeline; and
// --trace and --timeline cannot be combined.

#include <cstdio>
#include <initializer_list>
#include <string>
#include <string_view>

#include "bench/bench_flags.h"

#include "src/core/paper_data.h"
#include "src/core/rpc_benchmark.h"
#include "src/core/table.h"
#include "src/core/testbed.h"
#include "src/trace/timeseries.h"
#include "src/trace/tracer.h"
#include "src/workload/congestion.h"

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
  TextTable csv({"network", "checksum", "prediction", "dma", "size_bytes", "rtt_us",
                 "rtt_p99_us", "tx_cksum_us", "rx_cksum_us", "tx_driver_us", "rx_driver_us",
                 "ipq_us", "wakeup_us"});

  const struct {
    NetworkKind net;
    ChecksumMode mode;
    bool prediction;
    bool dma;
  } configs[] = {
      {NetworkKind::kAtm, ChecksumMode::kStandard, true, false},
      {NetworkKind::kAtm, ChecksumMode::kStandard, false, false},
      {NetworkKind::kAtm, ChecksumMode::kCombined, true, false},
      {NetworkKind::kAtm, ChecksumMode::kNone, true, false},
      {NetworkKind::kAtm, ChecksumMode::kStandard, true, true},
      {NetworkKind::kAtm, ChecksumMode::kNone, true, true},
      {NetworkKind::kEthernet, ChecksumMode::kStandard, true, false},
      {NetworkKind::kEthernet, ChecksumMode::kNone, true, false},
  };

  for (const auto& c : configs) {
    for (size_t size : paper::kSizes) {
      TestbedConfig cfg;
      cfg.network = c.net;
      cfg.tcp.checksum = c.mode;
      cfg.tcp.header_prediction = c.prediction;
      Testbed tb(cfg);
      if (c.dma && c.net == NetworkKind::kAtm) {
        tb.client_atm()->set_dma(true);
        tb.server_atm()->set_dma(true);
      }
      RpcOptions opt;
      opt.size = size;
      const RpcResult r = RunRpcBenchmark(tb, opt);
      csv.AddRow({c.net == NetworkKind::kAtm ? "atm" : "ethernet", ModeName(c.mode),
                  c.prediction ? "on" : "off", c.dma ? "on" : "off", std::to_string(size),
                  TextTable::Us(r.MeanRtt().micros(), 1),
                  TextTable::Us(r.rtt.Percentile(99).micros(), 1),
                  TextTable::Us(r.SpanMean(SpanId::kTxTcpChecksum).micros(), 2),
                  TextTable::Us(r.SpanMean(SpanId::kRxTcpChecksum).micros(), 2),
                  TextTable::Us(r.SpanMean(SpanId::kTxDriver).micros(), 2),
                  TextTable::Us(r.SpanMean(SpanId::kRxDriver).micros(), 2),
                  TextTable::Us(r.SpanMean(SpanId::kRxIpq).micros(), 2),
                  TextTable::Us(r.SpanMean(SpanId::kRxWakeup).micros(), 2)});
    }
  }
  std::fputs(csv.ToCsv().c_str(), stdout);
}

void RunTimeline(const BenchFlags& flags) {
  CongestionCell cell;
  cell.variant = CongestionVariant::kReno;
  cell.policy = DropPolicy::kTailDrop;
  cell.flows = flags.flows > 0 ? flags.flows : 4;
  cell.bulk_bytes = flags.quick ? 24 * 1024 : 48 * 1024;
  cell.seed = flags.seed;
  Tracer tracer;
  TimeseriesConfig ts;
  if (flags.timeline_period_us > 0) {
    ts.period_ns = flags.timeline_period_us * 1000;
  }
  tracer.EnableTimeseries(ts);
  RunCongestionCell(cell, &tracer);
  std::fputs(tracer.TimelineCsv().c_str(), stdout);
}

void RunTrace(size_t size) {
  TestbedConfig cfg;
  Testbed tb(cfg);
  Tracer tracer;
  tb.AttachTracer(&tracer);
  RpcOptions opt;
  opt.size = size;
  opt.iterations = 50;
  opt.warmup = 16;
  RunRpcBenchmark(tb, opt);
  std::fputs(tracer.ToCsv().c_str(), stdout);
}

// False, after naming the flag, when one of `names` is on the command line
// but `mode`, the flag that selects the mode they belong to, is not. Call
// it after ParseBenchFlags accepted argv: no value this binary takes starts
// with "--", so every such argument is a flag.
bool OnlyWith(int argc, char** argv, bool mode_given, const char* mode,
              std::initializer_list<const char*> names) {
  if (mode_given) {
    return true;
  }
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    for (const char* name : names) {
      if (arg.substr(0, arg.find('=')) == name) {
        std::fprintf(stderr, "%s: %s applies only with %s\n", argv[0], name, mode);
        return false;
      }
    }
  }
  return true;
}

}  // namespace
}  // namespace tcplat

int main(int argc, char** argv) {
  tcplat::BenchFlags flags;
  flags.size = 1400;
  if (!tcplat::ParseBenchFlags(argc, argv, &flags,
                               "[--trace [--size N]] "
                               "[--timeline [--quick] [--seed N] [--flows N] "
                               "[--timeline-period-us N]]")) {
    return 2;
  }
  if (flags.trace && flags.timeline) {
    std::fprintf(stderr, "%s: --trace and --timeline cannot be combined\n", argv[0]);
    return 2;
  }
  if (!tcplat::OnlyWith(argc, argv, flags.trace, "--trace", {"--size"}) ||
      !tcplat::OnlyWith(argc, argv, flags.timeline, "--timeline",
                        {"--quick", "--seed", "--flows", "--timeline-period-us"})) {
    return 2;
  }
  if (flags.timeline) {
    tcplat::RunTimeline(flags);
  } else if (flags.trace) {
    tcplat::RunTrace(flags.size);
  } else {
    tcplat::Run();
  }
  return 0;
}
