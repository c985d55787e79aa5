// Wall-clock self-benchmark: the perf trajectory of the simulator itself.
//
// The paper is a study of where cycles go; this binary applies the same
// discipline to our own harness. It measures, in real (wall-clock) time:
//
//   1. raw event-queue throughput — dispatched events/sec for a
//      self-rescheduling chain, and schedule+cancel pairs/sec for the
//      TCP-timer-like churn pattern that motivated the O(1) cancel path;
//   2. end-to-end simulator throughput — RPC round-trips/sec and simulated
//      events/sec for a standard 1400-byte ATM echo run — and what two
//      idle hook sets cost that echo: a detached tracer, and timeseries
//      hooks with no sampler recording;
//   3. multi-flow throughput — flows/sec and simulated events/sec for one
//      64-flow capacity cell.
//
// Each of the eight values is printed beside its bound in kBounds, and the
// binary exits 1 naming every value that misses its bound. It takes no
// arguments (any argument exits 2). Wall-clock numbers are only meaningful
// from a Release (-O2) build on an otherwise idle machine, so tier-1 does
// not run it; CI's Release job does.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "bench/bench_flags.h"
#include "src/core/rpc_benchmark.h"
#include "src/core/testbed.h"
#include "src/sim/simulator.h"
#include "src/trace/timeseries.h"
#include "src/trace/tracer.h"
#include "src/workload/capacity.h"

namespace tcplat {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// 1a. Pure dispatch: one self-rescheduling chain, the event loop's floor.
double MeasureDispatchRate(uint64_t events) {
  Simulator sim;
  uint64_t remaining = events;
  std::function<void()> chain = [&] {
    if (--remaining > 0) {
      sim.Schedule(SimDuration::FromNanos(100), chain);
    }
  };
  sim.Schedule(SimDuration::FromNanos(100), chain);
  const auto t0 = std::chrono::steady_clock::now();
  sim.RunToCompletion();
  return static_cast<double>(events) / SecondsSince(t0);
}

// 1b. Timer churn: every dispatched event schedules a batch of timers far in
// the future and cancels the previous batch — the retransmit/delack pattern
// where almost every scheduled event dies by cancellation.
double MeasureCancelRate(uint64_t pairs) {
  Simulator sim;
  constexpr int kBatch = 8;
  std::vector<EventId> pending;
  uint64_t scheduled = 0;
  std::function<void()> tick = [&] {
    for (EventId id : pending) {
      sim.Cancel(id);
    }
    pending.clear();
    if (scheduled >= pairs) {
      return;
    }
    for (int i = 0; i < kBatch; ++i) {
      pending.push_back(
          sim.Schedule(SimDuration::FromMillis(200 + i), [] {}));
      ++scheduled;
    }
    sim.Schedule(SimDuration::FromMicros(10), tick);
  };
  sim.Schedule(SimDuration::FromMicros(10), tick);
  const auto t0 = std::chrono::steady_clock::now();
  sim.RunToCompletion();
  return static_cast<double>(scheduled) / SecondsSince(t0);
}

struct EchoRate {
  double round_trips_per_sec = 0;
  double sim_events_per_sec = 0;
};

// 2. A full testbed run: protocol stacks, mbuf churn, spans, the lot.
// `tracer` (optional) is attached before the run, so the hook probes below
// can price the hook sites themselves.
EchoRate MeasureEchoRate(int iterations, Tracer* tracer = nullptr) {
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
  const double wall = SecondsSince(t0);
  EchoRate out;
  out.round_trips_per_sec = static_cast<double>(iterations) / wall;
  out.sim_events_per_sec = static_cast<double>(tb.sim().events_dispatched()) / wall;
  return out;
}

// Round trips per side of one hook-probe round.
constexpr int kProbeRoundTrips = 2'000;

// The overhead in percent of a hook set, from `rate(hooked)`, the echo
// event rate without and with it: the median over 9 rounds. Each round
// runs the two sides back to back, alternating which goes first, and
// yields one paired overhead. Pairing cancels host drift between rounds,
// and the median drops a round an outlier hit. (Keeping each side's best
// rate instead failed the 10% ceiling whenever one side caught a single
// fast outlier.)
double PairedOverheadPct(const std::function<double(bool hooked)>& rate) {
  constexpr int kRounds = 9;
  std::vector<double> overhead_pct;
  for (int round = 0; round < kRounds; ++round) {
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

// Tracing must cost nothing when off: every hook is a pointer test in
// Host::TracePacket plus an `enabled_` test in the Tracer.
double MeasureTraceDisabledOverheadPct() {
  return PairedOverheadPct([](bool hooked) {
    Tracer tracer;
    tracer.set_enabled(false);
    return MeasureEchoRate(kProbeRoundTrips, hooked ? &tracer : nullptr).sim_events_per_sec;
  });
}

// The timeseries hooks must cost nothing when no sampler records: both
// sides attach a full tracer; the hooked side also enables the timeseries
// plane with a non-positive period, which keeps every producer hook live
// (TcpConnection, AtmSwitch, RunWorkload all reach TimeseriesSampler::Push)
// but records no points.
double MeasureTimeseriesOverheadPct() {
  return PairedOverheadPct([](bool hooked) {
    Tracer tracer;
    if (hooked) {
      TimeseriesConfig cfg;
      cfg.period_ns = 0;  // hooks live, sampler records nothing
      tracer.EnableTimeseries(cfg);
    }
    return MeasureEchoRate(kProbeRoundTrips, &tracer).sim_events_per_sec;
  });
}

// 3. Multi-flow workload throughput: one 64-flow capacity cell (the
// bench/capacity workhorse), timed wall-clock.
struct CapacityRate {
  double flows_per_sec = 0;
  double sim_events_per_sec = 0;
};

CapacityRate MeasureCapacityRate() {
  CapacityCell cell;
  cell.flows = 64;
  cell.size = 200;
  cell.iterations = 5;
  cell.warmup = 2;
  const auto t0 = std::chrono::steady_clock::now();
  const CapacityOutcome out = RunCapacityCell(cell);
  const double wall = SecondsSince(t0);
  CapacityRate rate;
  rate.flows_per_sec = static_cast<double>(cell.flows) / wall;
  rate.sim_events_per_sec = static_cast<double>(out.sim_events) / wall;
  return rate;
}

// A value must be at least its bound (a floor) or at most it (a ceiling).
enum class Rule { kFloor, kCeiling };

struct Bound {
  const char* key;
  Rule rule;
  double limit;
};

// The bounds, in the order Run measures the values. Each floor is a tenth
// of the rate one run of these same counts measured on a one-core machine:
// rates vary widely across CI machines, so a floor catches a collapse, not
// drift. The two hook overheads have an absolute 10% ceiling.
constexpr Bound kBounds[] = {
    {"event_dispatch_per_sec", Rule::kFloor, 0.10 * 17'682'941},
    {"event_schedule_cancel_pairs_per_sec", Rule::kFloor, 0.10 * 19'505'297},
    {"rpc_round_trips_per_sec", Rule::kFloor, 0.10 * 17'178},
    {"rpc_sim_events_per_sec", Rule::kFloor, 0.10 * 1'396'974},
    {"trace_disabled_overhead_pct", Rule::kCeiling, 10.0},
    {"timeseries_overhead_pct", Rule::kCeiling, 10.0},
    {"capacity_flows_per_sec", Rule::kFloor, 0.10 * 6'980},
    {"capacity_sim_events_per_sec", Rule::kFloor, 0.10 * 2'255'899},
};

int Run() {
  std::printf("perf_selfcheck (wall-clock numbers need a Release build)\n\n");
  const double dispatch = MeasureDispatchRate(200'000);
  const double cancel = MeasureCancelRate(200'000);
  const EchoRate rpc = MeasureEchoRate(200);
  const double trace_off = MeasureTraceDisabledOverheadPct();
  const double timeseries = MeasureTimeseriesOverheadPct();
  const CapacityRate capacity = MeasureCapacityRate();
  const double values[] = {dispatch,
                           cancel,
                           rpc.round_trips_per_sec,
                           rpc.sim_events_per_sec,
                           trace_off,
                           timeseries,
                           capacity.flows_per_sec,
                           capacity.sim_events_per_sec};
  static_assert(std::size(values) == std::size(kBounds));

  std::string missed;
  for (size_t i = 0; i < std::size(kBounds); ++i) {
    const Bound& b = kBounds[i];
    const bool floor = b.rule == Rule::kFloor;
    const bool ok = floor ? values[i] >= b.limit : values[i] <= b.limit;
    std::printf("  [%-4s] %-36s %14.2f  %s %.1f\n", ok ? "ok" : "FAIL", b.key, values[i],
                floor ? ">=" : "<=", b.limit);
    if (!ok) {
      missed += std::string(" ") + b.key;
    }
  }
  if (!missed.empty()) {
    std::printf("\nout of bounds:%s\n", missed.c_str());
    return 1;
  }
  std::printf("\nall %zu values within their bounds\n", std::size(kBounds));
  return 0;
}

}  // namespace
}  // namespace tcplat

int main(int argc, char** argv) {
  tcplat::BenchFlags flags;
  if (!tcplat::ParseBenchFlags(argc, argv, &flags, "")) return 2;
  return tcplat::Run();
}
