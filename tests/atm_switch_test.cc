// Tests for the ATM cell switch and the switched two-host topology, which
// is the 1 x 1 star.

#include <gtest/gtest.h>

#include "src/core/rpc_benchmark.h"
#include "src/core/testbed.h"
#include "src/fault/error_experiment.h"
#include "src/fault/injector.h"
#include "src/trace/tracer.h"
#include "src/workload/star_testbed.h"

namespace tcplat {
namespace {

TEST(AtmSwitch, EchoWorksThroughSwitch) {
  StarTestbed star(StarTestbedConfig{});
  RpcOptions opt;
  opt.size = 1400;
  opt.iterations = 50;
  const RpcResult r = RunRpcBenchmark(star, opt);
  EXPECT_EQ(r.data_mismatches, 0u);
  EXPECT_GT(star.atm_switch()->stats().cells_switched, 0u);
  EXPECT_EQ(star.atm_switch()->stats().no_route, 0u);
}

TEST(AtmSwitch, AddsLatencyOverSwitchlessLink) {
  RpcOptions opt;
  opt.size = 200;
  opt.iterations = 50;

  TestbedConfig direct_cfg;
  Testbed direct(direct_cfg);
  const double direct_us = RunRpcBenchmark(direct, opt).MeanRtt().micros();

  StarTestbed switched(StarTestbedConfig{});
  const double switched_us = RunRpcBenchmark(switched, opt).MeanRtt().micros();

  // Two 10 us fabric traversals (kSwitchLatency) per round trip, plus the
  // extra serialization of each cell on the second fiber hop.
  EXPECT_GT(switched_us, direct_us + 2 * 10.0);
  EXPECT_LT(switched_us, direct_us + 300.0);
}

TEST(AtmSwitch, FabricCorruptionCaughtEndToEndByAalCrc) {
  // §4.2.1 source (1): "not a problem since AAL payload checksums are
  // end-to-end, i.e., intermediate switches do not recompute the checksum."
  StarTestbed star(StarTestbedConfig{});
  auto rng = std::make_shared<Rng>(3);
  auto counter = std::make_shared<InjectionCounter>();
  star.atm_switch()->set_fabric_corrupt_hook(MakeCellBitFlipper(rng, counter, 0.003));

  RpcOptions opt;
  opt.size = 1400;
  opt.iterations = 100;
  const RpcResult r = RunRpcBenchmark(star, opt);

  EXPECT_GT(counter->injected, 0u);
  const uint64_t crc_catches =
      star.atm_netif(0)->sar_stats().crc_errors + star.atm_netif(1)->sar_stats().crc_errors;
  EXPECT_EQ(crc_catches, counter->injected) << "every fabric error is CRC-visible at the edge";
  EXPECT_EQ(r.client_tcp.checksum_errors + r.server_tcp.checksum_errors, 0u)
      << "TCP never needed to get involved";
  EXPECT_EQ(r.data_mismatches, 0u);
}

TEST(AtmSwitch, ErrorExperimentAttributesSwitchFaults) {
  ErrorExperimentConfig cfg;
  cfg.source = ErrorSource::kSwitchFabric;
  cfg.checksum = ChecksumMode::kNone;  // even with no TCP checksum...
  cfg.probability = 0.003;
  cfg.iterations = 100;
  const ErrorExperimentResult r = RunErrorExperiment(cfg);
  EXPECT_GT(r.injected, 0u);
  EXPECT_EQ(r.caught_cell_crc, r.injected);
  EXPECT_EQ(r.app_mismatches, 0u) << "...the AAL CRC alone protects against fabric errors";
}

TEST(AtmSwitch, UnroutedVciIsDropped) {
  Simulator sim;
  AtmSwitch sw(&sim, kTaxiBitsPerSecond, SimDuration::FromNanos(300),
               SimDuration::FromMicros(10));
  struct NullSink : CellSink {
    using CellSink::DeliverCell;
    void DeliverCell(SimTime, const CellBytes&) override { ++cells; }
    int cells = 0;
  } sink;
  sw.AttachOutput(0, &sink);
  sw.AddRoute(7, 0);

  std::vector<uint8_t> cell(kAtmCellBytes, 0);
  cell[1] = 0;
  cell[2] = 7;  // routed VCI
  sw.input(1)->DeliverCell(sim.Now(), cell);
  cell[2] = 9;  // unrouted VCI
  sw.input(1)->DeliverCell(sim.Now(), cell);
  sim.RunToCompletion();
  EXPECT_EQ(sink.cells, 1);
  EXPECT_EQ(sw.stats().cells_switched, 1u);
  EXPECT_EQ(sw.stats().no_route, 1u);
}

TEST(AtmSwitch, ForwardsEachCellInItsArrivalEvent) {
  // The fabric latency is constant, so a cell goes onto its output fiber in
  // the event that delivers it to the switch: one event per cell (the output
  // fiber's delivery). VC-buffer releases take no event of their own; with
  // buffering, the flush event runs at the first cell's last-bit time (the
  // latest release then pending) and again at the third's.
  const SimDuration latency = SimDuration::FromMicros(10);
  const SimDuration propagation = SimDuration::FromNanos(300);
  struct TimeSink : CellSink {
    using CellSink::DeliverCell;
    void DeliverCell(SimTime t, const CellBytes&) override { arrivals.push_back(t); }
    std::vector<SimTime> arrivals;
  };
  for (const size_t buffer_cells : {size_t{0}, size_t{8}}) {
    SCOPED_TRACE(buffer_cells);
    Simulator sim;
    AtmSwitch sw(&sim, kTaxiBitsPerSecond, propagation, latency);
    TimeSink sink;
    sw.AttachOutput(0, &sink);
    sw.AddRoute(7, 0);
    VcBufferConfig vc;
    vc.buffer_cells = buffer_cells;
    sw.ConfigureVcBuffers(vc);
    const SimDuration cell_time =
        Wire(&sim, kTaxiBitsPerSecond, propagation).SerializationDelay(kAtmCellBytes);

    std::vector<uint8_t> cell(kAtmCellBytes, 0);
    cell[2] = 7;
    for (int k = 0; k < 3; ++k) {
      sw.input(0)->DeliverCell(sim.Now(), cell);
    }
    EXPECT_EQ(sim.RunToCompletion(), buffer_cells == 0 ? 3u : 5u);

    ASSERT_EQ(sink.arrivals.size(), 3u);
    for (int k = 1; k <= 3; ++k) {
      EXPECT_EQ(sink.arrivals[static_cast<size_t>(k - 1)],
                SimTime() + latency + cell_time * k + propagation)
          << "cell " << k;
    }
    if (buffer_cells > 0) {
      const AtmSwitch::VcState* state = sw.vc_state(7);
      ASSERT_NE(state, nullptr);
      EXPECT_EQ(state->occupancy, 0);
      EXPECT_EQ(state->hiwat, 3);
    }
  }
}

// A switch with one output port, VC 7 and VC 8 routed to it, and per-VC
// buffers of `buffer_cells`; counts what reaches the port's sink.
struct BufferedSwitch {
  static constexpr SimDuration kLatency = SimDuration::FromMicros(10);
  static constexpr SimDuration kPropagation = SimDuration::FromNanos(300);

  explicit BufferedSwitch(size_t buffer_cells)
      : sw(&sim, kTaxiBitsPerSecond, kPropagation, kLatency),
        cell_time(Wire(&sim, kTaxiBitsPerSecond, kPropagation).SerializationDelay(kAtmCellBytes)) {
    sw.AttachOutput(0, &sink);
    sw.AddRoute(7, 0);
    sw.AddRoute(8, 0);
    VcBufferConfig vc;
    vc.buffer_cells = buffer_cells;
    sw.ConfigureVcBuffers(vc);
  }

  void Send(uint16_t vci) {
    std::vector<uint8_t> cell(kAtmCellBytes, 0);
    cell[2] = static_cast<uint8_t>(vci);
    sw.input(0)->DeliverCell(sim.Now(), cell);
  }

  // Last-bit time of the k-th cell (1-based) sent at time 0.
  SimTime LastBit(int k) const { return SimTime() + kLatency + cell_time * k; }

  struct CountSink : CellSink {
    using CellSink::DeliverCell;
    void DeliverCell(SimTime, const CellBytes&) override { ++cells; }
    int cells = 0;
  };

  Simulator sim;
  CountSink sink;
  AtmSwitch sw;
  SimDuration cell_time;
};

// A VC-buffer slot frees at its cell's last-bit time, in the event order the
// release event used to take: a cell arriving at that same nanosecond finds
// the slot free only if the release was scheduled before its arrival. With
// a leading cell on VC 8, the release is still pending when the arrival
// runs; without it, the flush event at that time comes first.
TEST(AtmSwitch, ReleaseAndArrivalAtTheSameTimeKeepTheirEventOrder) {
  for (const bool lead : {false, true}) {
    for (const bool release_first : {true, false}) {
      SCOPED_TRACE(testing::Message() << "lead " << lead << ", release first " << release_first);
      BufferedSwitch b(1);
      const SimTime release = b.LastBit(lead ? 2 : 1);
      auto arrive = [&b] { b.Send(7); };
      if (!release_first) {
        b.sim.ScheduleAt(release, arrive);  // sequenced before the release
      }
      if (lead) {
        b.Send(8);
      }
      b.Send(7);
      if (release_first) {
        b.sim.ScheduleAt(release, arrive);
      }
      b.sim.RunToCompletion();

      const AtmSwitch::VcState* vc7 = b.sw.vc_state(7);
      ASSERT_NE(vc7, nullptr);
      EXPECT_EQ(vc7->cells_forwarded, release_first ? 2u : 1u);
      EXPECT_EQ(vc7->cells_dropped, release_first ? 0u : 1u);
      EXPECT_EQ(vc7->occupancy, 0);
      EXPECT_EQ(vc7->hiwat, 1);
      EXPECT_EQ(b.sink.cells, (lead ? 1 : 0) + (release_first ? 2 : 1));
    }
  }
}

// Releases due at the same nanosecond on two ports push their occupancy
// samples in the order their events had, not port by port: the timeline's
// sort is stable on (time, host), so that push order is what it prints.
// VC 9's cell on port 1 and VC 8's on port 0, behind VC 7's, both leave at
// LastBit(2), and VC 9's release was drawn first.
TEST(AtmSwitch, ReleasesAtTheSameTimeOnTwoPortsSampleInEventOrder) {
  BufferedSwitch b(8);
  b.sw.AttachOutput(1, &b.sink);
  b.sw.AddRoute(9, 1);
  Tracer tracer;
  TimeseriesConfig every_change;
  every_change.period_ns = 1;
  tracer.EnableTimeseries(every_change);
  b.sw.AttachTracer(&tracer, tracer.RegisterHost("switch"));
  b.Send(7);  // port 0, last bit at LastBit(1)
  b.sim.RunUntil(SimTime() + b.cell_time);
  b.Send(9);  // port 1, idle: LastBit(2)
  b.Send(8);  // port 0, behind VC 7's cell: LastBit(2)
  b.sim.RunToCompletion();

  std::vector<uint64_t> released_at_last_bit_2;
  for (const TimeseriesPoint& p : tracer.SortedTimeseriesPoints()) {
    if (p.ts_ns == b.LastBit(2).nanos() &&
        p.metric == static_cast<uint8_t>(TsMetric::kVcOccupancy)) {
      EXPECT_EQ(p.value, 0);
      released_at_last_bit_2.push_back(p.key);
    }
  }
  EXPECT_EQ(released_at_last_bit_2, (std::vector<uint64_t>{9, 8}));
}

// vc_state() read between runs shows every release due by the clock: after
// RunUntil(t), each cell whose last bit left by t has freed its slot.
TEST(AtmSwitch, VcStateAfterRunUntilShowsEveryReleaseDueByTheDeadline) {
  BufferedSwitch b(8);
  for (int k = 0; k < 3; ++k) {
    b.Send(7);
  }
  ASSERT_NE(b.sw.vc_state(7), nullptr);
  EXPECT_EQ(b.sw.vc_state(7)->occupancy, 3);
  b.sim.RunUntil(b.LastBit(2) - SimDuration::FromNanos(1));
  EXPECT_EQ(b.sw.vc_state(7)->occupancy, 2);
  b.sim.RunUntil(b.LastBit(2));
  EXPECT_EQ(b.sw.vc_state(7)->occupancy, 1);
  b.sim.RunUntil(b.LastBit(3));
  EXPECT_EQ(b.sw.vc_state(7)->occupancy, 0);
  EXPECT_EQ(b.sw.vc_state(7)->hiwat, 3);
}

// A buffered cell dropped in flight by an output impairment still holds its
// slot until its last bit leaves, and nothing else happens at that time:
// the run must still end there, with the VC's occupancy gauge back at 0.
TEST(AtmSwitch, RunEndsAtTheLastReleaseWhenTheLastCellIsLostInFlight) {
  struct DropThird : LinkImpairment {
    Verdict OnTransmit(SimTime, const std::vector<uint8_t>&) override {
      Verdict v;
      v.drop = ++transmits == 3;
      return v;
    }
    int transmits = 0;
  } drop_third;
  BufferedSwitch b(8);
  b.sw.set_output_impairment(&drop_third);
  for (int k = 0; k < 3; ++k) {
    b.Send(7);
  }
  // Held from before the run, so the snapshot shows what the run left.
  const MetricsRegistry& metrics = b.sw.metrics();
  b.sim.RunToCompletion();

  EXPECT_EQ(b.sink.cells, 2);
  EXPECT_EQ(b.sim.Now(), b.LastBit(3));
  int64_t occupancy = -1;
  for (const MetricsRegistry::Sample& m : metrics.Snapshot()) {
    if (m.name == "switch.vc7.occupancy") {
      occupancy = m.value;
    }
  }
  EXPECT_EQ(occupancy, 0);
}

// A sink written against the vector form still gets every cell, bytes
// intact, and the vector form still reaches the switch.
TEST(AtmSwitch, VectorFormSinkReceivesEveryCell) {
  struct VectorSink : CellSink {
    void DeliverCell(SimTime, std::vector<uint8_t> wire_bytes) override {
      cells.push_back(std::move(wire_bytes));
    }
    std::vector<std::vector<uint8_t>> cells;
  } sink;
  Simulator sim;
  AtmSwitch sw(&sim, kTaxiBitsPerSecond, SimDuration::FromNanos(300),
               SimDuration::FromMicros(10));
  sw.AttachOutput(0, &sink);
  sw.AddRoute(7, 0);
  std::vector<std::vector<uint8_t>> sent;
  for (uint8_t k = 0; k < 5; ++k) {
    std::vector<uint8_t> cell(kAtmCellBytes, k);
    cell[1] = 0;
    cell[2] = 7;
    sent.push_back(cell);
    if (k % 2 == 0) {
      sw.input(0)->DeliverCell(sim.Now(), ToCellBytes(cell));
    } else {
      sw.input(0)->DeliverCell(sim.Now(), cell);
    }
  }
  sim.RunToCompletion();
  EXPECT_EQ(sink.cells, sent);
  EXPECT_EQ(sw.stats().cells_switched, 5u);
}

// Both ways a cell could lose its size are CHECK failures: a short vector
// handed to a switch input, and a fabric corrupt hook that resizes a cell.
TEST(AtmSwitchDeathTest, CellOfTheWrongSizeFailsACheck) {
  struct NullSink : CellSink {
    using CellSink::DeliverCell;
    void DeliverCell(SimTime, const CellBytes&) override {}
  } sink;
  Simulator sim;
  AtmSwitch sw(&sim, kTaxiBitsPerSecond, SimDuration::FromNanos(300),
               SimDuration::FromMicros(10));
  sw.AttachOutput(0, &sink);
  sw.AddRoute(7, 0);
  std::vector<uint8_t> cell(kAtmCellBytes, 0);
  cell[2] = 7;

  std::vector<uint8_t> short_cell(cell.begin(), cell.end() - 1);
  EXPECT_DEATH(sw.input(0)->DeliverCell(sim.Now(), short_cell),
               "CHECK failed.*a cell is 53 bytes");

  sw.set_fabric_corrupt_hook([](std::vector<uint8_t>& bytes) { bytes.push_back(0); });
  EXPECT_DEATH(sw.input(0)->DeliverCell(sim.Now(), cell), "CHECK failed.*a cell is 53 bytes");
}

}  // namespace
}  // namespace tcplat
