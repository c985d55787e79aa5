// Impairment-layer tests: policy mechanics in isolation, then the
// property-style end-to-end claim — for any seeded impairment configuration
// the TCP connection still delivers every byte exactly once and in order,
// and the link accounting satisfies delivered + dropped == offered.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "src/base/random.h"
#include "src/core/rpc_benchmark.h"
#include "src/core/testbed.h"
#include "src/fault/impairment.h"
#include "src/fault/scenario.h"
#include "src/workload/star_testbed.h"

namespace tcplat {
namespace {

std::vector<uint8_t> Unit(size_t n = 53) { return std::vector<uint8_t>(n, 0xAB); }

void CheckInvariant(const ImpairmentStats& s) {
  EXPECT_EQ(s.delivered + s.dropped, s.offered);
}

TEST(ImpairmentPolicy, InactiveConfigIsInert) {
  ImpairmentConfig cfg;
  EXPECT_FALSE(cfg.active());
  ImpairmentPolicy policy(cfg);
  for (int i = 0; i < 1000; ++i) {
    const auto v = policy.OnTransmit(SimTime::FromNanos(i), Unit());
    EXPECT_FALSE(v.drop);
    EXPECT_FALSE(v.duplicate);
    EXPECT_EQ(v.extra_delay.nanos(), 0);
  }
  EXPECT_EQ(policy.stats().offered, 1000u);
  EXPECT_EQ(policy.stats().delivered, 1000u);
  EXPECT_EQ(policy.stats().dropped, 0u);
  CheckInvariant(policy.stats());
}

TEST(ImpairmentPolicy, CertainDropDropsEverything) {
  ImpairmentConfig cfg;
  cfg.drop_prob = 1.0;
  ImpairmentPolicy policy(cfg);
  for (int i = 0; i < 500; ++i) {
    EXPECT_TRUE(policy.OnTransmit(SimTime::FromNanos(i), Unit()).drop);
  }
  EXPECT_EQ(policy.stats().dropped, 500u);
  EXPECT_EQ(policy.stats().delivered, 0u);
  EXPECT_EQ(policy.stats().bytes_dropped, 500u * 53u);
  CheckInvariant(policy.stats());
}

TEST(ImpairmentPolicy, GilbertElliottLossIsBursty) {
  ImpairmentConfig cfg;
  cfg.ge_good_to_bad = 0.01;
  cfg.ge_bad_to_good = 0.25;  // mean burst: 4 units
  cfg.ge_bad_loss = 1.0;
  cfg.seed = 7;
  ImpairmentPolicy policy(cfg);
  for (int i = 0; i < 20000; ++i) {
    policy.OnTransmit(SimTime::FromNanos(i), Unit());
  }
  const ImpairmentStats& s = policy.stats();
  CheckInvariant(s);
  EXPECT_GT(s.ge_bursts, 0u);
  EXPECT_GT(s.dropped, 0u);
  // Certain loss in the bad state means each burst drops its whole run, so
  // drops outnumber bursts by roughly the mean burst length.
  EXPECT_GT(s.dropped, 2 * s.ge_bursts);
}

TEST(ImpairmentPolicy, SameSeedSameSchedule) {
  ImpairmentConfig cfg;
  cfg.drop_prob = 0.05;
  cfg.duplicate_prob = 0.05;
  cfg.reorder_prob = 0.05;
  cfg.jitter_max = SimDuration::FromMicros(10);
  cfg.seed = 42;
  ImpairmentPolicy a(cfg);
  ImpairmentPolicy b(cfg);
  for (int i = 0; i < 5000; ++i) {
    const auto va = a.OnTransmit(SimTime::FromNanos(i), Unit());
    const auto vb = b.OnTransmit(SimTime::FromNanos(i), Unit());
    ASSERT_EQ(va.drop, vb.drop);
    ASSERT_EQ(va.duplicate, vb.duplicate);
    ASSERT_EQ(va.extra_delay.nanos(), vb.extra_delay.nanos());
    ASSERT_EQ(va.duplicate_lag.nanos(), vb.duplicate_lag.nanos());
  }
  EXPECT_EQ(a.stats().dropped, b.stats().dropped);
  EXPECT_EQ(a.stats().duplicated, b.stats().duplicated);
  EXPECT_EQ(a.stats().reordered, b.stats().reordered);
  EXPECT_EQ(a.stats().jittered, b.stats().jittered);

  cfg.seed = 43;
  ImpairmentPolicy c(cfg);
  for (int i = 0; i < 5000; ++i) {
    c.OnTransmit(SimTime::FromNanos(i), Unit());
  }
  // A different seed draws a different schedule (equality has vanishing
  // probability over 5000 draws of four features).
  EXPECT_FALSE(a.stats().dropped == c.stats().dropped &&
               a.stats().duplicated == c.stats().duplicated &&
               a.stats().reordered == c.stats().reordered &&
               a.stats().jittered == c.stats().jittered);
}

TEST(ImpairmentPolicy, MetricsViewsExportCounters) {
  ImpairmentConfig cfg;
  cfg.drop_prob = 0.5;
  ImpairmentPolicy policy(cfg);
  MetricsRegistry metrics;
  policy.RegisterMetrics(metrics, "c2s");
  for (int i = 0; i < 100; ++i) {
    policy.OnTransmit(SimTime::FromNanos(i), Unit());
  }
  const std::string json = metrics.ToJson();
  EXPECT_NE(json.find("link.c2s.offered"), std::string::npos);
  EXPECT_NE(json.find("link.c2s.dropped"), std::string::npos);
  EXPECT_NE(json.find("\"link.c2s.offered\": 100"), std::string::npos) << json;
}

// ---------------------------------------------------------------------------
// End-to-end property: whatever the (survivable) impairment, TCP delivers
// the application stream intact, and the link ledger balances.

void CheckScenario(const LossScenarioConfig& cfg, bool expect_retransmits) {
  SCOPED_TRACE("seed " + std::to_string(cfg.seed));
  const LossScenarioResult r = RunLossScenario(cfg);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.rpc.data_mismatches, 0u);
  EXPECT_EQ(r.rpc.rtt.count(), static_cast<uint64_t>(cfg.iterations));
  CheckInvariant(r.link);
  EXPECT_GT(r.link.offered, 0u);
  if (expect_retransmits) {
    EXPECT_GT(r.link.dropped, 0u);
    EXPECT_GT(r.retransmits, 0u);
  }
}

TEST(ImpairmentEndToEnd, AtmUniformLossDeliversExactlyOnce) {
  for (uint64_t seed : {1, 2, 3, 4, 5}) {
    LossScenarioConfig cfg;
    cfg.network = NetworkKind::kAtm;
    cfg.size = 4096;
    cfg.iterations = 40;
    cfg.warmup = 2;
    cfg.seed = seed;
    // ~190 cells per echo round trip: a 0.2% cell loss makes segment loss
    // (and therefore retransmission) a statistical certainty over 40 rounds.
    cfg.impairment.drop_prob = 2e-3;
    CheckScenario(cfg, /*expect_retransmits=*/true);
  }
}

TEST(ImpairmentEndToEnd, AtmMixedImpairmentsDeliverExactlyOnce) {
  for (uint64_t seed : {11, 12, 13}) {
    LossScenarioConfig cfg;
    cfg.network = NetworkKind::kAtm;
    cfg.size = 1024;
    cfg.iterations = 30;
    cfg.warmup = 2;
    cfg.seed = seed;
    // Cell-granularity caution: a duplicated or reordered cell voids its
    // whole segment at AAL reassembly, and jitter above the ~3 us cell
    // serialization gap reorders *every* multi-cell segment (total
    // blackout). Keep dup/reorder rare and jitter below the cell gap so the
    // connection survives while still exercising all the machinery.
    cfg.impairment.drop_prob = 1e-3;
    cfg.impairment.duplicate_prob = 0.002;
    cfg.impairment.reorder_prob = 0.005;
    cfg.impairment.jitter_max = SimDuration::FromMicros(2);
    CheckScenario(cfg, /*expect_retransmits=*/false);
  }
}

// The switched two-host topology is the 1 x 1 star; the policy drops cells
// on the switch's output fibers.
TEST(ImpairmentEndToEnd, SwitchedAtmLossDeliversExactlyOnce) {
  StarTestbed star(StarTestbedConfig{});
  ImpairmentConfig imp;
  imp.drop_prob = 1e-3;
  imp.seed = 21;
  ImpairmentPolicy policy(imp);
  star.atm_switch()->set_output_impairment(&policy);
  RpcOptions opt;
  opt.size = 4096;
  opt.iterations = 30;
  opt.warmup = 2;
  opt.tolerate_errors = true;
  const RpcResult r = RunRpcBenchmark(star, opt);
  star.atm_switch()->set_output_impairment(nullptr);

  EXPECT_FALSE(r.aborted);
  EXPECT_EQ(r.data_mismatches, 0u);
  EXPECT_EQ(r.rtt.count(), 30u);
  CheckInvariant(policy.stats());
  EXPECT_GT(policy.stats().offered, 0u);
  EXPECT_GT(policy.stats().dropped, 0u);
  EXPECT_GT(r.client_tcp.retransmits + r.server_tcp.retransmits, 0u);
}

TEST(ImpairmentEndToEnd, EthernetFrameLossDeliversExactlyOnce) {
  for (uint64_t seed : {31, 32}) {
    LossScenarioConfig cfg;
    cfg.network = NetworkKind::kEthernet;
    cfg.size = 1024;
    cfg.iterations = 30;
    cfg.warmup = 2;
    cfg.seed = seed;
    cfg.impairment.drop_prob = 0.01;
    CheckScenario(cfg, /*expect_retransmits=*/false);
  }
}

TEST(ImpairmentEndToEnd, ZeroImpairmentMatchesCleanRun) {
  // All-zero impairment attached must be invisible: the scenario's RTT
  // distribution equals a plain benchmark run on an untouched testbed.
  LossScenarioConfig cfg;
  cfg.network = NetworkKind::kAtm;
  cfg.size = 1024;
  cfg.iterations = 20;
  cfg.warmup = 2;
  const LossScenarioResult r = RunLossScenario(cfg);

  TestbedConfig tb_cfg;
  tb_cfg.network = NetworkKind::kAtm;
  Testbed tb(tb_cfg);
  RpcOptions rpc;
  rpc.size = cfg.size;
  rpc.iterations = cfg.iterations;
  rpc.warmup = cfg.warmup;
  const RpcResult clean = RunRpcBenchmark(tb, rpc);

  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.link.dropped, 0u);
  EXPECT_EQ(r.link.offered, r.link.delivered);
  EXPECT_EQ(r.rpc.rtt.sum().nanos(), clean.rtt.sum().nanos());
  EXPECT_EQ(r.retransmits, 0u);
}

// Passes every verdict of a seeded ImpairmentPolicy through and keeps it, so
// a test can work out when each unit must arrive.
class RecordingImpairment : public LinkImpairment {
 public:
  explicit RecordingImpairment(const ImpairmentConfig& config) : policy_(config) {}

  Verdict OnTransmit(SimTime departure, const std::vector<uint8_t>& data) override {
    const Verdict verdict = policy_.OnTransmit(departure, data);
    verdicts_.push_back(verdict);
    return verdict;
  }

  const Verdict& last() const { return verdicts_.back(); }
  const ImpairmentStats& stats() const { return policy_.stats(); }

 private:
  ImpairmentPolicy policy_;
  std::vector<Verdict> verdicts_;
};

// One expected or observed delivery: the unit's number, its copy (1 for an
// impairment duplicate) and its arrival time.
struct Arrival {
  uint32_t unit = 0;
  int copy = 0;
  int64_t at_ns = 0;
  bool operator==(const Arrival&) const = default;
};

std::vector<uint8_t> NumberedUnit(uint32_t unit) {
  std::vector<uint8_t> bytes(53, 0);
  std::memcpy(bytes.data(), &unit, sizeof(unit));
  return bytes;
}

uint32_t UnitNumber(const std::vector<uint8_t>& bytes) {
  uint32_t unit = 0;
  std::memcpy(&unit, bytes.data(), sizeof(unit));
  return unit;
}

// Reorder holds, jitter and duplicate lags put many deliveries earlier than
// the wire's latest one; those leave the wire's event lane for the ordinary
// heap, and every delivery must still land at the time its Transmit implies,
// in (arrival, transmit) order.
TEST(WireLane, ImpairedWireDeliversEachUnitWhenItsTransmitSays) {
  Simulator sim;
  ImpairmentConfig cfg;
  cfg.duplicate_prob = 0.1;
  cfg.duplicate_lag = SimDuration::FromMicros(5);
  cfg.reorder_prob = 0.2;
  cfg.reorder_hold = SimDuration::FromMicros(10);
  cfg.jitter_max = SimDuration::FromMicros(4);
  cfg.seed = 3;
  RecordingImpairment impairment(cfg);
  const SimDuration propagation = SimDuration::FromMicros(1);
  Wire wire(&sim, 140e6, propagation);  // a 53-byte cell takes ~3 us
  wire.set_impairment(&impairment);

  constexpr uint32_t kUnits = 3000;
  std::vector<Arrival> expected;  // in schedule order
  std::vector<Arrival> got;
  std::vector<int> copies(kUnits, 0);
  int64_t latest_ns = 0;
  int overtaken = 0;
  Rng rng(5);
  SimTime send_at;
  for (uint32_t unit = 0; unit < kUnits; ++unit) {
    // Bursts queue on the wire; gaps let it drain.
    send_at = send_at + SimDuration::FromNanos(static_cast<int64_t>(rng.NextBelow(6000)));
    sim.ScheduleAt(send_at, [&, unit] {
      const SimTime last_bit = wire.Transmit(
          sim.Now(), NumberedUnit(unit), [&](SimTime t, std::vector<uint8_t> bytes) {
            EXPECT_EQ(t, sim.Now());
            const uint32_t n = UnitNumber(bytes);
            got.push_back({n, copies[n]++, t.nanos()});
          });
      const LinkImpairment::Verdict& v = impairment.last();
      const int64_t arrival = (last_bit + propagation + v.extra_delay).nanos();
      overtaken += arrival < latest_ns ? 1 : 0;
      latest_ns = std::max(latest_ns, arrival);
      expected.push_back({unit, 0, arrival});
      if (v.duplicate) {
        expected.push_back({unit, 1, arrival + v.duplicate_lag.nanos()});
      }
    });
  }
  sim.RunToCompletion();

  // std::stable_sort keeps schedule order among equal arrival times.
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Arrival& a, const Arrival& b) { return a.at_ns < b.at_ns; });
  EXPECT_EQ(got.size(), kUnits + impairment.stats().duplicated);
  EXPECT_EQ(got, expected);
  EXPECT_GT(overtaken, 300);
  EXPECT_GT(impairment.stats().duplicated, 100u);
}

// The lane belongs to the simulator, not the wire: units in flight when the
// wire is destroyed still arrive, the held-back (ordinary) ones included.
TEST(WireLane, UnitsInFlightArriveAfterTheWireIsDestroyed) {
  Simulator sim;
  ImpairmentConfig cfg;
  cfg.reorder_prob = 0.5;
  cfg.reorder_hold = SimDuration::FromMicros(10);
  cfg.seed = 2;
  RecordingImpairment impairment(cfg);
  const SimDuration propagation = SimDuration::FromMicros(1);
  std::vector<Arrival> expected;
  std::vector<Arrival> got;
  {
    Wire wire(&sim, 140e6, propagation);
    wire.set_impairment(&impairment);
    for (uint32_t unit = 0; unit < 20; ++unit) {
      const SimTime last_bit = wire.Transmit(
          sim.Now(), NumberedUnit(unit), [&](SimTime t, std::vector<uint8_t> bytes) {
            got.push_back({UnitNumber(bytes), 0, t.nanos()});
          });
      expected.push_back({unit, 0, (last_bit + propagation + impairment.last().extra_delay).nanos()});
    }
  }
  EXPECT_GT(impairment.stats().reordered, 3u);
  sim.RunToCompletion();
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Arrival& a, const Arrival& b) { return a.at_ns < b.at_ns; });
  EXPECT_EQ(got, expected);
}

// The same for cells sent by value: the lane event holds the sink, not the
// wire.
TEST(WireLane, CellsInFlightArriveAfterTheWireIsDestroyed) {
  struct CountingSink : CellSink {
    using CellSink::DeliverCell;
    void DeliverCell(SimTime, const CellBytes& cell) override {
      units.push_back(UnitNumber({cell.begin(), cell.end()}));
    }
    std::vector<uint32_t> units;
  } sink;
  Simulator sim;
  ImpairmentConfig cfg;
  cfg.reorder_prob = 0.5;
  cfg.seed = 2;
  ImpairmentPolicy policy(cfg);
  {
    Wire wire(&sim, 140e6, SimDuration::FromMicros(1));
    wire.set_impairment(&policy);
    for (uint32_t unit = 0; unit < 20; ++unit) {
      wire.Transmit(sim.Now(), ToCellBytes(NumberedUnit(unit)), &sink);
    }
  }
  EXPECT_GT(policy.stats().reordered, 3u);
  sim.RunToCompletion();
  std::sort(sink.units.begin(), sink.units.end());
  std::vector<uint32_t> all(20);
  std::iota(all.begin(), all.end(), 0u);
  EXPECT_EQ(sink.units, all);
}

// One delivered cell: its arrival time and its bytes.
struct TimedBytes {
  int64_t at_ns = 0;
  std::vector<uint8_t> bytes;
  bool operator==(const TimedBytes&) const = default;
};

// Sends 200 numbered cells, in bursts, over a wire with a seeded impairment
// policy (drop, duplicate, reorder hold, jitter) and a corrupt hook that
// damages every third cell. `as_cells` picks the CellBytes overload of
// Transmit, else the vector one. Returns the arrivals in delivery order.
std::vector<TimedBytes> ImpairedCellArrivals(bool as_cells) {
  struct RecordingSink : CellSink {
    using CellSink::DeliverCell;
    void DeliverCell(SimTime t, const CellBytes& cell) override {
      got.push_back({t.nanos(), {cell.begin(), cell.end()}});
    }
    std::vector<TimedBytes> got;
  };
  Simulator sim;
  ImpairmentConfig cfg;
  cfg.drop_prob = 0.1;
  cfg.duplicate_prob = 0.1;
  cfg.reorder_prob = 0.2;
  cfg.reorder_hold = SimDuration::FromMicros(10);
  cfg.jitter_max = SimDuration::FromMicros(4);
  cfg.seed = 9;
  ImpairmentPolicy policy(cfg);
  Wire wire(&sim, 140e6, SimDuration::FromMicros(1));
  wire.set_impairment(&policy);
  wire.set_corrupt_hook([](std::vector<uint8_t>& bytes) {
    if (UnitNumber(bytes) % 3 == 0) {
      bytes[20] ^= 0x5A;
    }
  });
  RecordingSink sink;
  Rng rng(5);
  SimTime send_at;
  for (uint32_t unit = 0; unit < 200; ++unit) {
    send_at = send_at + SimDuration::FromNanos(static_cast<int64_t>(rng.NextBelow(6000)));
    sim.ScheduleAt(send_at, [&, unit] {
      if (as_cells) {
        wire.Transmit(sim.Now(), ToCellBytes(NumberedUnit(unit)), &sink);
      } else {
        wire.Transmit(sim.Now(), NumberedUnit(unit), [&](SimTime t, std::vector<uint8_t> bytes) {
          sink.got.push_back({t.nanos(), std::move(bytes)});
        });
      }
    });
  }
  sim.RunToCompletion();
  EXPECT_GT(policy.stats().dropped, 5u);
  EXPECT_GT(policy.stats().duplicated, 5u);
  EXPECT_GT(policy.stats().reordered, 10u);
  EXPECT_EQ(wire.units_dropped(), policy.stats().dropped);
  return sink.got;
}

// A cell sent by value meets the fate hooks exactly as a vector unit does:
// same corruption, same verdicts, same arrival times, same order.
TEST(WireLane, CellsArriveAsTheSameUnitsSentAsVectorsWould) {
  const std::vector<TimedBytes> cells = ImpairedCellArrivals(true);
  const std::vector<TimedBytes> vectors = ImpairedCellArrivals(false);
  EXPECT_GT(cells.size(), 150u);
  EXPECT_EQ(cells, vectors);
  EXPECT_TRUE(std::any_of(cells.begin(), cells.end(),
                          [](const TimedBytes& c) { return c.bytes[20] == 0x5A; }))
      << "the corrupt hook reached the cells";
}

// A fate hook may rewrite a cell's bytes but not its size.
TEST(WireLaneDeathTest, CorruptHookThatResizesACellFailsACheck) {
  Simulator sim;
  Wire wire(&sim, 140e6, SimDuration::FromMicros(1));
  wire.set_corrupt_hook([](std::vector<uint8_t>& bytes) { bytes.pop_back(); });
  struct NullSink : CellSink {
    using CellSink::DeliverCell;
    void DeliverCell(SimTime, const CellBytes&) override {}
  } sink;
  EXPECT_DEATH(wire.Transmit(sim.Now(), CellBytes{}, &sink), "CHECK failed.*a cell is 53 bytes");
}

}  // namespace
}  // namespace tcplat
