// The pathological interactive suite's contract: with Nagle and delayed
// ACKs both on, a two-chunk small-write request/response flow's round trip
// collapses to the receiver's delayed-ACK timer (chunk 2 waits for the
// timer-released ACK); the mode tracks the timer value, and vanishes when
// either leg is removed (TCP_NODELAY on the sender, or delack disabled on
// the receiver). The silly-window and retransmit-storm scenarios run the
// same flows on a star testbed they set up themselves, and are
// self-verifying: sws_holds moves only under a server receive buffer
// smaller than the request, and burst loss never snowballs retransmits
// past a small multiple of the injected drops. Every cell is
// byte-identical across repeat runs and deterministic per seed.

#include <gtest/gtest.h>

#include <vector>

#include "src/fault/impairment.h"
#include "src/workload/interactive.h"
#include "src/workload/star_testbed.h"

namespace tcplat {
namespace {

constexpr int64_t kMs = 1'000'000;

// With Nagle + delayed ACK on (the defaults), the two-chunk request's
// round trip is pinned to the server's delayed-ACK timer: chunk 1 leaves
// idle, chunk 2 waits behind it, and the server — short of a full request —
// only acks when the timer fires. p50 must sit just above the timer, for
// two different timer values (the "latency ≈ timer" signature). At the
// default 200 ms timer, p99 stays within 1.10x of its 202,210.6 us.
TEST(InteractivePathology, DelackModeTracksTimerValue) {
  for (const int64_t timer_ms : {int64_t{200}, int64_t{60}}) {
    InteractiveCell cell;
    cell.iterations = 16;
    cell.warmup = 2;
    if (timer_ms != 200) {
      cell.delack_timeout = SimDuration::FromMillis(timer_ms);
    }
    const InteractiveOutcome out = RunInteractiveCell(cell);
    EXPECT_EQ(out.completed, 1u) << "timer " << timer_ms;
    EXPECT_EQ(out.samples, 16u);
    EXPECT_GE(out.p50.nanos(), timer_ms * kMs) << "timer " << timer_ms;
    EXPECT_LE(out.p50.nanos(), timer_ms * kMs + 5 * kMs) << "timer " << timer_ms;
    if (timer_ms == 200) {
      EXPECT_LE(out.p99.nanos(), 222'431'660);
    }
    // One held chunk and one timer-released ACK per round trip.
    EXPECT_GE(out.nagle_holds, 16u);
    EXPECT_GE(out.delayed_acks_fired, 16u);
    EXPECT_EQ(out.sws_holds, 0u);
  }
}

// TCP_NODELAY on the client sends chunk 2 immediately: the delack timer
// never gates the request, and the round trip drops to wire scale: p99
// stays within 1.10x of its 1,938.2 us.
TEST(InteractivePathology, ModeVanishesUnderNodelay) {
  InteractiveCell cell;
  cell.knob = InteractiveKnob::kNodelay;
  cell.iterations = 16;
  cell.warmup = 2;
  const InteractiveOutcome out = RunInteractiveCell(cell);
  EXPECT_EQ(out.completed, 1u);
  EXPECT_EQ(out.samples, 16u);
  EXPECT_LE(out.p99.nanos(), 2'132'020);
  EXPECT_EQ(out.nagle_holds, 0u);
}

// Disabling delayed ACKs on the server acks chunk 1 immediately, releasing
// chunk 2 after one wire round trip: Nagle still holds (nagle_holds moves)
// but the 200 ms mode is gone and the timer never fires for request data:
// p99 stays within 1.10x of its 2,409.5 us.
TEST(InteractivePathology, ModeVanishesWithDelackDisabled) {
  InteractiveCell cell;
  cell.knob = InteractiveKnob::kDelackOff;
  cell.iterations = 16;
  cell.warmup = 2;
  const InteractiveOutcome out = RunInteractiveCell(cell);
  EXPECT_EQ(out.completed, 1u);
  EXPECT_EQ(out.samples, 16u);
  EXPECT_LE(out.p99.nanos(), 2'650'450);
  EXPECT_GE(out.nagle_holds, 16u);
}

InteractiveCell MultiFlowCell(uint64_t seed, InteractiveKnob knob) {
  InteractiveCell cell;
  cell.flows = 4;
  cell.clients = 2;
  cell.servers = 2;
  cell.iterations = 10;
  cell.warmup = 2;
  cell.seed = seed;
  cell.knob = knob;
  return cell;
}

void ExpectSameOutcome(const InteractiveOutcome& a, const InteractiveOutcome& b) {
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.mean.nanos(), b.mean.nanos());
  EXPECT_EQ(a.p50.nanos(), b.p50.nanos());
  EXPECT_EQ(a.p99.nanos(), b.p99.nanos());
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.nagle_holds, b.nagle_holds);
  EXPECT_EQ(a.sws_holds, b.sws_holds);
  EXPECT_EQ(a.delayed_acks_fired, b.delayed_acks_fired);
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.sim_events, b.sim_events);
}

// All three knob cells must produce byte-identical outcomes run to run,
// across two seeds.
TEST(InteractiveDeterminism, CellsAreByteIdenticalAcrossRepeatsAndSeeds) {
  for (const uint64_t seed : {uint64_t{1}, uint64_t{7}}) {
    for (const InteractiveKnob knob :
         {InteractiveKnob::kPathological, InteractiveKnob::kNodelay,
          InteractiveKnob::kDelackOff}) {
      const InteractiveCell cell = MultiFlowCell(seed, knob);
      SCOPED_TRACE(InteractiveKnobName(knob));
      ExpectSameOutcome(RunInteractiveCell(cell), RunInteractiveCell(cell));
    }
  }
}

// What the two scenarios read after a run: every stack's hold and
// retransmit counters summed, plus the run's shape.
struct ScenarioOutcome {
  uint64_t completed = 0;
  uint64_t aborted = 0;
  uint64_t nagle_holds = 0;
  uint64_t sws_holds = 0;
  uint64_t retransmits = 0;
  uint64_t drops_injected = 0;  // by the storm's impairment policy
  SimDuration p99;
  uint64_t sim_events = 0;
};

ScenarioOutcome RunScenario(StarTestbed& testbed, const std::vector<FlowSpec>& specs) {
  const WorkloadResult result = RunWorkload(testbed, specs);
  ScenarioOutcome out;
  out.completed = result.completed;
  out.aborted = result.aborted;
  out.p99 = result.rtt.Percentile(99);
  for (int idx = 0; idx < testbed.host_count(); ++idx) {
    const TcpStats& stats = testbed.tcp(idx).stats();
    out.nagle_holds += stats.nagle_holds;
    out.sws_holds += stats.sws_holds;
    out.retransmits += stats.retransmits;
  }
  out.sim_events = testbed.EventsDispatched();
  return out;
}

// One pathological flow on a 1x1 star whose server stack gets a
// `rcvbuf`-byte receive buffer.
ScenarioOutcome RunSillyWindowFlow(size_t rcvbuf) {
  InteractiveCell cell;
  cell.iterations = 6;
  cell.warmup = 1;
  StarTestbed testbed(StarTestbedConfig{});
  testbed.server_tcp(0).config().rcvbuf = rcvbuf;
  return RunScenario(testbed, BuildInteractiveFlows(cell, 1, 1));
}

// Silly-window scenario: a 150-byte server receive buffer, below the
// 200-byte request, makes chunk 2's hold *window-limited* — tcp.sws_holds
// must move, once per round trip — while the default 8,192-byte buffer
// counts zero (its holds are pure Nagle). The small buffer's hold ends at
// the window update the server sends once its read of chunk 1 frees half
// the buffer; the control's waits for the delayed-ACK timer.
TEST(InteractiveScenarios, SillyWindowHoldsCountOnlyUnderSmallReceiveBuffer) {
  const ScenarioOutcome small = RunSillyWindowFlow(150);
  EXPECT_EQ(small.completed, 1u);
  EXPECT_GE(small.sws_holds, 6u);

  const ScenarioOutcome control = RunSillyWindowFlow(TcpConfig().rcvbuf);
  EXPECT_EQ(control.completed, 1u);
  EXPECT_EQ(control.sws_holds, 0u);
  EXPECT_GE(control.nagle_holds, 6u);
}

// Eight wire-speed (TCP_NODELAY) flows on a 4x2 star, with Gilbert-Elliott
// burst loss on every switch output port. The flows tolerate errors, so a
// connection death is an aborted flow, not a crash.
ScenarioOutcome RunStorm() {
  InteractiveCell cell;
  cell.flows = 8;
  cell.clients = 4;
  cell.servers = 2;
  cell.iterations = 12;
  cell.warmup = 2;
  cell.knob = InteractiveKnob::kNodelay;
  ImpairmentConfig impairment;
  impairment.ge_good_to_bad = 0.02;
  impairment.ge_bad_to_good = 0.25;
  impairment.ge_bad_loss = 0.3;
  impairment.seed = 23;

  StarTestbedConfig config;
  config.clients = cell.clients;
  config.servers = cell.servers;
  StarTestbed testbed(config);
  ImpairmentPolicy policy(impairment);
  testbed.atm_switch()->set_output_impairment(&policy);
  std::vector<FlowSpec> specs = BuildInteractiveFlows(cell, cell.clients, cell.servers);
  for (FlowSpec& spec : specs) {
    spec.tolerate_errors = true;
  }
  ScenarioOutcome out = RunScenario(testbed, specs);
  testbed.atm_switch()->set_output_impairment(nullptr);
  out.drops_injected = policy.stats().dropped;
  return out;
}

// Retransmit storm: the run must complete, and recovery must stay
// proportional to the injected loss — a retransmit count far above the
// drop count would mean timer-driven retransmissions snowballing (the
// storm the fixture guards against). Identical reruns pin determinism of
// the fault seed.
TEST(InteractiveScenarios, RetransmitStormStaysBoundedAndDeterministic) {
  const ScenarioOutcome a = RunStorm();
  EXPECT_GT(a.drops_injected, 0u);
  EXPECT_EQ(a.completed + a.aborted, 8u);
  EXPECT_GE(a.completed, 7u);
  EXPECT_GE(a.retransmits, 1u);
  EXPECT_LE(a.retransmits, a.drops_injected * 3 + 8);

  const ScenarioOutcome b = RunStorm();
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.drops_injected, b.drops_injected);
  EXPECT_EQ(a.p99.nanos(), b.p99.nanos());
  EXPECT_EQ(a.sim_events, b.sim_events);
}

}  // namespace
}  // namespace tcplat
