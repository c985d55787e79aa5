// The pathological interactive suite's contract: with Nagle and delayed
// ACKs both on, a two-chunk small-write request/response flow's round trip
// collapses to the receiver's delayed-ACK timer (chunk 2 waits for the
// timer-released ACK); the mode tracks the timer value, and vanishes when
// either leg is removed (TCP_NODELAY on the sender, or delack disabled on
// the receiver). The silly-window and retransmit-storm scenarios are
// self-verifying: sws_holds moves only under an artificial window clamp,
// and burst loss never snowballs retransmits past a small multiple of the
// injected drops. Every cell is byte-identical across repeat runs and
// deterministic per seed.

#include <gtest/gtest.h>

#include <vector>

#include "src/fault/impairment.h"
#include "src/workload/interactive.h"

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

// Silly-window scenario: clamping the server's announced window below the
// request size makes chunk 2's hold *window-limited* — tcp.sws_holds must
// move, once per round trip — while the unclamped control counts zero
// (its holds are pure Nagle). Both converge on the delayed-ACK clock.
TEST(InteractiveScenarios, SillyWindowHoldsCountOnlyUnderClamp) {
  InteractiveCell clamped;
  clamped.iterations = 6;
  clamped.warmup = 1;
  clamped.server_rcv_clamp = 150;
  const InteractiveOutcome clamped_out = RunInteractiveCell(clamped);
  EXPECT_EQ(clamped_out.completed, 1u);
  EXPECT_GE(clamped_out.sws_holds, 6u);

  InteractiveCell control = clamped;
  control.server_rcv_clamp = 0;
  const InteractiveOutcome control_out = RunInteractiveCell(control);
  EXPECT_EQ(control_out.completed, 1u);
  EXPECT_EQ(control_out.sws_holds, 0u);
  EXPECT_GE(control_out.nagle_holds, 6u);
}

InteractiveCell StormCell() {
  InteractiveCell cell;
  cell.flows = 8;
  cell.clients = 4;
  cell.servers = 2;
  cell.iterations = 12;
  cell.warmup = 2;
  cell.knob = InteractiveKnob::kNodelay;  // wire-speed flows; loss dominates
  cell.impairment.ge_good_to_bad = 0.02;
  cell.impairment.ge_bad_to_good = 0.25;
  cell.impairment.ge_bad_loss = 0.3;
  cell.impairment.seed = 23;
  return cell;
}

// Retransmit storm: Gilbert-Elliott burst loss on every switch output
// under eight small flows. The run must complete, and recovery must stay
// proportional to the injected loss — a retransmit count far above the
// drop count would mean timer-driven retransmissions snowballing (the
// storm the fixture guards against). Identical reruns pin determinism of
// the fault seed.
TEST(InteractiveScenarios, RetransmitStormStaysBoundedAndDeterministic) {
  const InteractiveOutcome a = RunInteractiveCell(StormCell());
  EXPECT_GT(a.drops_injected, 0u);
  EXPECT_EQ(a.completed + a.aborted, 8u);
  EXPECT_GE(a.completed, 7u);
  EXPECT_GE(a.retransmits, 1u);
  EXPECT_LE(a.retransmits, a.drops_injected * 3 + 8);

  const InteractiveOutcome b = RunInteractiveCell(StormCell());
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.drops_injected, b.drops_injected);
  EXPECT_EQ(a.p99.nanos(), b.p99.nanos());
  EXPECT_EQ(a.sim_events, b.sim_events);
}

// Streaming variant (steady 100-byte appends every 2 ms): with Nagle on,
// only the first append leaves immediately — the rest batch up until the
// sink's delayed-ACK timer releases them, so delivery latency rides the
// timer (p99 ≈ timer, p50 ≈ timer/2 for a 10 ms clock against a 2 ms
// append cadence). With TCP_NODELAY each append is delivered at wire
// latency and the timer never fires against held data.
TEST(InteractiveScenarios, StreamingAppendsGatedByDelackUnlessNodelay) {
  InteractiveCell cell;
  cell.streaming = true;
  cell.request_chunks = {100};
  cell.stream_interval = SimDuration::FromMillis(2);
  cell.iterations = 40;
  cell.warmup = 2;
  cell.delack_timeout = SimDuration::FromMillis(10);
  const InteractiveOutcome gated = RunInteractiveCell(cell);
  EXPECT_EQ(gated.completed, 1u);
  EXPECT_EQ(gated.samples, 40u);
  EXPECT_GE(gated.p50.nanos(), 2 * kMs);
  EXPECT_GE(gated.p99.nanos(), 8 * kMs);
  EXPECT_LE(gated.p99.nanos(), 15 * kMs);
  EXPECT_GE(gated.delayed_acks_fired, 5u);

  InteractiveCell nodelay = cell;
  nodelay.knob = InteractiveKnob::kNodelay;
  const InteractiveOutcome fast = RunInteractiveCell(nodelay);
  EXPECT_EQ(fast.completed, 1u);
  EXPECT_EQ(fast.samples, 40u);
  EXPECT_LT(fast.p50.nanos(), 1 * kMs);
}

// Pipelined clients keep several requests in flight; the run must still
// complete with every response accounted for, and deeper pipelines must
// not deadlock against Nagle (responses keep the ACK clock running).
TEST(InteractiveScenarios, PipelinedRequestsComplete) {
  InteractiveCell cell;
  cell.pipeline_depth = 3;
  cell.knob = InteractiveKnob::kNodelay;
  cell.iterations = 12;
  cell.warmup = 2;
  const InteractiveOutcome out = RunInteractiveCell(cell);
  EXPECT_EQ(out.completed, 1u);
  EXPECT_EQ(out.samples, 12u);
  EXPECT_LT(out.p99.nanos(), 5 * kMs);
}

// --- keystroke/echo (telnet shape) -----------------------------------------

// A human typing one character every 150 ms against a per-byte echo server:
// each keystroke finds the connection idle, so Nagle lets it out at once
// and the echo returns at wire scale — two orders of magnitude below the
// typing clock. This is the satellite-era telnet baseline the paper's
// interactive discussion assumes.
TEST(InteractiveKeystroke, SlowTypingEchoesAtWireScale) {
  InteractiveCell cell;
  cell.keystrokes = 24;
  cell.warmup = 4;
  const InteractiveOutcome out = RunInteractiveCell(cell);
  EXPECT_EQ(out.completed, 1u);
  EXPECT_EQ(out.samples, 20u);
  // Two orders of magnitude under the 150 ms typing clock.
  EXPECT_LT(out.p99.nanos(), 5 * kMs);
  EXPECT_GT(out.p50.nanos(), 0);
}

// Paste-speed typing (no inter-key gap): byte 1 leaves alone, bytes 2..N
// pile up behind the client's Nagle rule until its ACK returns, then travel
// as one coalesced segment — so the echoes coalesce too and the burst
// clears at wire scale. TCP_NODELAY on the *client* does not rescue the
// burst: it moves the holds to the echo direction, where the server's
// Nagle rule collides with the client's delayed ACK and the tail collapses
// to the 200 ms timer. Shrinking the timer shrinks the tail in lockstep —
// the latency ≈ timer signature, now in the echo path.
TEST(InteractiveKeystroke, BurstTypingShiftsNagleHoldsToTheEchoUnderNodelay) {
  InteractiveCell cell;
  cell.keystrokes = 32;
  cell.warmup = 0;
  cell.keystroke_interval = SimDuration();
  const InteractiveOutcome nagle = RunInteractiveCell(cell);
  EXPECT_EQ(nagle.completed, 1u);
  EXPECT_EQ(nagle.samples, 32u);
  EXPECT_GE(nagle.nagle_holds, 31u);  // every byte behind the first is held
  EXPECT_LT(nagle.p99.nanos(), 10 * kMs);

  InteractiveCell nodelay = cell;
  nodelay.knob = InteractiveKnob::kNodelay;
  const InteractiveOutcome echo_held = RunInteractiveCell(nodelay);
  EXPECT_EQ(echo_held.completed, 1u);
  EXPECT_EQ(echo_held.samples, 32u);
  // Far fewer holds (echo side only), but each one now waits on the
  // client's delayed-ACK timer instead of a wire-scale ACK.
  EXPECT_LT(echo_held.nagle_holds, nagle.nagle_holds);
  EXPECT_GE(echo_held.p99.nanos(), 150 * kMs);
  EXPECT_LE(echo_held.p99.nanos(), 260 * kMs);

  InteractiveCell short_timer = nodelay;
  short_timer.delack_timeout = SimDuration::FromMillis(20);
  const InteractiveOutcome tracked = RunInteractiveCell(short_timer);
  EXPECT_EQ(tracked.completed, 1u);
  EXPECT_GE(tracked.p99.nanos(), 10 * kMs);
  EXPECT_LE(tracked.p99.nanos(), 40 * kMs);
}

// Keystroke cells obey the same determinism contract as every other cell:
// byte-identical rows across repeats.
TEST(InteractiveKeystroke, CellsAreByteIdenticalAcrossRepeats) {
  InteractiveCell cell;
  cell.keystrokes = 16;
  cell.warmup = 2;
  cell.flows = 2;
  cell.clients = 2;
  const std::vector<std::string> first = InteractiveRow(cell, RunInteractiveCell(cell));
  EXPECT_EQ(first, InteractiveRow(cell, RunInteractiveCell(cell)));
}

}  // namespace
}  // namespace tcplat
