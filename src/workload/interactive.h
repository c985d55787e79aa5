// Interactive-workload cells: the pathological Nagle × delayed-ACK
// scenarios from the paper's interactive-traffic discussion, packaged the
// same way as capacity.h so bench/ablation_delack, bench/tail_blame and the
// interactive tests all run byte-identical cells.
//
// The canonical pathology: a client writes each request as two small
// chunks. Chunk 1 leaves immediately (sender idle), chunk 2 is held by the
// Nagle rule behind it, and the server — which needs the whole request
// before it can reply — only releases the ACK that frees chunk 2 when its
// delayed-ACK timer fires. Round-trip latency collapses to the delack
// timer. Setting TCP_NODELAY on the client, or disabling the delayed-ACK
// timer on the server, makes the mode vanish; that appear/vanish pair is
// what the self-verifying blame tests pin.
//
// Two scripted variants ride along:
//  * Silly-window scenario: the server's announced window is artificially
//    clamped so chunk 2 is held *window-limited* (tcp.sws_holds) rather
//    than Nagle-limited; the control cell (clamp off) must count zero.
//  * Retransmit storm: Gilbert-Elliott burst loss on every switch output
//    under many small flows; the run must complete with a bounded
//    retransmit count (no ACK-clock collapse).

#ifndef SRC_WORKLOAD_INTERACTIVE_H_
#define SRC_WORKLOAD_INTERACTIVE_H_

#include <string>
#include <vector>

#include "src/fault/impairment.h"
#include "src/workload/flow_driver.h"
#include "src/workload/star_testbed.h"

namespace tcplat {

// Which knob the cell turns. kPathological leaves both defaults on (Nagle +
// delayed ACK), the other two each remove one leg of the interaction.
enum class InteractiveKnob { kPathological, kNodelay, kDelackOff };

const char* InteractiveKnobName(InteractiveKnob knob);

struct InteractiveCell {
  NetworkKind network = NetworkKind::kAtm;
  int clients = 1;
  int servers = 1;
  int flows = 1;
  // Request shape: one write per chunk. {100, 100} is the canonical
  // two-chunk small write that arms the pathology.
  std::vector<size_t> request_chunks = {100, 100};
  size_t response_size = 200;
  int iterations = 24;
  int warmup = 4;
  int pipeline_depth = 1;
  SimDuration think_time = SimDuration::FromMicros(500);
  InteractiveKnob knob = InteractiveKnob::kPathological;
  // Mixed-population cells (bench/tail_blame): the first clean_flows flows
  // run well-behaved — one write per request and TCP_NODELAY — so they own
  // the p50 while the remaining (knob-shaped) flows own the p99, and the
  // p99-p50 gap *is* the pathology.
  int clean_flows = 0;
  // Delayed-ACK timer for every stack; zero keeps the config default
  // (200 ms, the 4.3BSD fast-timeout bound).
  SimDuration delack_timeout;
  // Silly-window scenario: clamp the *server* stacks' announced receive
  // window to this many bytes (0 = off). With a clamp below the request
  // size, chunk 2's hold is window-limited and counts as tcp.sws_holds.
  size_t server_rcv_clamp = 0;
  // Retransmit-storm scenario: applied to every switch output port when
  // active() (burst loss via the Gilbert-Elliott knobs). Flows run with
  // tolerate_errors so a connection death is an aborted flow, not a crash.
  ImpairmentConfig impairment;
  // Streaming variant (jittertrap-style): each flow appends
  // request_chunks[0] bytes every stream_interval instead of running
  // request/response; latency is send-entry to sink-side delivery.
  bool streaming = false;
  SimDuration stream_interval;
  // Keystroke variant (telnet shape): each flow types this many 1-byte
  // writes on an open loop, one every keystroke_interval, against a
  // per-byte echo server; latency is keystroke entry to echo arrival.
  // Overrides the request/response and streaming shapes when > 0.
  int keystrokes = 0;
  SimDuration keystroke_interval = SimDuration::FromMillis(150);
  uint64_t seed = 1;
};

struct InteractiveOutcome {
  uint64_t samples = 0;
  SimDuration mean;
  SimDuration p50;
  SimDuration p99;
  uint64_t completed = 0;
  uint64_t aborted = 0;
  // Summed over every stack in the testbed after the run.
  uint64_t nagle_holds = 0;
  uint64_t sws_holds = 0;
  uint64_t delayed_acks_fired = 0;
  uint64_t retransmits = 0;
  uint64_t rexmt_timeouts = 0;
  uint64_t fast_retransmits = 0;
  // Drops the impairment policy injected (storm scenario; 0 otherwise).
  uint64_t drops_injected = 0;
  SimDuration sim_elapsed;
  uint64_t sim_events = 0;
};

// Flow specs for the cell, exported so bench/tail_blame can mix
// pathological and clean flows inside one testbed.
std::vector<FlowSpec> BuildInteractiveFlows(const InteractiveCell& cell, int clients,
                                            int servers);

// Builds a fresh star testbed, applies the cell's knobs (per-flow socket
// options, delack timer, window clamp, impairment), runs every flow to
// completion and reduces the stats. The tracer overload attaches `tracer`
// to every host and the switch first.
InteractiveOutcome RunInteractiveCell(const InteractiveCell& cell);
InteractiveOutcome RunInteractiveCell(const InteractiveCell& cell, Tracer* tracer);

// Table formatting (simulated quantities only — byte-identical across job
// counts, like CapacityHeader/CapacityRow).
std::vector<std::string> InteractiveHeader();
std::vector<std::string> InteractiveRow(const InteractiveCell& cell,
                                        const InteractiveOutcome& out);

}  // namespace tcplat

#endif  // SRC_WORKLOAD_INTERACTIVE_H_
