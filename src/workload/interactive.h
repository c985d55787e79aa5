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
// Every cell runs on ATM, writes each request as two 100-byte chunks,
// answers it with 200 bytes and pauses 500 us between round trips; the
// cell varies the population, the knob and the delayed-ACK timer.

#ifndef SRC_WORKLOAD_INTERACTIVE_H_
#define SRC_WORKLOAD_INTERACTIVE_H_

#include <string>
#include <vector>

#include "src/workload/flow_driver.h"
#include "src/workload/star_testbed.h"

namespace tcplat {

// Which knob the cell turns. kPathological leaves both defaults on (Nagle +
// delayed ACK), the other two each remove one leg of the interaction.
enum class InteractiveKnob { kPathological, kNodelay, kDelackOff };

const char* InteractiveKnobName(InteractiveKnob knob);

// The request shape, one write per chunk: the canonical two-chunk small
// write that arms the pathology. The server answers each request with
// kInteractiveResponseBytes.
inline constexpr size_t kInteractiveChunkBytes = 100;
inline constexpr size_t kInteractiveResponseBytes = 200;
inline constexpr SimDuration kInteractiveThinkTime = SimDuration::FromMicros(500);

struct InteractiveCell {
  int clients = 1;
  int servers = 1;
  int flows = 1;
  int iterations = 24;
  int warmup = 4;
  InteractiveKnob knob = InteractiveKnob::kPathological;
  // Mixed-population cells (bench/tail_blame): the first clean_flows flows
  // run well-behaved — one write per request and TCP_NODELAY — so they own
  // the p50 while the remaining (knob-shaped) flows own the p99, and the
  // p99-p50 gap *is* the pathology.
  int clean_flows = 0;
  // Delayed-ACK timer for every stack; zero keeps the config default
  // (200 ms, the 4.3BSD fast-timeout bound).
  SimDuration delack_timeout;
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
  uint64_t sim_events = 0;
};

// Flow specs for the cell, exported so bench/tail_blame can mix
// pathological and clean flows inside one testbed.
std::vector<FlowSpec> BuildInteractiveFlows(const InteractiveCell& cell, int clients,
                                            int servers);

// Builds a fresh star testbed, applies the cell's knobs (per-flow socket
// options, delack timer), runs every flow to completion and reduces the
// stats. The tracer overload attaches `tracer` to every host and the
// switch first.
InteractiveOutcome RunInteractiveCell(const InteractiveCell& cell);
InteractiveOutcome RunInteractiveCell(const InteractiveCell& cell, Tracer* tracer);

// Table formatting (simulated quantities only — byte-identical across job
// counts, like CapacityHeader/CapacityRow).
std::vector<std::string> InteractiveHeader();
std::vector<std::string> InteractiveRow(const InteractiveCell& cell,
                                        const InteractiveOutcome& out);

}  // namespace tcplat

#endif  // SRC_WORKLOAD_INTERACTIVE_H_
