// A small output-buffered ATM cell switch.
//
// The paper's testbed was deliberately switchless ("a switchless private
// ATM network"), but §4.2.1's first candidate error source is "errors
// introduced by switches in transferring data between their input and
// output ports" — dismissed because "AAL payload checksums are end-to-end,
// i.e., intermediate switches do not recompute the checksum". This model
// makes that argument checkable: insert the switch between the hosts
// (TestbedConfig::switched), inject corruption at a port, and watch the
// end-to-end CRC-10 catch it without any help from TCP.
//
// The switch is hardware: it consumes no host CPU. Each cell is looked up
// by VCI, delayed by a fixed switching latency, and serialized onto the
// output port's own fiber (contention between inputs for one output is
// resolved by the output wire's queue — output buffering).
//
// A buffered cell holds its VC's occupancy slot until its last bit leaves
// the output fiber. Those releases are not events: each output port queues
// them under the (time, seq) key a release event would have had, and the
// switch applies every release whose key the clock has passed before it
// reads occupancy, in key order across ports. One flush event at the latest
// pending release time applies whatever is left, so a run ends when, and
// with the gauges and samples, the release events would have left it.

#ifndef SRC_ATM_ATM_SWITCH_H_
#define SRC_ATM_ATM_SWITCH_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/atm/tca100.h"
#include "src/link/wire.h"
#include "src/sim/simulator.h"
#include "src/trace/metrics.h"
#include "src/trace/tracer.h"

namespace tcplat {

struct AtmSwitchStats {
  uint64_t cells_switched = 0;
  uint64_t no_route = 0;
  uint64_t cells_dropped_tail = 0;  // buffer overflow, cell-level discard
  uint64_t cells_dropped_epd = 0;   // Early Packet Discard (whole frames)
  uint64_t cells_dropped_ppd = 0;   // Partial Packet Discard (frame tails)
  uint64_t frames_discarded = 0;    // AAL frames EPD/PPD gave up on
};

// What happens when a per-VC output buffer fills (§ the congestion era).
// Tail drop discards individual cells, blind to AAL frame boundaries — one
// lost cell poisons the whole CPCS-PDU at the reassembler yet the rest of
// the frame still occupies bottleneck bandwidth. PPD (Partial Packet
// Discard) drops the remainder of a frame once one of its cells is lost,
// sparing only the EOM delimiter. EPD (Early Packet Discard) refuses the
// *whole* frame at its BOM when occupancy crosses a threshold, so the
// buffer carries only frames it can likely complete.
enum class DropPolicy : uint8_t {
  kTailDrop = 0,
  kEpd,
  kPpd,
};

const char* DropPolicyName(DropPolicy p);

struct VcBufferConfig {
  // Per-VC output buffer capacity in cells; 0 disables buffering entirely
  // (the seed's infinite-buffer behavior).
  size_t buffer_cells = 0;
  DropPolicy policy = DropPolicy::kTailDrop;
};

// One max-size AAL frame, in cells: a 1500-byte MTU segments into ~35. EPD
// admits the whole of a frame whose BOM finds occupancy below the
// threshold, so occupancy can rise this far above it.
inline constexpr size_t kFrameHeadroomCells = 36;

// The EPD acceptance threshold, in cells, of a `buffer_cells` VC buffer:
// kFrameHeadroomCells below capacity, floored at half the buffer so tiny
// buffers still admit something. A threshold much lower than this just
// shrinks the effective buffer and trades frame integrity for extra
// timeout stalls.
size_t EpdThreshold(size_t buffer_cells);

class AtmSwitch : private CellSink {
 public:
  // `per_cell_latency` models the input-to-output transfer (a few cell
  // times in first-generation switches).
  AtmSwitch(Simulator* sim, double bits_per_second, SimDuration propagation,
            SimDuration per_cell_latency);

  // Creates output port `port` feeding `sink` over the port's own fiber.
  // `bits_per_second` overrides the switch-wide line rate for this port
  // (a slower trunk toward a congested destination); 0 keeps the default.
  void AttachOutput(int port, CellSink* sink, double bits_per_second = 0);

  // The sink to hand to the upstream transmitter for a given input port.
  // Every input fiber delivers to the switch itself: routing reads only the
  // VCI, so the port a cell came in on does not matter.
  CellSink* input(int /*port*/) { return this; }

  // Static VC routing: cells with `vci` leave through `out_port`.
  void AddRoute(uint16_t vci, int out_port);

  // §4.2.1 source (1): corruption in the input->output transfer of one
  // port's hardware. Applied after the cell is received (the input fiber
  // was fine) and before it is re-serialized (the output fiber will carry
  // the damaged cell faithfully). The hook sees a 53-byte vector copy of
  // the cell and must leave it 53 bytes long (CHECKed).
  void set_fabric_corrupt_hook(CorruptFn hook) { fabric_corrupt_ = std::move(hook); }

  // Attaches an impairment policy to every output fiber (present and
  // future): cells leaving the switch are subject to seeded loss /
  // duplication / delay. Pass nullptr to detach.
  void set_output_impairment(LinkImpairment* impairment);

  // Enables finite per-VC output buffering with the given drop policy.
  // Applies to cells switched after the call; typically configured before
  // traffic starts.
  void ConfigureVcBuffers(const VcBufferConfig& config) { vc_config_ = config; }
  const VcBufferConfig& vc_buffer_config() const { return vc_config_; }

  // Per-VC buffer accounting (live while the simulation runs).
  struct VcState {
    int64_t occupancy = 0;  // cells buffered or serializing on the output
    int64_t hiwat = 0;      // high-watermark of occupancy
    bool dropping_frame = false;
    bool early_discard = false;  // current discard began at the frame's BOM
    uint64_t cells_forwarded = 0;
    uint64_t cells_dropped = 0;
    uint64_t frames_discarded = 0;
  };
  // Null when no cell for `vci` has been buffered yet. Shows every release
  // due by the clock (after RunUntil(t), every one due by t).
  const VcState* vc_state(uint16_t vci) {
    ApplyDueReleases();
    return vci < vcs_.size() ? vcs_[vci].state.get() : nullptr;
  }

  const AtmSwitchStats& stats() const { return stats_; }

  // Occupancy/high-watermark gauges and drop counters, one entry per VC
  // ("switch.vc<N>.occupancy", ".hiwat") plus policy-level drop totals. The
  // gauges show every release due by the clock when this is called.
  MetricsRegistry& metrics() {
    ApplyDueReleases();
    return metrics_;
  }

  // The switch has no Host, so it joins a trace as its own participant
  // (`trace_id` from Tracer::RegisterHost). Pass nullptr to detach.
  void AttachTracer(Tracer* tracer, uint8_t trace_id) {
    tracer_ = tracer;
    trace_id_ = trace_id;
  }

 private:
  // A buffered cell's VC-buffer slot, freed at the cell's last-bit time. The
  // key is the one a release event scheduled in its place would have had.
  struct PendingRelease {
    SimTime time;
    uint64_t seq = 0;
    uint16_t vci = 0;
  };
  struct OutputPort {
    std::unique_ptr<Wire> wire;
    CellSink* sink = nullptr;  // null while the port is unattached
    // Pending from index `next_release` on, in key order: the wire's
    // last-bit times never decrease and sequence numbers only grow.
    std::vector<PendingRelease> releases;
    size_t next_release = 0;
  };
  // One entry per VCI up to the highest routed one.
  struct Vc {
    int port = -1;  // output port; -1 when unrouted
    // Created at the VC's first buffered cell. Heap-held so its address
    // stays put for the metrics registry's views.
    std::unique_ptr<VcState> state;
  };

  // Switches one cell from any input fiber.
  using CellSink::DeliverCell;
  void DeliverCell(SimTime arrival, const CellBytes& cell) override;
  // Applies the per-VC buffer policy; false means the cell was discarded.
  bool AdmitCell(uint16_t vci, SimTime arrival, const CellBytes& cell);
  VcState& EnsureVc(uint16_t vci);
  // Queues the VC-buffer release of a cell leaving `port` at `done`, and
  // arms the flush event if none is pending.
  void QueueRelease(int port, uint16_t vci, SimTime done);
  // Applies, in key order across ports, every pending release whose key
  // the clock has passed.
  void ApplyDueReleases();
  // Schedules the flush event at the latest pending release time.
  void ArmReleaseFlush();

  // Timeseries pushes, keyed by VCI (the switch has no Host, so it feeds
  // the sampler through its own tracer attachment).
  void Sample(TsMetric metric, uint16_t vci, SimTime ts, int64_t value) {
    if (tracer_ != nullptr) {
      tracer_->RecordSample(trace_id_, metric, vci, ts, value);
    }
  }
  void SampleEdge(TsMetric metric, uint16_t vci, SimTime ts, int64_t value) {
    if (tracer_ != nullptr) {
      tracer_->RecordSampleEdge(trace_id_, metric, vci, ts, value);
    }
  }

  Simulator* sim_;
  double bits_per_second_;
  SimDuration propagation_;
  SimDuration per_cell_latency_;
  std::vector<OutputPort> outputs_;  // indexed by port number
  std::vector<Vc> vcs_;              // indexed by VCI
  std::vector<int> ports_with_releases_;
  bool release_flush_armed_ = false;
  CorruptFn fabric_corrupt_;
  LinkImpairment* output_impairment_ = nullptr;
  AtmSwitchStats stats_;
  VcBufferConfig vc_config_;
  MetricsRegistry metrics_;
  Tracer* tracer_ = nullptr;
  uint8_t trace_id_ = 0;
};

}  // namespace tcplat

#endif  // SRC_ATM_ATM_SWITCH_H_
