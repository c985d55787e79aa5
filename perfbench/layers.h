// Per-layer host cost, measured from outside the simulator.
//
// A traced run records the units (cells, frames) the workload put on its
// wires through an observe-only seam, together with the simulator's
// pending-event depth at each one. Those recorded units are then replayed
// through each layer's public functions, one layer at a time, to time a
// unit of that layer's work. Multiplying by the exact work counts the run
// reported gives each layer's estimated host time; its share of the
// untraced wall time is `<layer>.share`, and whatever is left over is
// `stack.share` (tcp, ip, sock, os, the cpu cost model and the workload
// driver, which have no entry point that runs without a host).

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "workloads.h"

namespace perfbench {

class SpanLog;

// What the observe-only seam saw during one run.
class UnitRecording {
 public:
  explicit UnitRecording(size_t cap) : cap_(cap) {}

  // The observer to hand to WorkloadRun::AttachObserver. It keeps the first
  // `cap` units and samples the pending-event depth at every unit.
  UnitObserver Observer();

  const std::vector<std::vector<uint8_t>>& units() const { return units_; }
  double mean_pending_depth() const {
    return observed_ == 0 ? 0.0 : depth_sum_ / static_cast<double>(observed_);
  }

 private:
  size_t cap_;
  std::vector<std::vector<uint8_t>> units_;
  uint64_t observed_ = 0;
  double depth_sum_ = 0;
};

// Host nanoseconds per unit of each layer's work. Every "self" cost has the
// parts another layer accounts for taken out (CRC time belongs to net,
// event-queue time to sim, output-fiber time to link), so the shares add up.
struct UnitCosts {
  double ns_per_event = 0;        // sim: schedule + pop + dispatch at the run's depth
  double ns_per_crc10 = 0;        // net
  double ns_per_crc32 = 0;        // net
  double ns_per_cksum_kb = 0;     // net: ones'-complement partial sum of 1024 bytes
  double ns_per_cell = 0;         // atm: SAR rx + tx of one cell, CRC included
  double sar_self_ns = 0;         // atm: ns_per_cell minus its two CRC-10s
  double ns_per_switch_cell = 0;  // atm: switch self time per cell
  double link_cell_ns = 0;        // link: Wire::Transmit self time per cell
  double link_frame_ns = 0;       // link: Wire::Transmit self time per Ethernet frame
  double ns_per_alloc = 0;        // buf: one mbuf allocation and its free
};

// Replays the recording through each layer. Each layer gets about
// `seconds_per_layer` of host time; spans (when non-null) get one span per
// layer replay. `switch_buffer_cells` mirrors the workload's VC buffers.
UnitCosts MeasureUnitCosts(const UnitRecording& recording, const LayerCounts& counts,
                           size_t switch_buffer_cells, double seconds_per_layer,
                           SpanLog* spans);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// The per-layer report: exact counts, unit costs and shares of `wall_ns`.
// Ratios are followed by their numerator and denominator.
std::vector<Metric> LayerReport(const LayerCounts& counts, const UnitCosts& costs,
                                     double wall_ns);

// Layer shares in LayerReport order (without stack.share), for ranking.
std::vector<std::pair<std::string, double>> LayerShares(const LayerCounts& counts,
                                                        const UnitCosts& costs, double wall_ns);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
