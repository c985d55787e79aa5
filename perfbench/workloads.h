// The benchmark's three workloads, built only from the simulator's public
// constructors and drivers (Testbed + RunRpcBenchmark, StarTestbed +
// RunWorkload). One WorkloadRun is one repetition of a workload's fixed
// simulated work: Setup() builds every testbed, Execute() runs them to
// completion, Finish() checks the outputs and reduces them to exact counts
// and a digest.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/simulator.h"
#include "src/trace/tracer.h"

namespace perfbench {

// Exact work counts read from the layers' public stats and MetricsRegistrys
// after a run. Summed over every host (and the switch) of every testbed.
struct LayerCounts {
  uint64_t sim_events = 0;
  uint64_t cells_sent = 0;      // adapter transmits: one SerializeCell each
  uint64_t cells_parsed = 0;    // adapter receives that reached ParseCell
  uint64_t rx_fifo_drops = 0;
  uint64_t frames_sent = 0;     // Ethernet: one CRC-32 each
  uint64_t frames_checked = 0;  // Ethernet: FCS verified on receive
  uint64_t switch_cells = 0;
  uint64_t switch_drops = 0;
  uint64_t sar_frames_ok = 0;
  uint64_t sar_frames_dropped = 0;
  uint64_t mbuf_small_allocs = 0;
  uint64_t mbuf_cluster_allocs = 0;
  uint64_t mbuf_cluster_refs = 0;   // m_copym of a cluster: a header, no page
  uint64_t mbuf_freelist_hits = 0;
  uint64_t mbuf_bytes_copied = 0;
  uint64_t tcp_segs_sent = 0;
  uint64_t tcp_segs_received = 0;
  uint64_t tcp_fastpath_hits = 0;
  uint64_t tcp_bytes_sent = 0;
  uint64_t tcp_retransmits = 0;
  uint64_t pcb_lookups = 0;
  uint64_t pcb_examined = 0;
  uint64_t ip_packets_sent = 0;
  uint64_t app_payload_bytes = 0;  // payload the workload asked TCP to carry once

  // Derived units of work (see perfbench/README.md for the definitions).
  uint64_t crc10_calls() const { return cells_sent + cells_parsed; }
  uint64_t crc32_calls() const { return frames_sent + frames_checked; }
  // TCP payload + 20-byte header + 12-byte pseudo-header, summed at the
  // sender and again at the receiver, plus both ends' 20-byte IP headers.
  uint64_t cksum_bytes() const {
    return 2 * (tcp_bytes_sent + 32 * tcp_segs_sent) + 40 * ip_packets_sent;
  }
  uint64_t link_units() const { return cells_sent + switch_cells + frames_sent; }
  // Every mbuf header taken from the pool (MbufStats::mbuf_freelist_hits
  // counts the ones served from its freelist).
  uint64_t mbuf_allocs() const {
    return mbuf_small_allocs + mbuf_cluster_allocs + mbuf_cluster_refs;
  }
};

// What one repetition produced. `ops` is RPC round trips or bulk flows.
struct Outcome {
  uint64_t ops_attempted = 0;
  uint64_t ops_failed = 0;
  std::vector<std::string> problems;  // empty when every check passed
  uint64_t digest = 0;                // FNV-1a over every simulated output
  LayerCounts counts;
  // paper_sweep only: simulated mean RTT per Table 1 cell, in table order
  // (Ethernet sizes, then ATM sizes), in microseconds.
  std::vector<double> table1_rtt_us;
  size_t vc_buffer_cells = 0;  // the switch's per-VC buffer (0 = unbuffered)
};

// Observation seam: called once per unit (cell or frame) put on a wire,
// with the simulator that carries it. Returns nothing and changes nothing.
using UnitObserver =
    std::function<void(tcplat::Simulator* sim, const std::vector<uint8_t>& unit)>;

// Benchmark-side span log (the traced run records one span per workload
// cell). Null when spans are off.
class SpanLog;

class WorkloadRun {
 public:
  virtual ~WorkloadRun() = default;
  virtual void Setup() = 0;
  virtual void Execute(SpanLog* spans) = 0;
  virtual Outcome Finish() = 0;
  // Both must be called after Setup() and before Execute().
  virtual void AttachTracer(tcplat::Tracer* tracer) = 0;
  virtual void AttachObserver(UnitObserver observer) = 0;
};

// Null for an unknown name.
std::unique_ptr<WorkloadRun> MakeRun(const std::string& workload, uint64_t seed);
// The workload's parameters as a one-line JSON object.
std::string WorkloadParams(const std::string& workload, uint64_t seed);

// The paper's Table 1 values in Outcome::table1_rtt_us order.
std::vector<double> PaperTable1Us();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
