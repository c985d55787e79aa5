// Streaming causal-graph + RTT attribution.
//
// CausalGraph::Build + AttributeRtts hold the whole trace and every Journey
// in memory — O(trace) — which is fine for an 8-flow cell and fatal for the
// roadmap's 10^5-flow fabrics. This module fuses the two passes into one
// incremental consumer: feed it the merged trace stream one event at a time
// (e.g. straight from a BinaryTraceReader) and it
//
//  * runs the same per-host chain state machines as CausalGraph::Build,
//    allocating Journey slots from a recycling arena,
//  * closes an RttWindow the moment the client read crossing a message
//    boundary is seen, decomposing it with the shared DecomposeWindow()
//    (bit-identical stage math to the batch path), and
//  * retires Journey slots as soon as nothing can reference them again —
//    the slot is freed when it is off every host's open-chain pointer, out
//    of the in-flight datagram map, and pruned from its flow's candidate
//    window (everything at or before the last closed window's end).
//    Datagrams lost in flight never see their kPktRx, so each window close
//    also retires the flow's in-flight entries transmitted at or before the
//    flow's previous close — a one-way traversal cannot outlast a full
//    round-trip window — keeping lossy runs at O(in-flight), not O(drops).
//
// Live memory is O(in-flight packets + open windows), not O(trace);
// peak_live_journeys() reports the high-water mark (the
// `streaming_graph_peak_nodes` gate metric).
//
// Equivalence to the batch path (pinned by attribution_test and
// bench/observability_selfcheck): on a clean closed-loop cell the two
// produce identical window sets. The one semantic difference: the batch
// path can anchor a window to a journey whose delivery the trace records
// only *after* the window's closing read; the streaming path — which must
// decide at close time — treats such a journey as undelivered. On
// loss-free echo cells the situation cannot arise (the response delivery
// is what unblocks the closing read).

#ifndef SRC_TRACE_STREAM_ATTRIBUTION_H_
#define SRC_TRACE_STREAM_ATTRIBUTION_H_

#include <cstdint>
#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "src/trace/attribution.h"
#include "src/trace/causal_graph.h"
#include "src/trace/tracer.h"

namespace tcplat {

class StreamingAttribution {
 public:
  explicit StreamingAttribution(const AttributionOptions& options);

  // Consumes the next event of the stream (global timestamp order, per-host
  // chains contiguous — what a Tracer produces).
  void OnEvent(const TraceEvent& ev);

  // Closed windows, in close order (sort by (flow, start_ns) to compare
  // against the batch path's (flow, index) order).
  const std::vector<RttWindow>& windows() const { return windows_; }

  size_t live_journeys() const { return live_; }
  size_t peak_live_journeys() const { return peak_live_; }

 private:
  struct HostState {
    size_t tx_open = kNone;
    bool retransmit_pending = false;
    int64_t pending_link_rx = -1;
    std::deque<std::pair<int64_t, int64_t>> ipq;  // (link_rx_ns, enqueue_ns)
    int64_t cur_link_rx = -1;
    int64_t cur_enqueue = -1;
    int64_t cur_dequeue = -1;
    int64_t cur_ipq_wait = 0;
    size_t rx_open = kNone;
    int64_t pending_begin = -1;  // first kTxUser span begin since last write
  };

  struct FlowState {
    int client_host = -1;
    int server_host = -1;
    uint64_t cum_client_write = 0;
    uint64_t cum_server_write = 0;
    uint64_t cum_client_read = 0;
    // Message-boundary write entries not yet consumed by a window close;
    // entry k corresponds to absolute window index base + k.
    std::deque<int64_t> starts;
    uint64_t starts_base = 0;
    std::deque<int64_t> srv_starts;
    uint64_t srv_starts_base = 0;
    uint64_t windows_closed = 0;
    // End of this flow's previously closed window; in-flight datagrams of
    // the flow transmitted at or before it are declared lost at the next
    // close (pkt_tx_ns is never negative, so -1 disables the first prune).
    int64_t prev_close_end_ns = -1;
    // Data-journey slots in seg_tx order, pruned at each close.
    std::deque<size_t> candidates;
    std::deque<int64_t> retransmit_ts;
    std::deque<int64_t> delack_ts;
    std::deque<int64_t> client_hold_ts;  // kNagleHold on the client sender
    std::deque<int64_t> server_hold_ts;  // kNagleHold on the server sender
  };

  static constexpr size_t kNone = static_cast<size_t>(-1);

  size_t AllocJourney();
  void AddRef(size_t idx) { ++refs_[idx]; }
  void Release(size_t idx);
  HostState& HostAt(size_t host);

  void OnClientRead(FlowState* flow, const TraceEvent& ev);
  void CloseWindow(uint64_t canonical_flow, FlowState* flow, int64_t end_ns);

  AttributionOptions options_;
  std::vector<RttWindow> windows_;

  std::vector<Journey> arena_;
  std::vector<uint32_t> refs_;
  std::vector<size_t> free_list_;
  size_t live_ = 0;
  size_t peak_live_ = 0;

  std::vector<HostState> hosts_;
  std::map<std::pair<uint64_t, uint64_t>, std::deque<size_t>> in_flight_;
  std::map<uint64_t, FlowState> flows_;
};

}  // namespace tcplat

#endif  // SRC_TRACE_STREAM_ATTRIBUTION_H_
