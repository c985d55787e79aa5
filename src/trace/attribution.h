// Critical-path latency attribution over causal packet graphs.
//
// The paper decomposes one round trip into per-layer microseconds (Tables
// 2/3) with aggregate probes. This module derives the same decomposition
// from a recorded trace — per round trip, per flow, per percentile:
//
//  * AttributeRtts() finds every request/response round trip a flow's
//    client performed (write-syscall entry to the read that returned the
//    last byte) and splits it into twelve telescoping stages along the
//    critical path: the journey of the last request segment client→server,
//    the server's turnaround, and the journey of the last response segment
//    back. Stages are consecutive gaps between chain anchors, so they sum
//    to the measured RTT *exactly* — any time the chain cannot anchor is
//    reported as kUnattributed, never silently dropped.
//  * BuildBlame() picks the p_lo and p_hi round trips (same nearest-rank
//    rule as LatencyStats::Percentile) and reports the stage-by-stage
//    difference: which layer the p99−p50 gap lives in.

#ifndef SRC_TRACE_ATTRIBUTION_H_
#define SRC_TRACE_ATTRIBUTION_H_

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "src/trace/causal_graph.h"
#include "src/trace/span.h"
#include "src/trace/tracer.h"

namespace tcplat {

// Stages of one round trip, in causal order. "cli"/"srv" = the host acting
// as client/server for the flow; "net" = cells in flight plus switch
// queueing plus adapter segmentation/reassembly.
enum class BlameStage : int {
  kCliSend = 0,    // write() entry -> data ready in tcp_output (or seg tx)
  kCliAckWait,     // Nagle/SWS hold -> the held segment finally leaves
                   // (waiting on the peer's ACK or the delack timer)
  kCliTxDrive,     // ip_output + driver segmentation + FIFO stalls (request)
  kNetRequest,     // wire + switch + reassembly, client -> server
  kSrvIpqWait,     // reassembled PDU -> softint dequeue (ipintrq)
  kSrvTcpInput,    // ip_input + tcp_input up to the socket wakeup
  kSrvWakeupRead,  // wakeup -> server write() entry (scheduling + read)
  kSrvSend,        // server write() entry -> response ready in tcp_output
  kSrvAckWait,     // server-side Nagle/SWS hold -> response segment leaves
  kSrvTxDrive,
  kNetResponse,
  kCliIpqWait,
  kCliTcpInput,
  kCliWakeupRead,  // wakeup -> client read() returns the last byte
  kUnattributed,   // window time no causal chain could be anchored to
  kCount,
};
inline constexpr size_t kBlameStageCount = static_cast<size_t>(BlameStage::kCount);

std::string_view BlameStageName(BlameStage stage);

// One attributed round trip.
struct RttWindow {
  uint64_t flow = 0;  // canonical (port-order-independent) flow id
  int client_host = -1;
  int server_host = -1;
  int64_t start_ns = 0;  // client write-syscall entry (kTxUser span begin)
  int64_t end_ns = 0;    // client kUserRead that completed the message
  std::array<int64_t, kBlameStageCount> stage_ns{};
  // Event annotations for the blame report (counted within the window).
  int retransmits = 0;
  int delayed_acks = 0;
  int64_t tx_stall_ns = 0;  // FIFO stalls on the two critical journeys

  int64_t rtt_ns() const { return end_ns - start_ns; }
};

struct AttributionOptions {
  uint64_t message_bytes = 0;  // request/response payload per round trip
  int warmup_windows = 0;      // initial windows to drop, per flow
};

struct AttributionResult {
  std::vector<RttWindow> windows;  // all flows, by (flow, window index)
};

// Reconstructs and decomposes every round trip in the trace. The client
// side of a flow is the end with the higher port number (ephemeral ports
// sit above the listen ports in this simulator).
AttributionResult AttributeRtts(const Tracer& tracer, const CausalGraph& graph,
                                const AttributionOptions& options);

// Stage-by-stage comparison of the p_lo and p_hi round trips (nearest-rank
// percentile selection over rtt_ns, ties broken by end_ns then flow —
// identical to LatencyStats::Percentile on the same samples).
struct BlameReport {
  double p_lo = 0;
  double p_hi = 0;
  int64_t lo_rtt_ns = 0;
  int64_t hi_rtt_ns = 0;
  std::array<int64_t, kBlameStageCount> lo_stage_ns{};
  std::array<int64_t, kBlameStageCount> hi_stage_ns{};
  int lo_retransmits = 0, hi_retransmits = 0;
  int lo_delayed_acks = 0, hi_delayed_acks = 0;
  int64_t lo_tx_stall_ns = 0, hi_tx_stall_ns = 0;
  // Share of the gap the named stages explain:
  // 100 * (1 - |Δ kUnattributed| / (hi_rtt - lo_rtt)); 100 when gap == 0.
  double explained_pct = 100.0;

  int64_t gap_ns() const { return hi_rtt_ns - lo_rtt_ns; }
};
BlameReport BuildBlame(const std::vector<RttWindow>& windows, double p_lo, double p_hi);

}  // namespace tcplat

#endif  // SRC_TRACE_ATTRIBUTION_H_
