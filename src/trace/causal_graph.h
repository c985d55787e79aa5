// Causal packet graphs: reconstructing each datagram's cross-host lifecycle
// from a Tracer event stream.
//
// The Tracer records flat per-host event sequences. This module links them
// back into per-packet causal chains — user write → TCP segment → IP
// datagram → AAL3/4 PDU (or Ethernet frame) → reassembly → ipintrq wait →
// tcp_input → socket wakeup → user read — producing one Journey per IP
// datagram with both its transmit-side and receive-side timestamps.
//
// Two linking mechanisms, both exact for this simulator:
//
//  * Within a host, the simulated kernel is single-CPU and runs every
//    synchronous call chain to completion, so the events of one chain are
//    adjacent in trace order. A per-host state machine therefore links
//    kSegTx → kPktTx → kPduTx on the way down and kPduRx → kEnqueue,
//    kDequeue → kPktRx → kSegRx → kWakeup on the way up without ambiguity.
//  * Across hosts, kPktTx and kPktRx share the key
//    (flow = (src<<32)|dst, packet = IP header id); per-key FIFO matching
//    marries each transmit chain to its receive chain (IP never reorders
//    within a key in-simulator; impairment-reordered packets still match
//    because ids within one (src,dst) pair are unique).

#ifndef SRC_TRACE_CAUSAL_GRAPH_H_
#define SRC_TRACE_CAUSAL_GRAPH_H_

#include <cstdint>
#include <vector>

#include "src/trace/tracer.h"

namespace tcplat {

// One IP datagram's reconstructed life. Timestamps are -1 where the
// corresponding stage was never observed (drops, RST-only packets, non-TCP
// payloads, runs that ended mid-flight).
struct Journey {
  int tx_host = -1;
  int rx_host = -1;
  uint64_t ip_key = 0;  // (src<<32)|dst of the datagram; 0 if unknown
  uint64_t ip_id = 0;

  // Transmit side.
  int64_t seg_tx_ns = -1;   // TCP handed the segment to IP (kSegTx)
  uint64_t seg_flow = 0;    // sender's (local<<16)|remote port pair
  uint64_t seg_seq = 0;     // sender-relative sequence number
  uint64_t seg_bytes = 0;   // TCP payload bytes (0 for bare ACKs)
  bool retransmit = false;  // a kRetransmit preceded this kSegTx
  int64_t pkt_tx_ns = -1;   // ip_output handed it to the driver (kPktTx)
  int64_t link_tx_ns = -1;  // driver finished segmentation (kPduTx/kFrameTx)
  int64_t tx_stall_ns = 0;  // summed adapter FIFO stalls inside the tx chain

  // Receive side.
  int64_t link_rx_ns = -1;  // reassembly completed (kPduRx/kFrameRx)
  int64_t enqueue_ns = -1;  // driver appended to the ipintrq (kEnqueue)
  int64_t dequeue_ns = -1;  // softint picked it up (kDequeue)
  int64_t ipq_wait_ns = 0;  // the kDequeue-reported queue wait
  int64_t pkt_rx_ns = -1;   // ip_input delivered it (kPktRx)
  int64_t seg_rx_ns = -1;   // tcp_input saw the segment (kSegRx)
  uint64_t rx_seg_flow = 0; // receiver's (local<<16)|remote port pair
  int64_t wakeup_ns = -1;   // first socket wakeup in the same input chain

  bool delivered() const { return seg_rx_ns >= 0; }
  bool data() const { return seg_bytes > 0; }
};

// Port-order-independent id shared by both ends of a TCP connection:
// (min<<16)|max of the two ports.
inline uint64_t CanonicalFlow(uint64_t raw_flow) {
  const uint64_t a = (raw_flow >> 16) & 0xFFFF;
  const uint64_t b = raw_flow & 0xFFFF;
  return a < b ? (a << 16) | b : (b << 16) | a;
}

class CausalGraph {
 public:
  // Single pass over tracer.events().
  static CausalGraph Build(const Tracer& tracer);

  // All journeys, in order of creation (first transmit-side event).
  const std::vector<Journey>& journeys() const { return journeys_; }

  // Journeys whose sender-side connection matches `canonical_flow`, in
  // kSegTx order (their natural order).
  std::vector<const Journey*> FlowJourneys(uint64_t canonical_flow) const;

  // Journeys with both a transmit and a receive side observed.
  size_t linked_count() const;

 private:
  std::vector<Journey> journeys_;
};

}  // namespace tcplat

#endif  // SRC_TRACE_CAUSAL_GRAPH_H_
