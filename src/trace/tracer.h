// Per-packet lifecycle tracing.
//
// The paper's methodology is aggregate: read a 40 ns clock at layer
// boundaries and accumulate per-layer totals (SpanTracker). A Tracer keeps
// the individual readings instead — every span entry/exit, every interval,
// and discrete packet-lifecycle events (segment tx/rx, retransmit, drop,
// ACK, queue hand-off, wakeup) — each stamped with the simulated time, the
// host it happened on, the stack layer, and a flow/packet id. The result
// answers "where did *this* packet's time go", not just "where did the
// microseconds go on average".
//
// Design constraints:
//  * Deterministic. Events carry only simulated time and protocol state, so
//    a fixed seed produces a byte-identical trace — including when the run
//    executes inside the src/exec/ parallel grid runner, because a Tracer is
//    owned by one Testbed and shares nothing global.
//  * Zero-cost when disabled. Hook sites go through Host::TracePacket,
//    which is a single pointer test when no tracer is attached.
//  * Exact. Span-end events carry the charge-attributed self time
//    accumulated by SpanTracker for that instance, so per-layer sums over a
//    trace reproduce the tracker's totals to the nanosecond.
//
// The in-memory event log (events()) is the only recorded form, and every
// event reaches it. Everything else is a file format written from the log:
// Chrome/Perfetto trace_event JSON (load at ui.perfetto.dev or
// chrome://tracing) and a flat CSV with one row per event.

#ifndef SRC_TRACE_TRACER_H_
#define SRC_TRACE_TRACER_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/sim/time.h"
#include "src/trace/span.h"
#include "src/trace/timeseries.h"

namespace tcplat {

// Which layer of the simulated stack emitted an event.
enum class TraceLayer : uint8_t {
  kSock,   // socket layer (sosend/soreceive, wakeups)
  kTcp,    // TCP input/output
  kIp,     // ip_input/ip_output and the ipintrq
  kAtm,    // AAL3/4 + TCA-100 adapter + cell switch
  kEther,  // Ethernet driver
  kLink,   // physical links (impairment policies: loss/dup/reorder/jitter)
  kSched,  // span bookkeeping (begin/end/interval/reset markers)
  kCount,  // sentinel — keep last
};

enum class TraceEventKind : uint8_t {
  // Span events, emitted by SpanTracker (layer kSched).
  kSpanBegin,     // span = id
  kSpanEnd,       // span = id, self_ns = charge-attributed self time
  kSpanInterval,  // span = id, dur_ns = wall interval (ts is interval end)
  kSpanReset,     // tracker totals zeroed (measurement region boundary)
  // Socket layer.
  kUserWrite,  // write() accepted `bytes` from the user
  kUserRead,   // read() returned `bytes` to the user
  kWakeup,     // sowakeup: a blocked process was made runnable
  // TCP.
  kSegTx,          // segment emitted; packet = seq, bytes = payload length
  kSegRx,          // segment arrived at tcp_input
  kRetransmit,      // segment tx was a retransmission
  kAck,             // ACK advanced snd_una; bytes = newly acked
  kDelayedAck,      // delayed-ACK timer fired and forced an ACK out
  kListenOverflow,  // SYN dropped: listen backlog full; packet = backlog limit
  kChecksumError,   // inbound segment failed checksum verification
  kDrop,            // packet/segment/frame discarded (any layer)
  // IP.
  kEnqueue,  // driver appended a packet to the ipintrq; packet = queue depth
  kDequeue,  // ipintr picked it up; dur_ns = queue wait
  kPktTx,    // ip_output handed a datagram to a driver; flow = (src<<32)|dst,
             // packet = header id (matches the destination's kPktRx)
  kPktRx,    // ip_input delivered a datagram to a protocol; same keying
  // ATM (AAL3/4 + TCA-100 + switch).
  kPduTx,       // AAL3/4 PDU segmented and handed to the adapter; packet = cells
  kPduRx,       // EOM interrupt reassembled a PDU; packet = cells
  kCellDrop,    // receive FIFO overflow dropped a cell
  kTxStall,     // transmit FIFO full: cell DMA stalled; dur_ns = stall time
  kCellSwitch,  // switch forwarded a cell; flow = VCI
  // Ethernet.
  kFrameTx,
  kFrameRx,
  // Link impairment (layer kLink; packet = unit ordinal on that link).
  kImpairDrop,   // unit discarded in flight
  kImpairDup,    // a second copy will be delivered; dur_ns = duplicate lag
  kImpairDelay,  // arrival delayed (reorder hold or jitter); dur_ns = delay
  // TCP.
  kNagleHold,  // tcp_output left data unsent (Nagle / silly-window
               // avoidance); packet = relative seq, bytes = held length
  // Congestion-control era.
  kCwndChange,      // loss event / recovery transition; packet = new cwnd,
                    // bytes = ssthresh
  kFastRetransmit,  // Reno/NewReno/SACK fast retransmit decision;
                    // packet = relative seq being resent
  kSackBlock,       // SACK blocks arrived on an ACK; packet = first block
                    // start (relative), bytes = newly sacked bytes
  kCount,           // sentinel — keep last
};

std::string_view TraceLayerName(TraceLayer layer);
std::string_view TraceEventKindName(TraceEventKind kind);

struct TraceEvent {
  int64_t ts_ns = 0;    // simulated timestamp
  int64_t dur_ns = 0;   // kSpanInterval / kTxStall
  int64_t self_ns = 0;  // kSpanEnd: charge-attributed self time
  uint64_t flow = 0;    // flow id (TCP: local<<16|remote port; ATM: VCI)
  uint64_t packet = 0;  // packet id (TCP: seq; IP: header id; ATM: cells)
  uint64_t bytes = 0;
  // SpanId is an int: declared ahead of the one-byte fields so the struct
  // packs to 56 bytes instead of padding to 64.
  SpanId span = SpanId::kOther;  // span events only
  TraceEventKind kind = TraceEventKind::kSpanBegin;
  TraceLayer layer = TraceLayer::kSched;
  uint8_t host = 0;
};

class Tracer {
 public:
  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Registers a participant and returns its id (Perfetto pid). Hosts call
  // this once when the tracer is attached.
  uint8_t RegisterHost(std::string name);

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  void RecordSpanBegin(uint8_t host, SpanId id, SimTime ts) {
    if (!enabled_) return;
    TraceEvent ev;
    ev.ts_ns = ts.nanos();
    ev.kind = TraceEventKind::kSpanBegin;
    ev.span = id;
    ev.host = host;
    Commit(ev);
  }
  void RecordSpanEnd(uint8_t host, SpanId id, SimTime ts, SimDuration self) {
    if (!enabled_) return;
    TraceEvent ev;
    ev.ts_ns = ts.nanos();
    ev.self_ns = self.nanos();
    ev.kind = TraceEventKind::kSpanEnd;
    ev.span = id;
    ev.host = host;
    Commit(ev);
  }
  void RecordSpanInterval(uint8_t host, SpanId id, SimTime end, SimDuration dur) {
    if (!enabled_) return;
    TraceEvent ev;
    ev.ts_ns = end.nanos();
    ev.dur_ns = dur.nanos();
    ev.kind = TraceEventKind::kSpanInterval;
    ev.span = id;
    ev.host = host;
    Commit(ev);
  }
  void RecordSpanReset(uint8_t host, SimTime ts) {
    if (!enabled_) return;
    TraceEvent ev;
    ev.ts_ns = ts.nanos();
    ev.kind = TraceEventKind::kSpanReset;
    ev.host = host;
    Commit(ev);
  }
  void RecordPacket(uint8_t host, TraceLayer layer, TraceEventKind kind, SimTime ts,
                    uint64_t flow, uint64_t packet, uint64_t bytes,
                    SimDuration dur = SimDuration()) {
    if (!enabled_) return;
    TraceEvent ev;
    ev.ts_ns = ts.nanos();
    ev.dur_ns = dur.nanos();
    ev.flow = flow;
    ev.packet = packet;
    ev.bytes = bytes;
    ev.kind = kind;
    ev.layer = layer;
    ev.host = host;
    Commit(ev);
  }

  // ---- Time-series telemetry plane (src/trace/timeseries.h) -------------
  //
  // Orthogonal to event recording: producers push counter samples through
  // Host::TraceSample into a per-tracer sampler. Disabled-tracer cost is
  // the same single pointer test as TracePacket; attached-but-not-enabled
  // cost is one extra null test here.

  void EnableTimeseries(const TimeseriesConfig& config);
  TimeseriesSampler* timeseries() { return timeseries_.get(); }
  const TimeseriesSampler* timeseries() const { return timeseries_.get(); }

  void RecordSample(uint8_t host, TsMetric metric, uint64_t key, SimTime ts,
                    int64_t value) {
    if (!enabled_ || timeseries_ == nullptr) return;
    timeseries_->Push(host, metric, key, ts, value);
  }
  void RecordSampleEdge(uint8_t host, TsMetric metric, uint64_t key, SimTime ts,
                        int64_t value) {
    if (!enabled_ || timeseries_ == nullptr) return;
    timeseries_->PushEdge(host, metric, key, ts, value);
  }

  // The finalized timeline: points stable-sorted on (ts_ns, host), which is
  // byte-identical across TCPLAT_JOBS. Empty when the plane is off.
  std::vector<TimeseriesPoint> SortedTimeseriesPoints() const;
  // Long-format timeline CSV over the finalized points.
  std::string TimelineCsv() const;

  // The recorded event log, in commit order.
  const std::vector<TraceEvent>& events() const { return events_; }
  const std::vector<std::string>& host_names() const { return host_names_; }

  // Per-span self-time sums for `host`, in nanoseconds, counting only events
  // after that host's last kSpanReset marker: kSpanEnd contributes self_ns,
  // kSpanInterval contributes dur_ns. By construction these equal the
  // SpanTracker totals for the same measurement region exactly.
  std::array<int64_t, static_cast<size_t>(SpanId::kCount)> SpanSelfTotalsNanos(
      uint8_t host) const;

  // Chrome trace_event JSON: one process per host, with separate tracks for
  // nested spans (B/E), interval spans (X) and packet events (instants).
  std::string ToPerfettoJson() const;

  // Flat CSV, one row per event.
  std::string ToCsv() const;

 private:
  // Every Record* method funnels here.
  void Commit(const TraceEvent& ev) { events_.push_back(ev); }

  bool enabled_ = true;
  std::vector<TraceEvent> events_;
  std::vector<std::string> host_names_;

  std::unique_ptr<TimeseriesSampler> timeseries_;
};

// Writes `contents` to `path`; returns false (after perror) on failure.
bool WriteTextFile(const std::string& path, const std::string& contents);

}  // namespace tcplat

#endif  // SRC_TRACE_TRACER_H_
