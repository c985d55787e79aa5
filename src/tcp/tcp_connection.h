// One TCP connection: the tcpcb, the input state machine (with the BSD 4.4
// header-prediction fast path), and tcp_output (with the three checksum
// strategies the paper studies).

#ifndef SRC_TCP_TCP_CONNECTION_H_
#define SRC_TCP_TCP_CONNECTION_H_

#include <cstdint>
#include <list>
#include <vector>

#include "src/buf/mbuf.h"
#include "src/net/wire.h"
#include "src/sock/socket.h"
#include "src/tcp/congestion.h"
#include "src/tcp/pcb.h"
#include "src/tcp/tcp_seq.h"

namespace tcplat {

class TcpStack;

enum class TcpState {
  kClosed,
  kListen,
  kSynSent,
  kSynReceived,
  kEstablished,
  kFinWait1,
  kFinWait2,
  kCloseWait,
  kClosing,
  kLastAck,
  kTimeWait,
};

const char* TcpStateName(TcpState s);

// How the TCP payload checksum is produced/verified on this stack (§4).
enum class ChecksumMode {
  kStandard,  // in_cksum over the assembled segment (baseline kernel)
  kCombined,  // per-mbuf partial sums computed during data copies (§4.1.1)
  kNone,      // negotiated off via the alternate-checksum option (§4.2)
};

struct TcpConfig {
  bool header_prediction = true;  // PCB cache + input fast path
  bool nodelay = false;           // TCP_NODELAY (disable Nagle)
  ChecksumMode checksum = ChecksumMode::kStandard;
  // The BSD 4.4 defaults (tcp_sendspace/tcp_recvspace = 8192). These are
  // load-bearing for reproducing the paper: an 8000-byte write leaves as a
  // 4096-byte segment (sosend passes one cluster per PRU_SEND) plus a
  // Nagle-held 3904-byte remainder that is released by the window-update
  // ACK the receiver emits when its first read drains half of an 8 KB
  // buffer — which is exactly why header prediction succeeds only for the
  // *second* packet of the 8000-byte case (§3).
  size_t sndbuf = 8192;
  size_t rcvbuf = 8192;
  // sosend switches from small mbufs to clusters above this write size
  // (§2.2.1; ablation A1 sweeps it).
  size_t cluster_threshold = kClusterThreshold;
  // Delayed ACKs (§2.3): when enabled, data arrival arms a timer instead of
  // acking immediately, and the fast path acks only every other full
  // segment. Disabling it acks every data segment immediately — one half of
  // the Nagle × delayed-ACK interactive pathology ablation.
  bool delack = true;
  SimDuration delack_timeout = SimDuration::FromMillis(200);
  // Loss-recovery era (overridable per socket). kLegacy reproduces the
  // seed's fast-retransmit-without-recovery behavior exactly.
  CongestionVariant congestion = CongestionVariant::kLegacy;
  // Clamp on the MSS this end derives/advertises (0 = off). The congestion
  // benchmarks use it to get Ethernet-era segments over the 9180-byte ATM
  // MTU so a window holds many segments.
  size_t mss_clamp = 0;
  SimDuration rexmt_min = SimDuration::FromMillis(300);
  SimDuration rexmt_max = SimDuration::FromSeconds(64);
  SimDuration msl = SimDuration::FromMillis(500);  // shortened 2MSL basis
  int max_rexmt = 12;
  // Keepalive (SO_KEEPALIVE): probe an idle connection and drop it when the
  // peer stops answering. Intervals are simulation-scaled (BSD used 2 h +
  // 75 s granularity; nothing in the model depends on the absolute values).
  bool keepalive = false;
  SimDuration keepalive_idle = SimDuration::FromSeconds(30);
  SimDuration keepalive_interval = SimDuration::FromSeconds(5);
  int keepalive_probes = 4;
};

class TcpConnection : public ProtocolOps {
 public:
  TcpConnection(TcpStack* stack, Socket* socket);
  ~TcpConnection() override;

  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  // --- opens ---
  void Listen(SockAddr local);
  void Connect(SockAddr local, SockAddr remote);
  // Initializes a passive connection from a SYN that hit a listener, and
  // responds with SYN|ACK.
  void AcceptSyn(SockAddr local, SockAddr remote, Socket* listener_socket, const TcpHeader& syn);

  // --- input: called by the stack after demux; `chain` is the full IP
  // packet, `th` the parsed TCP header, `iph` the parsed IP header. ---
  void Input(MbufPtr chain, const TcpHeader& th, const Ipv4Header& iph);

  // tcp_output: sends whatever the send rules allow.
  void Output();

  // ProtocolOps (socket layer entry points).
  void UsrSend() override { Output(); }
  void UsrRcvd() override { Output(); }
  void UsrClose() override;

  TcpState state() const { return state_; }
  Socket* socket() { return socket_; }
  Pcb& pcb() { return pcb_; }
  bool checksum_disabled() const { return no_checksum_; }
  size_t maxseg() const { return t_maxseg_; }
  TcpSeq snd_una() const { return snd_una_; }
  TcpSeq snd_nxt() const { return snd_nxt_; }
  TcpSeq rcv_nxt() const { return rcv_nxt_; }
  uint32_t cwnd() const { return cc_.cwnd(); }
  uint32_t ssthresh() const { return cc_.ssthresh(); }
  CongestionVariant congestion_variant() const { return cc_.variant(); }
  bool sack_enabled() const { return sack_enabled_; }

 private:
  // Flow id carried on this connection's trace events.
  uint64_t TraceFlow() const {
    return (static_cast<uint64_t>(pcb_.local.port) << 16) | pcb_.remote.port;
  }

  // Input helpers.
  bool VerifyChecksum(const Mbuf* chain, const TcpHeader& th, const Ipv4Header& iph);
  bool TryHeaderPrediction(MbufPtr& data, const TcpHeader& th, size_t data_len);
  void InputSynSent(const TcpHeader& th);
  void ProcessAck(const TcpHeader& th, size_t data_len);
  // The congestion variant this connection should run: socket option if set,
  // else the stack-wide config default.
  CongestionVariant ResolveVariant(const Socket* option_source) const;
  // Feeds received SACK blocks into the sender scoreboard (traces them).
  void IngestSackBlocks(const TcpHeader& th);
  // Receiver side: reports the reassembly queue as SACK blocks on an ACK.
  void AttachSackBlocks(TcpOptions* options) const;
  // BSD's "rewind" retransmission: temporarily point snd_nxt at `seq`, emit
  // one clamped segment, then restore. Used by fast retransmit and by
  // NewReno/SACK hole repair.
  void RewindRetransmit(TcpSeq seq);
  // Executes the side effects a CongestionControl action asks for.
  void ApplyLossAction(const CongestionControl::LossAction& action);
  void ApplyAckAction(const CongestionControl::AckAction& action);
  void TraceCwnd();
  // Timeline-only cwnd sample for growth paths (slow start / congestion
  // avoidance) that emit no kCwndChange packet event; keeps the exact-peak
  // tracking behind the loss-enter edge fresh between recovery episodes.
  void SampleCwnd();
  void ProcessData(MbufPtr data, TcpSeq seq, size_t len, bool fin);
  void AppendInOrder(MbufPtr data);
  bool DrainReassembly();  // returns true if a queued FIN was consumed
  void ProcessFin();
  void CompleteEstablishment();
  bool fin_needed_for_state() const;

  // Output helpers.
  struct SegmentPlan {
    size_t len = 0;
    TcpFlags flags;
    bool send = false;
    bool sendalot = false;
    // True when the peer's window (not the send buffer) limited `len` —
    // distinguishes silly-window holds from Nagle holds when !send.
    bool window_limited = false;
  };
  SegmentPlan PlanSegment();
  void EmitSegment(const SegmentPlan& plan);
  // Emits kNagleHold (and counts nagle_holds/sws_holds) when tcp_output
  // decided to leave ready data unsent.
  void TraceHeldData(const SegmentPlan& plan);
  // Effective delayed-ACK setting (socket override, else config).
  bool DelackEnabled() const;
  // Window this end advertises: receive-buffer space, clamped to the
  // 16-bit field.
  uint32_t AnnounceWindow() const;

  // Timers.
  void ArmRexmt();
  void CancelRexmt();
  void RexmtTimeout();
  void ArmDelack();
  void CancelDelack();
  void DelackTimeout();
  void ArmKeepalive(SimDuration delay);
  void CancelKeepalive();
  void KeepaliveTimeout();
  void SendKeepaliveProbe();
  void EnterTimeWait();
  void DropConnection(bool error);
  SimDuration CurrentRto() const;

  TcpStack* stack_;
  Socket* socket_;
  Socket* listener_socket_ = nullptr;  // for passive opens
  bool embryonic_ = false;  // counted against the listener's backlog
  Pcb pcb_;
  TcpState state_ = TcpState::kClosed;

  // Send sequence state.
  TcpSeq iss_ = 0;
  TcpSeq snd_una_ = 0;
  TcpSeq snd_nxt_ = 0;
  TcpSeq snd_max_ = 0;
  uint32_t snd_wnd_ = 0;
  TcpSeq snd_wl1_ = 0;
  TcpSeq snd_wl2_ = 0;
  CongestionControl cc_;      // cwnd / ssthresh / dup-ACK / recovery state
  uint32_t max_sndwnd_ = 0;  // largest window the peer has offered

  // Receive sequence state.
  TcpSeq irs_ = 0;
  TcpSeq rcv_nxt_ = 0;
  TcpSeq rcv_adv_ = 0;
  TcpSeq last_ack_sent_ = 0;

  size_t t_maxseg_ = 512;
  bool ack_now_ = false;
  bool delack_pending_ = false;
  bool fin_sent_ = false;
  bool no_checksum_ = false;       // negotiated for this connection
  bool request_no_checksum_ = false;
  bool request_sack_ = false;      // offer SACK-permitted on our SYN
  bool sack_enabled_ = false;      // both ends agreed (RFC 2018)
  bool force_probe_ = false;       // zero-window probe forced by the timer
  bool force_rexmt_ = false;       // RewindRetransmit forcing one segment out
  int rexmt_shift_ = 0;
  // Receiver side of SACK: the most recently arrived out-of-order block,
  // reported first in the option (RFC 2018 section 4).
  TcpSeq recent_sack_start_ = 0;
  TcpSeq recent_sack_end_ = 0;

  // Round-trip timing (coarse BSD-style smoothing).
  bool rtt_timing_ = false;
  TcpSeq rtt_seq_ = 0;
  SimTime rtt_started_;
  SimDuration srtt_;

  // Timeseries state (src/trace/timeseries.h): the last cwnd value pushed
  // and whether it was pushed inside a recovery episode, so TraceCwnd can
  // emit exact peak/valley edge pairs at the sawtooth corners.
  int64_t last_traced_cwnd_ = 0;
  bool traced_recovery_ = false;

  EventId rexmt_timer_ = kInvalidEventId;
  EventId delack_timer_ = kInvalidEventId;
  EventId timewait_timer_ = kInvalidEventId;
  EventId keepalive_timer_ = kInvalidEventId;
  int keepalive_unanswered_ = 0;

  // Out-of-order segments awaiting the gap fill.
  struct ReasmSegment {
    TcpSeq seq;
    size_t len;
    bool fin;
    MbufPtr data;
  };
  std::list<ReasmSegment> reassembly_;
};

}  // namespace tcplat

#endif  // SRC_TCP_TCP_CONNECTION_H_
