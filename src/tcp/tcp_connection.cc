#include "src/tcp/tcp_connection.h"

#include <algorithm>
#include <cstring>

#include "src/base/check.h"
#include "src/net/byte_order.h"
#include "src/net/checksum.h"
#include "src/tcp/tcp_stack.h"

namespace tcplat {
namespace {

constexpr uint32_t kMaxWindow = 65535;

// Drops `n` bytes from the back of a chain (freeing emptied mbufs).
void ChainTrimTail(MbufPool* pool, MbufPtr* head, size_t n) {
  while (n > 0 && *head != nullptr) {
    Mbuf* m = head->get();
    Mbuf* prev = nullptr;
    while (m->next() != nullptr) {
      prev = m;
      m = m->next();
    }
    const size_t cut = std::min(n, m->len());
    m->TrimBack(cut);
    n -= cut;
    if (m->len() == 0) {
      if (prev == nullptr) {
        pool->FreeChain(std::move(*head));
        break;
      }
      pool->FreeChain(prev->TakeNext());
    }
  }
}

}  // namespace

const char* TcpStateName(TcpState s) {
  switch (s) {
    case TcpState::kClosed: return "CLOSED";
    case TcpState::kListen: return "LISTEN";
    case TcpState::kSynSent: return "SYN_SENT";
    case TcpState::kSynReceived: return "SYN_RCVD";
    case TcpState::kEstablished: return "ESTABLISHED";
    case TcpState::kFinWait1: return "FIN_WAIT_1";
    case TcpState::kFinWait2: return "FIN_WAIT_2";
    case TcpState::kCloseWait: return "CLOSE_WAIT";
    case TcpState::kClosing: return "CLOSING";
    case TcpState::kLastAck: return "LAST_ACK";
    case TcpState::kTimeWait: return "TIME_WAIT";
  }
  return "?";
}

TcpConnection::TcpConnection(TcpStack* stack, Socket* socket)
    : stack_(stack), socket_(socket) {
  TCPLAT_CHECK(stack != nullptr);
  TCPLAT_CHECK(socket != nullptr);
  pcb_.conn = this;
}

TcpConnection::~TcpConnection() {
  CancelRexmt();
  CancelDelack();
  CancelKeepalive();
  if (timewait_timer_ != kInvalidEventId) {
    stack_->host().CancelCallout(timewait_timer_);
    timewait_timer_ = kInvalidEventId;
  }
}

// ---------------------------------------------------------------------------
// Opens / close
// ---------------------------------------------------------------------------

void TcpConnection::Listen(SockAddr local) {
  TCPLAT_CHECK(state_ == TcpState::kClosed);
  pcb_.local = local;
  pcb_.remote = SockAddr{};
  state_ = TcpState::kListen;
  stack_->pcbs().Insert(&pcb_);
  socket_->MarkListening();
}

void TcpConnection::Connect(SockAddr local, SockAddr remote) {
  TCPLAT_CHECK(state_ == TcpState::kClosed);
  pcb_.local = local;
  pcb_.remote = remote;
  stack_->pcbs().Insert(&pcb_);

  iss_ = stack_->NextIss();
  snd_una_ = snd_nxt_ = snd_max_ = iss_;
  t_maxseg_ = stack_->ip().netif()->mtu() - kIpv4HeaderBytes - kTcpMinHeaderBytes;
  if (stack_->config().mss_clamp > 0) {
    t_maxseg_ = std::min(t_maxseg_, stack_->config().mss_clamp);
  }
  cc_.Reset(ResolveVariant(socket_), static_cast<uint32_t>(t_maxseg_));
  request_sack_ = cc_.variant() == CongestionVariant::kSack;
  request_no_checksum_ = stack_->config().checksum == ChecksumMode::kNone;
  state_ = TcpState::kSynSent;
  socket_->set_trace_flow(TraceFlow());
  socket_->MarkConnecting();
  Output();
}

void TcpConnection::AcceptSyn(SockAddr local, SockAddr remote, Socket* listener_socket,
                              const TcpHeader& syn) {
  TCPLAT_CHECK(state_ == TcpState::kClosed);
  pcb_.local = local;
  pcb_.remote = remote;
  listener_socket_ = listener_socket;
  embryonic_ = true;
  listener_socket_->EmbryonicStarted();
  stack_->pcbs().Insert(&pcb_);
  socket_->set_trace_flow(TraceFlow());

  irs_ = syn.seq;
  rcv_nxt_ = syn.seq + 1;
  rcv_adv_ = rcv_nxt_;
  last_ack_sent_ = rcv_nxt_;
  snd_wnd_ = syn.window;
  max_sndwnd_ = std::max(max_sndwnd_, snd_wnd_);
  snd_wl1_ = syn.seq;
  snd_wl2_ = 0;

  iss_ = stack_->NextIss();
  snd_una_ = snd_nxt_ = snd_max_ = iss_;
  size_t our_mss = stack_->ip().netif()->mtu() - kIpv4HeaderBytes - kTcpMinHeaderBytes;
  if (stack_->config().mss_clamp > 0) {
    our_mss = std::min(our_mss, stack_->config().mss_clamp);
  }
  t_maxseg_ = std::min(our_mss, static_cast<size_t>(syn.options.mss.value_or(536)));
  cc_.Reset(ResolveVariant(listener_socket), static_cast<uint32_t>(t_maxseg_));

  // SACK negotiation (RFC 2018): on only when the SYN offered it and this
  // side runs the SACK variant; the SYN|ACK echoes the option.
  sack_enabled_ = syn.options.sack_permitted && cc_.variant() == CongestionVariant::kSack;
  request_sack_ = sack_enabled_;

  // Alternate-checksum negotiation (§4.2): disabled only when both ends ask.
  const bool peer_wants = syn.options.alt_checksum == kTcpAltChecksumNone;
  const bool we_want = stack_->config().checksum == ChecksumMode::kNone;
  no_checksum_ = peer_wants && we_want;
  request_no_checksum_ = no_checksum_;  // echo the option in the SYN|ACK

  state_ = TcpState::kSynReceived;
  Output();  // emits SYN|ACK
}

void TcpConnection::UsrClose() {
  switch (state_) {
    case TcpState::kClosed:
      break;
    case TcpState::kListen:
    case TcpState::kSynSent:
      DropConnection(/*error=*/false);
      break;
    case TcpState::kSynReceived:
    case TcpState::kEstablished:
      state_ = TcpState::kFinWait1;
      Output();
      break;
    case TcpState::kCloseWait:
      state_ = TcpState::kLastAck;
      Output();
      break;
    default:
      break;  // close already in progress
  }
}

// ---------------------------------------------------------------------------
// Input
// ---------------------------------------------------------------------------

bool TcpConnection::VerifyChecksum(const Mbuf* chain, const TcpHeader& th,
                                   const Ipv4Header& iph) {
  Host& host = stack_->host();
  Cpu& cpu = host.cpu();
  const size_t tcp_len = iph.total_length - kIpv4HeaderBytes;
  ScopedSpan cs(&host.tracker(), SpanId::kRxTcpChecksum);

  TcpPseudoHeader ph;
  ph.src = iph.src;
  ph.dst = iph.dst;
  ph.tcp_length = static_cast<uint16_t>(tcp_len);
  const auto pseudo = ph.Serialize();

  if (stack_->config().checksum == ChecksumMode::kCombined) {
    // §4.1.1 receive side: the driver computed per-mbuf partial sums during
    // the device-to-kernel copy; combining them replaces the full in_cksum
    // pass. Requires the canonical driver layout: 20-byte IP header mbuf
    // followed by data mbufs that all carry partials.
    bool usable = chain->len() == kIpv4HeaderBytes;
    size_t covered = 0;
    for (const Mbuf* m = chain->next(); usable && m != nullptr; m = m->next()) {
      if (!m->partial_cksum().has_value() || m->partial_cksum()->length != m->len()) {
        usable = false;
      } else {
        covered += m->len();
      }
    }
    if (usable && covered == tcp_len) {
      cpu.Charge(cpu.profile().combined_cksum_rx_overhead);
      cpu.Charge(cpu.profile().pseudo_hdr_cksum);
      ChecksumAccumulator acc;
      acc.Add(pseudo);
      for (const Mbuf* m = chain->next(); m != nullptr; m = m->next()) {
        cpu.Charge(cpu.profile().cksum_combine);
        acc.AddPartial(*m->partial_cksum());
      }
      return acc.Finalize() == 0;
    }
    ++stack_->stats().checksum_fallbacks;
  }

  // Full pass over the real bytes. The paper accounts the checksummed size
  // as data + 40 header bytes (20 TCP header + 20 "IP overlay"); the walk
  // covers pseudo header + TCP segment.
  cpu.Charge(cpu.profile().in_cksum, tcp_len - th.HeaderLength() + 40, ChainCount(chain));
  ChecksumAccumulator acc;
  acc.Add(pseudo);
  size_t skip = kIpv4HeaderBytes;
  for (const Mbuf* m = chain; m != nullptr; m = m->next()) {
    if (skip >= m->len()) {
      skip -= m->len();
      continue;
    }
    acc.Add(m->bytes().subspan(skip));
    skip = 0;
  }
  return acc.Finalize() == 0;
}

bool TcpConnection::TryHeaderPrediction(MbufPtr& data, const TcpHeader& th, size_t data_len) {
  Host& host = stack_->host();
  Cpu& cpu = host.cpu();
  TcpStats& stats = stack_->stats();
  const TcpFlags& f = th.flags;

  // The BSD 4.4 alpha predicate: established connection, nothing but ACK
  // set, next expected sequence number, unchanged non-zero window, and no
  // retransmission in progress.
  const bool flags_pure = f.ack && !f.syn && !f.fin && !f.rst && !f.urg;
  if (state_ != TcpState::kEstablished || !flags_pure || th.seq != rcv_nxt_ ||
      th.window == 0 || th.window != snd_wnd_ || snd_nxt_ != snd_max_) {
    return false;
  }

  if (data_len == 0) {
    // Case 1: "As the sender in a unidirectional transfer, header prediction
    // succeeds when receiving an in-sequence acknowledgment with no data."
    // The recovery-capable variants must fall to the slow path while dup-ACK
    // or recovery state is live (the fast path skips all of it); kLegacy
    // keeps the seed predicate untouched.
    const bool recovery_clear =
        cc_.variant() == CongestionVariant::kLegacy ||
        (cc_.dup_acks() == 0 && !cc_.in_recovery() && !sack_enabled_);
    if (SeqGt(th.ack, snd_una_) && SeqLeq(th.ack, snd_max_) && cc_.cwnd() >= snd_wnd_ &&
        recovery_clear) {
      ++stats.predict_ack_hits;
      cpu.Charge(cpu.profile().tcp_input_fast);
      if (rtt_timing_ && SeqGt(th.ack, rtt_seq_)) {
        const SimDuration sample = host.CurrentTime() - rtt_started_;
        srtt_ = srtt_.nanos() == 0 ? sample
                                   : SimDuration::FromNanos((7 * srtt_.nanos() + sample.nanos()) / 8);
        rtt_timing_ = false;
        host.TraceSample(TsMetric::kTcpSrttUs, TraceFlow(), srtt_.nanos() / 1000);
        host.TraceSample(TsMetric::kTcpRtoUs, TraceFlow(), CurrentRto().nanos() / 1000);
      }
      const uint32_t acked = th.ack - snd_una_;
      host.TracePacket(TraceLayer::kTcp, TraceEventKind::kAck, TraceFlow(), th.ack - iss_,
                       acked);
      socket_->snd().Drop(&host.pool(), std::min<size_t>(acked, socket_->snd().cc()));
      snd_una_ = th.ack;
      rexmt_shift_ = 0;
      if (snd_una_ == snd_max_) {
        CancelRexmt();
      } else {
        ArmRexmt();
      }
      socket_->WriteWakeup();
      if (data != nullptr) {
        host.pool().FreeChain(std::move(data));
      }
      if (socket_->snd().cc() > snd_nxt_ - snd_una_) {
        Output();
      }
      return true;
    }
  } else if (th.ack == snd_una_ && reassembly_.empty() &&
             data_len <= socket_->rcv().space()) {
    // Case 2: "As the receiver in a unidirectional transfer, header
    // prediction succeeds when receiving an in-sequence data segment with
    // no acknowledgment."
    ++stats.predict_data_hits;
    cpu.Charge(cpu.profile().tcp_input_fast);
    rcv_nxt_ += static_cast<uint32_t>(data_len);
    AppendInOrder(std::move(data));
    socket_->ReadWakeup();
    if (delack_pending_ || !DelackEnabled()) {
      // 4.4 acks every other full segment on the fast path (or every
      // segment immediately when delayed ACKs are disabled).
      ack_now_ = true;
      Output();
    } else {
      delack_pending_ = true;
      ArmDelack();
    }
    return true;
  }
  ++stats.predict_misses;
  return false;
}

void TcpConnection::Input(MbufPtr chain, const TcpHeader& th, const Ipv4Header& iph) {
  Host& host = stack_->host();
  Cpu& cpu = host.cpu();
  MbufPool& pool = host.pool();
  TCPLAT_CHECK(state_ != TcpState::kListen) << "listeners are handled by the stack";

  const size_t hdrlen = th.HeaderLength();
  const size_t tcp_len = iph.total_length - kIpv4HeaderBytes;
  TCPLAT_CHECK_GE(tcp_len, hdrlen);
  size_t len = tcp_len - hdrlen;

  if (state_ == TcpState::kClosed) {
    pool.FreeChain(std::move(chain));
    return;
  }

  // The alternate-checksum agreement covers only post-handshake segments:
  // SYNs always carry a real checksum (the option rides on them).
  const bool checksum_exempt = no_checksum_ && !th.flags.syn;
  if (!checksum_exempt && !VerifyChecksum(chain.get(), th, iph)) {
    ++stack_->stats().checksum_errors;
    host.TracePacket(TraceLayer::kTcp, TraceEventKind::kChecksumError, TraceFlow(),
                     th.seq - irs_, len);
    pool.FreeChain(std::move(chain));
    return;
  }

  // Strip the IP and TCP headers; what remains is payload.
  ChainAdjHead(&pool, &chain, kIpv4HeaderBytes + hdrlen);
  if (chain != nullptr && ChainLength(chain.get()) == 0) {
    pool.FreeChain(std::move(chain));
  }

  if (state_ == TcpState::kSynSent) {
    InputSynSent(th);
    if (chain != nullptr) {
      pool.FreeChain(std::move(chain));
    }
    return;
  }

  // Any traffic from the peer proves liveness.
  keepalive_unanswered_ = 0;
  if (stack_->config().keepalive && state_ == TcpState::kEstablished) {
    ArmKeepalive(stack_->config().keepalive_idle);
  }

  if (stack_->config().header_prediction && TryHeaderPrediction(chain, th, len)) {
    return;
  }

  cpu.Charge(cpu.profile().tcp_input_slow);

  TcpSeq seq = th.seq;
  bool fin = th.flags.fin;

  if (th.flags.rst) {
    ++stack_->stats().rst_received;
    if (chain != nullptr) {
      pool.FreeChain(std::move(chain));
    }
    DropConnection(/*error=*/true);
    return;
  }

  // Trim any duplicate prefix.
  if (SeqLt(seq, rcv_nxt_)) {
    const size_t dup = rcv_nxt_ - seq;
    if (dup >= len) {
      // Entirely old data (or a pure duplicate): re-ACK to resynchronize.
      if (chain != nullptr) {
        pool.FreeChain(std::move(chain));
      }
      // Entirely old or out-of-window (including keepalive probes):
      // re-ACK to resynchronize the peer.
      ack_now_ = true;
      len = 0;
      fin = false;
      seq = rcv_nxt_;
    } else {
      ChainAdjHead(&pool, &chain, dup);
      len -= dup;
      seq = rcv_nxt_;
    }
  }

  // Trim data beyond our receive buffer.
  const size_t space = socket_->rcv().space();
  if (len > space) {
    if (chain != nullptr) {
      ChainTrimTail(&pool, &chain, len - space);
    }
    len = space;
    fin = false;
    ack_now_ = true;
  }

  if (!th.flags.ack) {
    if (chain != nullptr) {
      pool.FreeChain(std::move(chain));
    }
    return;
  }

  if (state_ == TcpState::kSynReceived) {
    if (SeqLeq(th.ack, snd_una_) || SeqGt(th.ack, snd_max_)) {
      if (chain != nullptr) {
        pool.FreeChain(std::move(chain));
      }
      return;
    }
    CompleteEstablishment();
  }

  ProcessAck(th, len);

  // Window update (BSD wl1/wl2 rules).
  if (SeqLt(snd_wl1_, seq) || (snd_wl1_ == seq && SeqLeq(snd_wl2_, th.ack)) ||
      (snd_wl2_ == th.ack && th.window > snd_wnd_)) {
    snd_wnd_ = th.window;
    max_sndwnd_ = std::max(max_sndwnd_, snd_wnd_);
    snd_wl1_ = seq;
    snd_wl2_ = th.ack;
  }

  if (len > 0 || fin) {
    ProcessData(std::move(chain), seq, len, fin);
  } else if (chain != nullptr) {
    pool.FreeChain(std::move(chain));
  }

  if (ack_now_) {
    Output();
  } else if (socket_->snd().cc() > snd_nxt_ - snd_una_ ||
             (fin_needed_for_state() && !fin_sent_)) {
    Output();
  }
}

bool TcpConnection::fin_needed_for_state() const {
  return state_ == TcpState::kFinWait1 || state_ == TcpState::kLastAck ||
         state_ == TcpState::kClosing;
}

void TcpConnection::InputSynSent(const TcpHeader& th) {
  if (!th.flags.ack || SeqLeq(th.ack, iss_) || SeqGt(th.ack, snd_max_)) {
    return;  // unacceptable ACK; a full implementation would RST
  }
  if (th.flags.rst) {
    ++stack_->stats().rst_received;  // connection refused
    DropConnection(/*error=*/true);
    return;
  }
  if (!th.flags.syn) {
    return;
  }

  irs_ = th.seq;
  rcv_nxt_ = th.seq + 1;
  rcv_adv_ = rcv_nxt_;
  last_ack_sent_ = rcv_nxt_;
  snd_una_ = th.ack;
  rexmt_shift_ = 0;
  CancelRexmt();

  if (th.options.mss.has_value()) {
    t_maxseg_ = std::min(t_maxseg_, static_cast<size_t>(*th.options.mss));
  }
  cc_.SetMss(static_cast<uint32_t>(t_maxseg_));
  no_checksum_ = request_no_checksum_ && th.options.alt_checksum == kTcpAltChecksumNone;
  sack_enabled_ = request_sack_ && th.options.sack_permitted;

  snd_wnd_ = th.window;
  max_sndwnd_ = std::max(max_sndwnd_, snd_wnd_);
  snd_wl1_ = th.seq;
  snd_wl2_ = th.ack;

  state_ = TcpState::kEstablished;
  ++stack_->stats().conns_established;
  if (stack_->config().keepalive) {
    ArmKeepalive(stack_->config().keepalive_idle);
  }
  ack_now_ = true;
  socket_->MarkConnected();
  Output();
}

void TcpConnection::CompleteEstablishment() {
  state_ = TcpState::kEstablished;
  ++stack_->stats().conns_established;
  if (stack_->config().keepalive) {
    ArmKeepalive(stack_->config().keepalive_idle);
  }
  socket_->MarkConnected();
  if (listener_socket_ != nullptr) {
    if (embryonic_) {
      embryonic_ = false;
      listener_socket_->EmbryonicEnded();
    }
    listener_socket_->EnqueueAccepted(socket_);
  }
}

void TcpConnection::ProcessAck(const TcpHeader& th, size_t data_len) {
  Host& host = stack_->host();
  Cpu& cpu = host.cpu();
  const TcpSeq ack = th.ack;

  if (sack_enabled_ && !th.options.sack.empty()) {
    IngestSackBlocks(th);
  }

  if (SeqLeq(ack, snd_una_)) {
    // Duplicate ACK; three in a row trigger fast retransmit. What happens
    // next is the congestion variant's call: kLegacy deflates and rewinds,
    // Reno-era variants enter (or continue) fast recovery.
    if (ack == snd_una_ && snd_una_ != snd_max_) {
      // kLegacy keeps the seed's loose predicate bit-for-bit. The RFC 5681
      // variants require a *pure* duplicate — no payload, no window change —
      // so receiver window updates cannot masquerade as loss signals.
      const bool pure_dup = data_len == 0 && th.window == snd_wnd_;
      if (cc_.variant() == CongestionVariant::kLegacy || pure_dup) {
        ++stack_->stats().dup_acks_received;
        ApplyLossAction(cc_.OnDupAck(snd_una_, snd_max_, snd_wnd_));
      }
    }
    return;
  }
  if (SeqGt(ack, snd_max_)) {
    ack_now_ = true;
    return;
  }

  host.TracePacket(TraceLayer::kTcp, TraceEventKind::kAck, TraceFlow(), ack - iss_,
                   ack - snd_una_);
  cpu.Charge(cpu.profile().tcp_ack_proc);

  if (rtt_timing_ && SeqGt(ack, rtt_seq_)) {
    const SimDuration sample = host.CurrentTime() - rtt_started_;
    srtt_ = srtt_.nanos() == 0 ? sample
                               : SimDuration::FromNanos((7 * srtt_.nanos() + sample.nanos()) / 8);
    rtt_timing_ = false;
    host.TraceSample(TsMetric::kTcpSrttUs, TraceFlow(), srtt_.nanos() / 1000);
    host.TraceSample(TsMetric::kTcpRtoUs, TraceFlow(), CurrentRto().nanos() / 1000);
  }

  // Congestion window opening / recovery bookkeeping.
  const CongestionControl::AckAction ack_action =
      cc_.OnNewAck(snd_una_, ack, snd_max_, snd_wnd_);

  const uint32_t acked = ack - snd_una_;
  const size_t sb_drop = std::min<size_t>(acked, socket_->snd().cc());
  if (sb_drop > 0) {
    socket_->snd().Drop(&host.pool(), sb_drop);
  }
  const bool fin_acked = fin_sent_ && SeqGeq(ack, snd_max_);
  snd_una_ = ack;
  if (SeqLt(snd_nxt_, snd_una_)) {
    snd_nxt_ = snd_una_;
  }
  rexmt_shift_ = 0;
  if (snd_una_ == snd_max_) {
    CancelRexmt();
  } else {
    ArmRexmt();
  }
  socket_->WriteWakeup();
  ApplyAckAction(ack_action);

  switch (state_) {
    case TcpState::kFinWait1:
      if (fin_acked) {
        state_ = TcpState::kFinWait2;
      }
      break;
    case TcpState::kClosing:
      if (fin_acked) {
        EnterTimeWait();
      }
      break;
    case TcpState::kLastAck:
      if (fin_acked) {
        DropConnection(/*error=*/false);
      }
      break;
    default:
      break;
  }
}

CongestionVariant TcpConnection::ResolveVariant(const Socket* option_source) const {
  if (option_source != nullptr && option_source->congestion_option().has_value()) {
    return *option_source->congestion_option();
  }
  return stack_->config().congestion;
}

void TcpConnection::IngestSackBlocks(const TcpHeader& th) {
  SackScoreboard& board = cc_.scoreboard();
  const uint64_t before = board.sacked_bytes();
  for (const TcpSackBlock& b : th.options.sack) {
    board.Add(snd_una_, b.start, b.end);
  }
  stack_->stats().sack_blocks_received += th.options.sack.size();
  stack_->host().TracePacket(TraceLayer::kTcp, TraceEventKind::kSackBlock, TraceFlow(),
                             th.options.sack.front().start - iss_,
                             board.sacked_bytes() - before);
}

void TcpConnection::TraceCwnd() {
  Host& host = stack_->host();
  host.TracePacket(TraceLayer::kTcp, TraceEventKind::kCwndChange, TraceFlow(),
                   cc_.cwnd(), cc_.ssthresh());
  stack_->NoteCwnd(cc_.cwnd(), cc_.ssthresh());

  const uint64_t flow = TraceFlow();
  const auto cwnd = static_cast<int64_t>(cc_.cwnd());
  const bool recovery = cc_.in_recovery();
  if (recovery && !traced_recovery_) {
    // Loss-episode entry: pin the sawtooth corner exactly — the peak the
    // window fell from and the value it was cut to, at the same instant.
    host.TraceSampleEdge(TsMetric::kTcpLossEnter, flow, last_traced_cwnd_);
    host.TraceSampleEdge(TsMetric::kTcpCwnd, flow, last_traced_cwnd_);
    host.TraceSampleEdge(TsMetric::kTcpCwnd, flow, cwnd);
  } else if (!recovery && traced_recovery_) {
    host.TraceSampleEdge(TsMetric::kTcpLossExit, flow, cwnd);
    host.TraceSampleEdge(TsMetric::kTcpCwnd, flow, cwnd);
  } else {
    host.TraceSample(TsMetric::kTcpCwnd, flow, cwnd);
  }
  host.TraceSample(TsMetric::kTcpSsthresh, flow, static_cast<int64_t>(cc_.ssthresh()));
  host.TraceSample(TsMetric::kTcpPipe, flow, static_cast<int64_t>(snd_max_ - snd_una_));
  traced_recovery_ = recovery;
  last_traced_cwnd_ = cwnd;
}

void TcpConnection::SampleCwnd() {
  const auto cwnd = static_cast<int64_t>(cc_.cwnd());
  stack_->host().TraceSample(TsMetric::kTcpCwnd, TraceFlow(), cwnd);
  last_traced_cwnd_ = cwnd;
}

void TcpConnection::RewindRetransmit(TcpSeq seq) {
  if (SeqGeq(seq, snd_max_)) {
    return;  // nothing outstanding at or above the requested hole
  }
  // BSD's `onxt` trick: point snd_nxt at the hole, force one segment out
  // (EmitSegment counts it as a retransmission), then resume where we were.
  const TcpSeq onxt = snd_nxt_;
  snd_nxt_ = seq;
  force_rexmt_ = true;
  Output();
  force_rexmt_ = false;
  if (SeqGt(onxt, snd_nxt_)) {
    snd_nxt_ = onxt;
  }
}

void TcpConnection::ApplyLossAction(const CongestionControl::LossAction& action) {
  Host& host = stack_->host();
  TcpStats& stats = stack_->stats();
  if (cc_.variant() == CongestionVariant::kLegacy) {
    // Seed side effects, in the seed's order (note the double retransmit
    // count: once here, once when EmitSegment sees snd_nxt < snd_max).
    if (action.fast_retransmit) {
      snd_nxt_ = snd_una_;
      ++stats.retransmits;
      ++stats.fast_retransmits;
      host.TracePacket(TraceLayer::kTcp, TraceEventKind::kRetransmit, TraceFlow(),
                       snd_una_ - iss_);
      Output();
    }
    return;
  }
  if (action.cwnd_changed) {
    // Entering fast recovery.
    ++stats.fast_retransmits;
    ++stats.fast_recovery_episodes;
    host.TracePacket(TraceLayer::kTcp, TraceEventKind::kFastRetransmit, TraceFlow(),
                     action.rexmt_seq - iss_);
    TraceCwnd();
  } else if (action.fast_retransmit && cc_.variant() == CongestionVariant::kSack) {
    ++stats.sack_retransmits;  // in-recovery hole repair
  }
  if (action.fast_retransmit) {
    RewindRetransmit(action.rexmt_seq);
  }
  if (action.send_more) {
    Output();  // window inflation may let new data out
  }
}

void TcpConnection::ApplyAckAction(const CongestionControl::AckAction& action) {
  if (cc_.variant() == CongestionVariant::kLegacy) {
    SampleCwnd();
    return;
  }
  if (action.cwnd_changed) {
    TraceCwnd();
  } else {
    SampleCwnd();  // slow start / congestion avoidance growth
  }
  if (action.partial_retransmit) {
    ++stack_->stats().newreno_partial_acks;
    if (cc_.variant() == CongestionVariant::kSack) {
      ++stack_->stats().sack_retransmits;
    }
    stack_->host().TracePacket(TraceLayer::kTcp, TraceEventKind::kFastRetransmit, TraceFlow(),
                               action.rexmt_seq - iss_);
    RewindRetransmit(action.rexmt_seq);
  }
}

void TcpConnection::AppendInOrder(MbufPtr data) {
  if (data == nullptr) {
    return;
  }
  socket_->rcv().Append(&stack_->host().pool(), std::move(data));
}

void TcpConnection::ProcessData(MbufPtr data, TcpSeq seq, size_t len, bool fin) {
  Host& host = stack_->host();
  MbufPool& pool = host.pool();

  if (state_ == TcpState::kCloseWait || state_ == TcpState::kClosing ||
      state_ == TcpState::kLastAck || state_ == TcpState::kTimeWait ||
      state_ == TcpState::kClosed) {
    // Peer already sent FIN; anything further is bogus.
    if (data != nullptr) {
      pool.FreeChain(std::move(data));
    }
    return;
  }

  if (seq != rcv_nxt_) {
    // Out of order: stash for later, duplicate-ACK immediately. Segments
    // entirely beyond the advertised window are dropped, not stashed —
    // the queue must stay bounded by the receive buffer.
    ++stack_->stats().out_of_order_segs;
    const bool in_window =
        SeqLt(seq, rcv_nxt_ + static_cast<uint32_t>(socket_->rcv().space()));
    if (in_window && (len > 0 || fin)) {
      auto it = reassembly_.begin();
      while (it != reassembly_.end() && SeqLt(it->seq, seq)) {
        ++it;
      }
      if (it == reassembly_.end() || it->seq != seq) {
        reassembly_.insert(it, ReasmSegment{seq, len, fin, std::move(data)});
        data = nullptr;
        recent_sack_start_ = seq;
        recent_sack_end_ = seq + static_cast<uint32_t>(len);
      }
    }
    if (data != nullptr) {
      pool.FreeChain(std::move(data));
    }
    ack_now_ = true;
    return;
  }

  bool got_fin = fin;
  if (len > 0) {
    rcv_nxt_ += static_cast<uint32_t>(len);
    AppendInOrder(std::move(data));
  } else if (data != nullptr) {
    pool.FreeChain(std::move(data));
  }

  const bool had_reassembly = !reassembly_.empty();
  if (had_reassembly) {
    got_fin = DrainReassembly() || got_fin;
    ack_now_ = true;  // BSD acks immediately after a gap fills
  }

  if (len > 0) {
    if (DelackEnabled()) {
      delack_pending_ = true;
      ArmDelack();
    } else {
      ack_now_ = true;  // delayed ACKs disabled: ack every data segment
    }
    socket_->ReadWakeup();
  }
  if (got_fin) {
    ProcessFin();
  }
}

bool TcpConnection::DrainReassembly() {
  bool fin = false;
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (auto it = reassembly_.begin(); it != reassembly_.end(); ++it) {
      if (it->seq == rcv_nxt_) {
        rcv_nxt_ += static_cast<uint32_t>(it->len);
        AppendInOrder(std::move(it->data));
        fin = fin || it->fin;
        reassembly_.erase(it);
        progressed = true;
        socket_->ReadWakeup();
        break;
      }
      if (SeqLt(it->seq, rcv_nxt_)) {
        // Overlapped by data that arrived in order meanwhile; drop it.
        stack_->host().pool().FreeChain(std::move(it->data));
        reassembly_.erase(it);
        progressed = true;
        break;
      }
    }
  }
  return fin;
}

void TcpConnection::ProcessFin() {
  rcv_nxt_ += 1;
  ack_now_ = true;
  socket_->MarkEof();
  switch (state_) {
    case TcpState::kEstablished:
    case TcpState::kSynReceived:
      state_ = TcpState::kCloseWait;
      break;
    case TcpState::kFinWait1:
      state_ = TcpState::kClosing;
      break;
    case TcpState::kFinWait2:
      EnterTimeWait();
      break;
    default:
      break;
  }
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

TcpConnection::SegmentPlan TcpConnection::PlanSegment() {
  SegmentPlan p;
  if (state_ == TcpState::kClosed || state_ == TcpState::kListen) {
    return p;
  }

  // Flags by state (tcp_outflags).
  switch (state_) {
    case TcpState::kSynSent:
      p.flags.syn = true;
      break;
    case TcpState::kSynReceived:
      p.flags.syn = true;
      p.flags.ack = true;
      break;
    default:
      p.flags.ack = true;
      break;
  }
  // Our SYN is already out and unacknowledged: don't repeat it in new
  // segments (only a retransmit, with snd_nxt reset, resends it).
  if (p.flags.syn && SeqGt(snd_nxt_, snd_una_)) {
    p.flags.syn = false;
  }

  const size_t avail = socket_->snd().cc();
  const uint32_t win = std::min(snd_wnd_, cc_.cwnd());

  size_t len = 0;
  const size_t usable = std::min<size_t>(avail, win);
  // Data offset within the send buffer (the SYN sequence slot is excluded).
  size_t data_off = snd_nxt_ - snd_una_;
  if (SeqLt(snd_una_, iss_ + 1)) {
    data_off = SeqGt(snd_nxt_, iss_ + 1) ? snd_nxt_ - (iss_ + 1) : 0;
  }

  if (force_rexmt_) {
    // RewindRetransmit: one segment at snd_nxt, regardless of what the
    // congestion/peer window would otherwise allow — the variant asking for
    // it already accounted the segment against the pipe.
    if (avail > data_off) {
      p.len = std::min(avail - data_off, t_maxseg_);
      p.send = p.len > 0;
    }
    return p;
  }
  if (usable > data_off) {
    len = usable - data_off;
  }
  p.window_limited = snd_wnd_ < avail && snd_wnd_ <= win;
  if (len > t_maxseg_) {
    len = t_maxseg_;
    p.sendalot = true;
  }
  if (p.flags.syn) {
    len = 0;
    p.sendalot = false;
  }

  // FIN once all data is queued out.
  const bool closing_state = state_ == TcpState::kFinWait1 || state_ == TcpState::kLastAck ||
                             state_ == TcpState::kClosing;
  if (closing_state && data_off + len == avail && !p.flags.syn) {
    p.flags.fin = true;
  }
  // Don't re-emit an already-sent FIN unless retransmitting.
  if (p.flags.fin && fin_sent_ && SeqGt(snd_nxt_, snd_una_) && snd_nxt_ == snd_max_) {
    p.flags.fin = false;
  }

  p.len = len;

  // --- send decision ---
  const bool idle = snd_max_ == snd_una_;
  if (force_probe_ && len == 0 && avail > data_off && win == 0) {
    p.len = 1;
    p.send = true;
    return p;
  }
  if (len > 0) {
    if (len == t_maxseg_) {
      p.send = true;
    } else if (idle && data_off + len == avail) {
      p.send = true;  // everything we have, nothing outstanding
    } else if (socket_->nodelay_option().value_or(stack_->config().nodelay)) {
      p.send = true;  // TCP_NODELAY defeats the Nagle algorithm
    } else if (SeqLt(snd_nxt_, snd_max_)) {
      p.send = true;  // retransmission: Nagle never blocks resending
    } else if (max_sndwnd_ > 0 && len >= max_sndwnd_ / 2) {
      // The BSD clause that keeps window-limited senders moving: send once
      // we can fill half of the largest window the peer ever offered.
      p.send = true;
    }
  }
  if (p.flags.syn || p.flags.fin) {
    p.send = true;
  }
  if (ack_now_) {
    p.send = true;
  }
  if (!p.send && p.flags.ack && state_ != TcpState::kSynSent) {
    // Window update: announce when the window opens by 2 segments or half
    // the receive buffer.
    const uint32_t announce = AnnounceWindow();
    const int64_t adv = static_cast<int64_t>(rcv_nxt_ + announce) -
                        static_cast<int64_t>(rcv_adv_);
    if (adv >= static_cast<int64_t>(2 * t_maxseg_) ||
        2 * adv >= static_cast<int64_t>(socket_->rcv().hiwat())) {
      p.send = true;
    }
  }
  return p;
}

void TcpConnection::Output() {
  Host& host = stack_->host();
  ScopedSpan seg(&host.tracker(), SpanId::kTxTcpSegment);
  while (true) {
    const SegmentPlan plan = PlanSegment();
    if (!plan.send) {
      TraceHeldData(plan);
      return;
    }
    EmitSegment(plan);
    if (!plan.sendalot) {
      return;
    }
  }
}

void TcpConnection::TraceHeldData(const SegmentPlan& plan) {
  // tcp_output had sendable data but the send rules held it back. Count and
  // trace the hold so attribution can blame sender-side ACK-wait time, and
  // split Nagle holds (peer window is open; we are waiting for our own
  // outstanding data to be acked) from silly-window holds (the peer's tiny
  // window is what makes the segment small).
  if (plan.len == 0 ||
      (state_ != TcpState::kEstablished && state_ != TcpState::kCloseWait)) {
    return;
  }
  TcpStats& stats = stack_->stats();
  if (plan.window_limited && plan.len < t_maxseg_) {
    ++stats.sws_holds;
  } else {
    ++stats.nagle_holds;
  }
  stack_->host().TracePacket(TraceLayer::kTcp, TraceEventKind::kNagleHold, TraceFlow(),
                             snd_nxt_ - iss_, plan.len);
}

bool TcpConnection::DelackEnabled() const {
  return socket_->delack_option().value_or(stack_->config().delack);
}

uint32_t TcpConnection::AnnounceWindow() const {
  return static_cast<uint32_t>(std::min<size_t>(socket_->rcv().space(), kMaxWindow));
}

void TcpConnection::AttachSackBlocks(TcpOptions* options) const {
  // Coalesce the reassembly queue (kept sorted by sequence) into contiguous
  // blocks, then report the block holding the most recent arrival first
  // (RFC 2018 section 4) and the rest in ascending order.
  std::vector<TcpSackBlock> blocks;
  for (const ReasmSegment& seg : reassembly_) {
    const uint32_t start = seg.seq;
    const uint32_t end = seg.seq + static_cast<uint32_t>(seg.len);
    if (!blocks.empty() && blocks.back().end == start) {
      blocks.back().end = end;
    } else {
      blocks.push_back({start, end});
    }
  }
  for (size_t i = 0; i < blocks.size(); ++i) {
    const bool recent = SeqLeq(blocks[i].start, recent_sack_start_) &&
                        SeqGeq(blocks[i].end, recent_sack_end_);
    if (recent && i != 0) {
      std::rotate(blocks.begin(), blocks.begin() + i, blocks.begin() + i + 1);
      break;
    }
  }
  if (blocks.size() > kTcpMaxSackBlocks) {
    blocks.resize(kTcpMaxSackBlocks);
  }
  options->sack = std::move(blocks);
}

void TcpConnection::EmitSegment(const SegmentPlan& plan) {
  Host& host = stack_->host();
  Cpu& cpu = host.cpu();
  MbufPool& pool = host.pool();
  const CostProfile& prof = cpu.profile();
  TcpStats& stats = stack_->stats();

  cpu.Charge(prof.tcp_output_fixed);
  force_probe_ = false;

  TcpHeader th;
  th.src_port = pcb_.local.port;
  th.dst_port = pcb_.remote.port;
  th.seq = snd_nxt_;
  th.flags = plan.flags;
  if (plan.flags.ack) {
    th.ack = rcv_nxt_;
  }
  const uint32_t announce = AnnounceWindow();
  th.window = static_cast<uint16_t>(announce);
  if (plan.flags.syn) {
    size_t adv_mss = stack_->ip().netif()->mtu() - kIpv4HeaderBytes - kTcpMinHeaderBytes;
    if (stack_->config().mss_clamp > 0) {
      adv_mss = std::min(adv_mss, stack_->config().mss_clamp);
    }
    th.options.mss = static_cast<uint16_t>(adv_mss);
    if (request_no_checksum_) {
      th.options.alt_checksum = kTcpAltChecksumNone;
    }
    if (request_sack_) {
      th.options.sack_permitted = true;
    }
  } else if (sack_enabled_ && plan.flags.ack && !reassembly_.empty()) {
    AttachSackBlocks(&th.options);
  }
  if (plan.len > 0 && plan.flags.ack) {
    th.flags.psh = true;
  }
  const size_t hdrlen = th.HeaderLength();

  // Header mbuf with room in front for the IP and link headers.
  MbufPtr hm = pool.GetHeader(kMaxLinkHeader + kIpv4HeaderBytes);

  // Data offset within the send buffer.
  size_t data_off = snd_nxt_ - snd_una_;
  if (SeqLt(snd_una_, iss_ + 1)) {
    // SYN still unacknowledged; buffered data starts at sequence iss+1.
    data_off = SeqGt(snd_nxt_, iss_ + 1) ? snd_nxt_ - (iss_ + 1) : 0;
  }

  // Attach the payload: small amounts are copied straight into the header
  // mbuf (the cheap path visible in the paper's 4/20-byte mcopy rows);
  // larger ones get an m_copym'd chain kept for retransmission.
  MbufPtr data_chain;
  bool data_in_header = false;
  if (plan.len > 0) {
    ScopedSpan mcopy(&host.tracker(), SpanId::kTxTcpMcopy);
    if (plan.len <= hm->trailing_space() - hdrlen) {
      data_in_header = true;
      cpu.Charge(prof.tcp_copydata_small, plan.len);
    } else {
      data_chain = pool.CopyRange(socket_->snd().chain(), data_off, plan.len);
    }
  }

  // Serialize the header (checksum zero for now).
  th.checksum = 0;
  std::span<uint8_t> hdr_space = hm->Append(hdrlen);
  th.Serialize(hdr_space);
  if (data_in_header) {
    ChainCopyOut(socket_->snd().chain(), data_off, hm->Append(plan.len));
  }

  // --- checksum (§4) --- SYN segments are always checksummed; the
  // negotiated elimination applies only once the connection is up.
  uint16_t cksum = 0;
  if (!no_checksum_ || plan.flags.syn) {
    ScopedSpan cs(&host.tracker(), SpanId::kTxTcpChecksum);
    TcpPseudoHeader ph;
    ph.src = pcb_.local.addr;
    ph.dst = pcb_.remote.addr;
    ph.tcp_length = static_cast<uint16_t>(hdrlen + plan.len);
    const auto pseudo = ph.Serialize();

    const bool combined = stack_->config().checksum == ChecksumMode::kCombined;
    bool partials_usable = combined && data_chain != nullptr;
    for (const Mbuf* m = data_chain.get(); partials_usable && m != nullptr; m = m->next()) {
      if (!m->partial_cksum().has_value() || m->partial_cksum()->length != m->len()) {
        partials_usable = false;
      }
    }
    if (combined) {
      // The bookkeeping the paper's initial implementation pays on every
      // send in this mode — the source of the small-packet regression in
      // Table 6.
      cpu.Charge(prof.combined_cksum_tx_overhead);
    }

    ChecksumAccumulator acc;
    acc.Add(pseudo);
    acc.Add(std::span<const uint8_t>(hm->data(), hm->len()));
    if (partials_usable) {
      cpu.Charge(prof.pseudo_hdr_cksum);
      for (const Mbuf* m = data_chain.get(); m != nullptr; m = m->next()) {
        cpu.Charge(prof.cksum_combine);
        acc.AddPartial(*m->partial_cksum());
      }
    } else {
      if (combined) {
        ++stats.checksum_fallbacks;
      }
      cpu.Charge(prof.in_cksum, plan.len + 40,
                 1 + (data_chain ? ChainCount(data_chain.get()) : 0));
      for (const Mbuf* m = data_chain.get(); m != nullptr; m = m->next()) {
        acc.Add(m->bytes());
      }
    }
    cksum = acc.Finalize();
  }
  StoreBe16(hm->data() + 16, cksum);  // checksum field at offset 16

  if (data_chain != nullptr) {
    hm->SetNext(std::move(data_chain));
  }

  // --- sequence bookkeeping ---
  if (plan.flags.syn) {
    snd_nxt_ += 1;
  }
  snd_nxt_ += static_cast<uint32_t>(plan.len);
  if (plan.flags.fin) {
    fin_sent_ = true;
    snd_nxt_ += 1;  // the FIN occupies one sequence slot (also on rexmt)
  }
  if (SeqGt(snd_nxt_, snd_max_)) {
    if (!rtt_timing_) {
      rtt_timing_ = true;
      rtt_seq_ = snd_max_;
      rtt_started_ = host.CurrentTime();
    }
    snd_max_ = snd_nxt_;
  } else if (plan.len > 0) {
    ++stats.retransmits;
    host.TracePacket(TraceLayer::kTcp, TraceEventKind::kRetransmit, TraceFlow(),
                     th.seq - iss_, plan.len);
  }
  if (snd_nxt_ != snd_una_ && rexmt_timer_ == kInvalidEventId) {
    ArmRexmt();
  }

  if (SeqGt(rcv_nxt_ + announce, rcv_adv_)) {
    rcv_adv_ = rcv_nxt_ + announce;
  }
  last_ack_sent_ = rcv_nxt_;
  ack_now_ = false;
  if (delack_pending_) {
    delack_pending_ = false;
    CancelDelack();
  }

  ++stats.segs_sent;
  if (plan.len > 0) {
    ++stats.data_segs_sent;
    stats.bytes_sent += plan.len;
    if (Histogram* hist = stack_->tx_bytes_histogram(); hist != nullptr) {
      hist->Add(static_cast<int64_t>(plan.len));
    }
  }
  host.TracePacket(TraceLayer::kTcp, TraceEventKind::kSegTx, TraceFlow(), th.seq - iss_,
                   plan.len);
  if (stack_->tap() != nullptr) {
    stack_->tap()->OnSegment({host.CurrentTime(), /*outbound=*/true, pcb_.local, pcb_.remote,
                              th, plan.len});
  }

  stack_->ip().Output(std::move(hm), pcb_.local.addr, pcb_.remote.addr, kIpProtoTcp);
}

// ---------------------------------------------------------------------------
// Timers
// ---------------------------------------------------------------------------

SimDuration TcpConnection::CurrentRto() const {
  const TcpConfig& cfg = stack_->config();
  int64_t base = std::max(cfg.rexmt_min.nanos(), 2 * srtt_.nanos());
  base <<= std::min(rexmt_shift_, 10);
  return SimDuration::FromNanos(std::min(base, cfg.rexmt_max.nanos()));
}

void TcpConnection::ArmRexmt() {
  CancelRexmt();
  const SimDuration rto = CurrentRto();
  rexmt_timer_ = stack_->host().After(rto, [this, rto] {
    rexmt_timer_ = kInvalidEventId;
    // The interval that just elapsed is dead air: the ACK clock stopped when
    // this timer was (re)armed and only the timeout restarts transmission.
    stack_->stats().rexmt_stall_ns += static_cast<uint64_t>(rto.nanos());
    // The edge value is the dead-air length, so a timeline can reconstruct
    // rexmt_stall_ns exactly by summing kTcpRtoFire edges.
    stack_->host().TraceSampleEdge(TsMetric::kTcpRtoFire, TraceFlow(), rto.nanos());
    RexmtTimeout();
  });
}

void TcpConnection::CancelRexmt() {
  if (rexmt_timer_ != kInvalidEventId) {
    stack_->host().CancelCallout(rexmt_timer_);
    rexmt_timer_ = kInvalidEventId;
  }
}

void TcpConnection::RexmtTimeout() {
  TcpStats& stats = stack_->stats();
  ++stats.rexmt_timeouts;
  if (++rexmt_shift_ > stack_->config().max_rexmt) {
    DropConnection(/*error=*/true);
    return;
  }
  // Slow-start restart.
  cc_.OnTimeout(snd_wnd_);
  if (cc_.variant() != CongestionVariant::kLegacy) {
    TraceCwnd();
  }
  snd_nxt_ = snd_una_;
  rtt_timing_ = false;
  if (snd_wnd_ == 0 && socket_->snd().cc() > 0) {
    force_probe_ = true;  // zero-window probe
    ++stats.zero_window_probes;
  }
  Output();
  if (snd_una_ != snd_max_ || snd_nxt_ != snd_una_ || state_ == TcpState::kSynSent ||
      state_ == TcpState::kSynReceived) {
    ArmRexmt();
  }
}

void TcpConnection::ArmDelack() {
  if (delack_timer_ != kInvalidEventId) {
    return;
  }
  delack_timer_ = stack_->host().After(stack_->config().delack_timeout, [this] {
    delack_timer_ = kInvalidEventId;
    DelackTimeout();
  });
}

void TcpConnection::CancelDelack() {
  if (delack_timer_ != kInvalidEventId) {
    stack_->host().CancelCallout(delack_timer_);
    delack_timer_ = kInvalidEventId;
  }
}

void TcpConnection::DelackTimeout() {
  if (!delack_pending_) {
    return;
  }
  delack_pending_ = false;
  ack_now_ = true;
  ++stack_->stats().delayed_acks_fired;
  stack_->host().TracePacket(TraceLayer::kTcp, TraceEventKind::kDelayedAck, TraceFlow(),
                             rcv_nxt_ - irs_, 0);
  Output();
}

void TcpConnection::ArmKeepalive(SimDuration delay) {
  CancelKeepalive();
  keepalive_timer_ = stack_->host().After(delay, [this] {
    keepalive_timer_ = kInvalidEventId;
    KeepaliveTimeout();
  });
}

void TcpConnection::CancelKeepalive() {
  if (keepalive_timer_ != kInvalidEventId) {
    stack_->host().CancelCallout(keepalive_timer_);
    keepalive_timer_ = kInvalidEventId;
  }
}

void TcpConnection::KeepaliveTimeout() {
  if (state_ != TcpState::kEstablished) {
    return;
  }
  if (keepalive_unanswered_ >= stack_->config().keepalive_probes) {
    ++stack_->stats().keepalive_drops;
    DropConnection(/*error=*/true);
    return;
  }
  ++keepalive_unanswered_;
  SendKeepaliveProbe();
  ArmKeepalive(stack_->config().keepalive_interval);
}

void TcpConnection::SendKeepaliveProbe() {
  // BSD-style probe: an otherwise-empty segment whose sequence number is
  // one below the window, forcing the peer to answer with a bare ACK.
  Host& host = stack_->host();
  Cpu& cpu = host.cpu();
  const CostProfile& prof = cpu.profile();
  ScopedSpan other(&host.tracker(), SpanId::kOther);
  cpu.Charge(prof.tcp_output_fixed);

  TcpHeader th;
  th.src_port = pcb_.local.port;
  th.dst_port = pcb_.remote.port;
  th.seq = snd_una_ - 1;
  th.ack = rcv_nxt_;
  th.flags.ack = true;
  th.window = static_cast<uint16_t>(AnnounceWindow());

  MbufPtr hm = host.pool().GetHeader(kMaxLinkHeader + kIpv4HeaderBytes);
  th.checksum = 0;
  th.Serialize(hm->Append(th.HeaderLength()));
  if (!no_checksum_) {
    TcpPseudoHeader ph;
    ph.src = pcb_.local.addr;
    ph.dst = pcb_.remote.addr;
    ph.tcp_length = static_cast<uint16_t>(th.HeaderLength());
    ChecksumAccumulator acc;
    acc.Add(ph.Serialize());
    acc.Add(hm->bytes());
    StoreBe16(hm->data() + 16, acc.Finalize());
  }
  ++stack_->stats().keepalive_probes_sent;
  ++stack_->stats().segs_sent;
  if (stack_->tap() != nullptr) {
    stack_->tap()->OnSegment({host.CurrentTime(), /*outbound=*/true, pcb_.local, pcb_.remote,
                              th, 0});
  }
  stack_->ip().Output(std::move(hm), pcb_.local.addr, pcb_.remote.addr, kIpProtoTcp);
}

void TcpConnection::EnterTimeWait() {
  state_ = TcpState::kTimeWait;
  CancelRexmt();
  if (timewait_timer_ == kInvalidEventId) {
    timewait_timer_ = stack_->host().After(2 * stack_->config().msl, [this] {
      timewait_timer_ = kInvalidEventId;
      DropConnection(/*error=*/false);
    });
  }
}

void TcpConnection::DropConnection(bool error) {
  if (state_ == TcpState::kClosed) {
    return;
  }
  state_ = TcpState::kClosed;
  CancelRexmt();
  CancelDelack();
  CancelKeepalive();
  if (timewait_timer_ != kInvalidEventId) {
    stack_->host().CancelCallout(timewait_timer_);
    timewait_timer_ = kInvalidEventId;
  }
  stack_->pcbs().Remove(&pcb_);
  if (embryonic_) {
    // A passive open that died before establishing frees its backlog slot.
    embryonic_ = false;
    listener_socket_->EmbryonicEnded();
  }
  if (error) {
    ++stack_->stats().conns_dropped;
    socket_->MarkError();
  } else {
    socket_->MarkClosed();
  }
}

}  // namespace tcplat
