// The socket layer: sosend/soreceive, socket buffers, and the user/kernel
// boundary.
//
// This layer owns two latency behaviors the paper analyzes:
//
//  * The mbuf policy (§2.2.1): writes of more than 1 KB go into 4 KB cluster
//    mbufs, smaller writes into chains of 108-byte mbufs — the cause of the
//    nonlinearity between the 500- and 1400-byte rows of Table 2.
//  * sosend hands data to the protocol one chunk (mbuf or cluster) at a
//    time, each chunk triggering a protocol send. This is why an 8000-byte
//    write leaves as two segments even on a 9 KB-MTU network.
//
// The transmit half of the §4.1.1 combined copy+checksum also lives here:
// with integrated_copyin enabled, the user-to-kernel copy simultaneously
// computes a per-mbuf partial checksum stored in the mbuf for TCP output to
// combine later.

#ifndef SRC_SOCK_SOCKET_H_
#define SRC_SOCK_SOCKET_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <span>

#include "src/buf/mbuf.h"
#include "src/os/host.h"
#include "src/trace/span.h"

namespace tcplat {

// Defined in src/tcp/congestion.h; opaque here so the socket layer stays
// below the TCP layer.
enum class CongestionVariant : uint8_t;

// Protocol entry points the socket layer calls (PRU_* requests); implemented
// by TcpConnection.
class ProtocolOps {
 public:
  virtual ~ProtocolOps() = default;
  virtual void UsrSend() = 0;   // new data appended to the send buffer
  virtual void UsrRcvd() = 0;   // user consumed receive-buffer data
  virtual void UsrClose() = 0;  // user closed the socket
};

// One direction's socket buffer (struct sockbuf).
class SockBuf {
 public:
  explicit SockBuf(size_t hiwat) : hiwat_(hiwat) {}

  size_t cc() const { return cc_; }
  size_t hiwat() const { return hiwat_; }
  size_t space() const { return cc_ >= hiwat_ ? 0 : hiwat_ - cc_; }

  const Mbuf* chain() const { return chain_.get(); }

  // sbappend: links `m` (charging per-mbuf append cost to `pool`'s CPU).
  void Append(MbufPool* pool, MbufPtr m);
  // sbdrop: releases `n` bytes from the front.
  void Drop(MbufPool* pool, size_t n);
  // Takes up to out.size() bytes into `out`, charging copyout costs, and
  // drops them. Returns bytes taken.
  size_t CopyOutAndDrop(MbufPool* pool, std::span<uint8_t> out);

  WaitChannel& channel() { return chan_; }

 private:
  size_t cc_ = 0;
  size_t hiwat_;
  MbufPtr chain_;
  WaitChannel chan_;
};

enum class SocketState { kIdle, kListening, kConnecting, kConnected, kClosed };

// Default listen backlog (queued + embryonic connections per listener).
inline constexpr size_t kDefaultAcceptBacklog = 128;

struct SocketStats {
  uint64_t writes = 0;
  uint64_t reads = 0;
  uint64_t bytes_written = 0;
  uint64_t bytes_read = 0;
};

class Socket {
 public:
  Socket(Host* host, size_t sndbuf, size_t rcvbuf);

  Host& host() { return *host_; }
  SockBuf& snd() { return snd_; }
  SockBuf& rcv() { return rcv_; }

  void BindOps(ProtocolOps* ops) { ops_ = ops; }

  // Enables the integrated user-to-kernel copy + checksum (Table 6 kernel).
  void set_integrated_copyin(bool enabled) { integrated_copyin_ = enabled; }
  bool integrated_copyin() const { return integrated_copyin_; }

  // sosend's small-mbuf/cluster switchover point (§2.2.1).
  void set_cluster_threshold(size_t bytes) { cluster_threshold_ = bytes; }
  size_t cluster_threshold() const { return cluster_threshold_; }

  // Per-socket TCP_NODELAY (overrides the stack-wide default when set).
  void SetNodelay(bool enabled) { nodelay_ = enabled; }
  const std::optional<bool>& nodelay_option() const { return nodelay_; }

  // Per-socket congestion-control variant (overrides the stack-wide default
  // when set). On a listener it is inherited by accepted connections.
  void SetCongestion(CongestionVariant variant) { congestion_ = variant; }
  const std::optional<CongestionVariant>& congestion_option() const { return congestion_; }

  // Per-socket delayed ACKs on or off (overrides the stack-wide default when
  // set); the timer value is always the stack's.
  void SetDelackEnabled(bool enabled) { delack_ = enabled; }
  const std::optional<bool>& delack_option() const { return delack_; }

  // --- user "system calls" (called from process coroutines) ---

  // sosend: copies as much of `data` as fits into the send buffer, chunk by
  // chunk, invoking the protocol's send after each chunk. Returns bytes
  // accepted (0 when the buffer is full — wait on WaitWritable and retry).
  size_t Write(std::span<const uint8_t> data);

  // soreceive: copies up to out.size() buffered bytes to the user. Returns
  // bytes delivered (0 when the buffer is empty — wait on WaitReadable).
  size_t Read(std::span<uint8_t> out);

  // Begins an orderly close of the send side.
  void Close();

  // Dequeues a connection accepted by a listening socket, or null.
  Socket* Accept();

  // --- wait conditions (each returns an awaitable; callers loop, as
  // wakeups can be spurious) ---
  auto WaitReadable();
  auto WaitWritable();
  auto WaitConnected();
  auto WaitAcceptable();

  // --- state, managed by the protocol ---
  SocketState state() const { return state_; }
  bool connected() const { return state_ == SocketState::kConnected; }
  bool eof() const { return eof_ && rcv_.cc() == 0; }
  bool has_error() const { return error_; }

  // Accept backlog: counts connections queued for Accept() plus embryonic
  // (handshake in flight) ones, like BSD's so_qlen + so_q0len vs so_qlimit.
  void set_accept_backlog(size_t backlog) { accept_backlog_ = backlog; }
  size_t accept_backlog() const { return accept_backlog_; }
  bool AcceptBacklogFull() const {
    return accept_queue_.size() + embryonic_ >= accept_backlog_;
  }
  void EmbryonicStarted() { ++embryonic_; }
  void EmbryonicEnded() {
    if (embryonic_ > 0) {
      --embryonic_;
    }
  }

  void MarkListening() { state_ = SocketState::kListening; }
  void MarkConnecting() { state_ = SocketState::kConnecting; }
  void MarkConnected();
  void MarkEof();
  void MarkError();
  void MarkClosed();
  void EnqueueAccepted(Socket* s);

  // Protocol-side wakeups (sorwakeup / sowwakeup): charge the wakeup cost
  // and wake any sleeping reader/writer.
  void ReadWakeup();
  void WriteWakeup();

  const SocketStats& stats() const { return stats_; }

  // Flow id stamped on this socket's trace events (kUserWrite/kUserRead/
  // kWakeup). The owning TCP connection sets it to its (local<<16)|remote
  // port pair once known, so socket-layer events can be tied back to the
  // connection that caused them.
  void set_trace_flow(uint64_t flow) { trace_flow_ = flow; }
  uint64_t trace_flow() const { return trace_flow_; }

 private:
  Host* host_;
  SockBuf snd_;
  SockBuf rcv_;
  ProtocolOps* ops_ = nullptr;
  SocketState state_ = SocketState::kIdle;
  bool eof_ = false;
  bool error_ = false;
  bool integrated_copyin_ = false;
  size_t cluster_threshold_ = kClusterThreshold;
  std::optional<bool> nodelay_;
  std::optional<CongestionVariant> congestion_;
  std::optional<bool> delack_;
  WaitChannel state_chan_;
  std::deque<Socket*> accept_queue_;
  size_t accept_backlog_ = kDefaultAcceptBacklog;
  size_t embryonic_ = 0;  // accepted SYNs whose handshake has not completed
  SocketStats stats_;
  uint64_t trace_flow_ = 0;
};

// Awaiter blocking the current process on `chan` unless `Ready()` already
// holds. Wakeups may be spurious; callers re-test their condition.
struct SockAwaiter {
  Host* host;
  WaitChannel* chan;
  bool ready;
  bool await_ready() const noexcept { return ready; }
  void await_suspend(std::coroutine_handle<> h) {
    BlockAwaiter inner{host, chan};
    inner.await_suspend(h);
  }
  void await_resume() const noexcept {}
};

inline auto Socket::WaitReadable() {
  return SockAwaiter{host_, &rcv_.channel(), rcv_.cc() > 0 || eof_ || error_};
}
inline auto Socket::WaitWritable() {
  return SockAwaiter{host_, &snd_.channel(),
                     (snd_.space() > 0 && state_ == SocketState::kConnected) || error_};
}
inline auto Socket::WaitConnected() {
  return SockAwaiter{host_, &state_chan_, state_ == SocketState::kConnected || error_};
}
inline auto Socket::WaitAcceptable() {
  return SockAwaiter{host_, &state_chan_, !accept_queue_.empty() || error_};
}

}  // namespace tcplat

#endif  // SRC_SOCK_SOCKET_H_
