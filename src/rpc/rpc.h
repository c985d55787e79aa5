// A small RPC package over TCP — the paper's motivating application.
//
// §1 asks: "Can we provide evidence that TCP is a viable option for a
// transport layer for RPC?" and the conclusions compare against the
// "lightweight RPC" systems of the era (SRC RPC / Firefly, LRPC). This
// module supplies the missing application layer: length-framed call/reply
// messages with transaction matching over a stream socket, so null-RPC and
// argument-bearing RPC latency are measurable on the simulated testbed
// (see examples/rpc_latency and tests/rpc_test).
//
// Marshalling is real (big-endian framing into real buffers) and charged at
// user-level copy rates; the stub bookkeeping charges a small fixed cost
// per call on each side, in the spirit of the era's measured stub overheads.

#ifndef SRC_RPC_RPC_H_
#define SRC_RPC_RPC_H_

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "src/os/host.h"
#include "src/sock/socket.h"
#include "src/tcp/tcp_stack.h"

namespace tcplat {

inline constexpr uint32_t kRpcMagic = 0x52504331;  // "RPC1"
inline constexpr size_t kRpcHeaderBytes = 20;
// Largest payload the framer accepts; larger lengths mean a garbled stream.
inline constexpr size_t kMaxRpcPayload = 1 << 20;

enum class RpcType : uint8_t { kCall = 1, kReply = 2 };

enum class RpcStatus : uint8_t {
  kOk = 0,
  kNoSuchProcedure = 1,
  kGarbledMessage = 2,
};

struct RpcMessage {
  RpcType type = RpcType::kCall;
  RpcStatus status = RpcStatus::kOk;
  uint32_t xid = 0;
  uint32_t procedure = 0;
  std::vector<uint8_t> payload;

  // Framed wire image: 20-byte header + payload.
  std::vector<uint8_t> Serialize() const;
};

struct RpcStats {
  uint64_t calls_sent = 0;
  uint64_t replies_received = 0;
  uint64_t calls_served = 0;
  uint64_t errors = 0;
  uint64_t garbled = 0;
};

// Incremental parser for the framed stream (shared by both ends).
class RpcFramer {
 public:
  // Appends raw stream bytes.
  void Feed(std::span<const uint8_t> bytes);
  // Extracts the next complete message, if any. Garbled framing (bad magic
  // or oversized length) poisons the framer — the stream is unrecoverable,
  // as with any length-framed protocol.
  std::optional<RpcMessage> Next();
  bool poisoned() const { return poisoned_; }

 private:
  std::vector<uint8_t> buffer_;
  bool poisoned_ = false;
};

// Client side: issue calls, match replies by transaction id. The caller's
// process coroutine drives it:
//
//   uint32_t xid = channel.SendCall(proc, args);
//   RpcMessage reply;
//   while (!channel.PollReply(xid, &reply)) {
//     co_await channel.WaitReadable();
//   }
class RpcChannel {
 public:
  // `socket` must be a connected stream socket owned elsewhere.
  RpcChannel(Host* host, Socket* socket);

  // Sends one call; returns its transaction id. Multiple calls may be
  // outstanding.
  uint32_t SendCall(uint32_t procedure, std::span<const uint8_t> args);

  // Pumps the socket and completes `xid` if its reply has arrived.
  bool PollReply(uint32_t xid, RpcMessage* out);

  auto WaitReadable() { return socket_->WaitReadable(); }

  bool broken() const;
  const RpcStats& stats() const { return stats_; }

 private:
  void Pump();

  Host* host_;
  Socket* socket_;
  RpcFramer framer_;
  uint32_t next_xid_ = 1;
  std::map<uint32_t, RpcMessage> ready_;
  RpcStats stats_;
};

// Server side: procedure registry plus a serving coroutine.
class RpcServer {
 public:
  using Handler = std::function<std::vector<uint8_t>(std::span<const uint8_t> args)>;

  RpcServer(Host* host, TcpStack* tcp, uint16_t port);

  // Registers `handler` for `procedure`. Must precede Start().
  void Register(uint32_t procedure, Handler handler);

  // Spawns the accept-and-serve process (handles any number of sequential
  // connections; concurrent connections each get their own serving loop).
  void Start();

  const RpcStats& stats() const { return stats_; }

 private:
  SimTask AcceptLoop();
  SimTask ServeConnection(Socket* conn);
  std::vector<uint8_t> Dispatch(const RpcMessage& call, RpcStatus* status);

  Host* host_;
  TcpStack* tcp_;
  uint16_t port_;
  Socket* listener_ = nullptr;
  std::map<uint32_t, Handler> handlers_;
  RpcStats stats_;
  int next_conn_id_ = 0;
};

}  // namespace tcplat

#endif  // SRC_RPC_RPC_H_
