#include "src/rpc/rpc.h"

#include <cstring>

#include "src/base/check.h"
#include "src/net/byte_order.h"

namespace tcplat {
namespace {

// Stub bookkeeping per call per side, in the spirit of the measured stub
// overheads of the era's RPC systems (Bershad et al. report tens of
// microseconds for stub + dispatch work on comparable hardware).
constexpr double kStubOverheadUs = 12.0;
// Largest message the framer accepts; larger lengths mean a garbled stream.
constexpr size_t kMaxRpcPayload = 1 << 20;

void ChargeMarshal(Host* host, size_t bytes) {
  Cpu& cpu = host->cpu();
  cpu.ChargeDuration(SimDuration::FromMicros(kStubOverheadUs));
  cpu.Charge(cpu.profile().user_bcopy, bytes);
}

}  // namespace

std::vector<uint8_t> RpcMessage::Serialize() const {
  std::vector<uint8_t> out(kRpcHeaderBytes + payload.size());
  StoreBe32(&out[0], kRpcMagic);
  out[4] = static_cast<uint8_t>(type);
  out[5] = static_cast<uint8_t>(status);
  StoreBe16(&out[6], 0);  // reserved
  StoreBe32(&out[8], xid);
  StoreBe32(&out[12], procedure);
  StoreBe32(&out[16], static_cast<uint32_t>(payload.size()));
  if (!payload.empty()) {
    std::memcpy(out.data() + kRpcHeaderBytes, payload.data(), payload.size());
  }
  return out;
}

void RpcFramer::Feed(std::span<const uint8_t> bytes) {
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

std::optional<RpcMessage> RpcFramer::Next() {
  if (poisoned_ || buffer_.size() < kRpcHeaderBytes) {
    return std::nullopt;
  }
  if (LoadBe32(&buffer_[0]) != kRpcMagic) {
    poisoned_ = true;
    return std::nullopt;
  }
  const uint32_t len = LoadBe32(&buffer_[16]);
  if (len > kMaxRpcPayload) {
    poisoned_ = true;
    return std::nullopt;
  }
  if (buffer_.size() < kRpcHeaderBytes + len) {
    return std::nullopt;
  }
  RpcMessage msg;
  msg.type = static_cast<RpcType>(buffer_[4]);
  msg.status = static_cast<RpcStatus>(buffer_[5]);
  msg.xid = LoadBe32(&buffer_[8]);
  msg.procedure = LoadBe32(&buffer_[12]);
  msg.payload.assign(buffer_.begin() + kRpcHeaderBytes,
                     buffer_.begin() + kRpcHeaderBytes + len);
  buffer_.erase(buffer_.begin(), buffer_.begin() + kRpcHeaderBytes + len);
  return msg;
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

RpcChannel::RpcChannel(Host* host, Socket* socket) : host_(host), socket_(socket) {
  TCPLAT_CHECK(host != nullptr);
  TCPLAT_CHECK(socket != nullptr);
}

uint32_t RpcChannel::SendCall(uint32_t procedure, std::span<const uint8_t> args) {
  RpcMessage msg;
  msg.type = RpcType::kCall;
  msg.xid = next_xid_++;
  msg.procedure = procedure;
  msg.payload.assign(args.begin(), args.end());
  ChargeMarshal(host_, args.size());
  const std::vector<uint8_t> wire = msg.Serialize();
  TCPLAT_CHECK_LE(wire.size(), socket_->snd().hiwat())
      << "RPC message larger than the socket send buffer";
  size_t sent = 0;
  while (sent < wire.size()) {
    const size_t n = socket_->Write({wire.data() + sent, wire.size() - sent});
    TCPLAT_CHECK_GT(n, 0u) << "send buffer full: too many outstanding calls";
    sent += n;
  }
  ++stats_.calls_sent;
  return msg.xid;
}

void RpcChannel::Pump() {
  std::vector<uint8_t> buf(4096);
  size_t n;
  while ((n = socket_->Read({buf.data(), buf.size()})) > 0) {
    framer_.Feed({buf.data(), n});
  }
  while (auto msg = framer_.Next()) {
    if (msg->type != RpcType::kReply) {
      ++stats_.garbled;
      continue;
    }
    ++stats_.replies_received;
    ready_[msg->xid] = std::move(*msg);
  }
}

bool RpcChannel::PollReply(uint32_t xid, RpcMessage* out) {
  TCPLAT_CHECK(out != nullptr);
  Pump();
  auto it = ready_.find(xid);
  if (it == ready_.end()) {
    return false;
  }
  ChargeMarshal(host_, it->second.payload.size());
  *out = std::move(it->second);
  ready_.erase(it);
  if (out->status != RpcStatus::kOk) {
    ++stats_.errors;
  }
  return true;
}

bool RpcChannel::broken() const {
  return framer_.poisoned() || socket_->has_error() || socket_->eof();
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

RpcServer::RpcServer(Host* host, TcpStack* tcp, uint16_t port)
    : host_(host), tcp_(tcp), port_(port) {
  TCPLAT_CHECK(host != nullptr);
  TCPLAT_CHECK(tcp != nullptr);
}

void RpcServer::Register(uint32_t procedure, Handler handler) {
  TCPLAT_CHECK(handler != nullptr);
  TCPLAT_CHECK(listener_ == nullptr) << "register procedures before Start()";
  handlers_[procedure] = std::move(handler);
}

void RpcServer::Start() {
  TCPLAT_CHECK(listener_ == nullptr) << "already started";
  listener_ = tcp_->Listen(port_);
  host_->Spawn("rpc-accept:" + std::to_string(port_), AcceptLoop());
}

SimTask RpcServer::AcceptLoop() {
  while (true) {
    Socket* conn = listener_->Accept();
    if (conn == nullptr) {
      co_await listener_->WaitAcceptable();
      continue;
    }
    host_->Spawn("rpc-serve:" + std::to_string(next_conn_id_++), ServeConnection(conn));
  }
}

std::vector<uint8_t> RpcServer::Dispatch(const RpcMessage& call, RpcStatus* status) {
  auto it = handlers_.find(call.procedure);
  if (it == handlers_.end()) {
    *status = RpcStatus::kNoSuchProcedure;
    ++stats_.errors;
    return {};
  }
  ChargeMarshal(host_, call.payload.size());
  *status = RpcStatus::kOk;
  std::vector<uint8_t> result = it->second(call.payload);
  ChargeMarshal(host_, result.size());
  ++stats_.calls_served;
  return result;
}

SimTask RpcServer::ServeConnection(Socket* conn) {
  RpcFramer framer;
  std::vector<uint8_t> buf(4096);
  while (true) {
    const size_t n = conn->Read({buf.data(), buf.size()});
    if (n == 0) {
      if (conn->eof() || conn->has_error() || framer.poisoned()) {
        conn->Close();
        co_return;
      }
      co_await conn->WaitReadable();
      continue;
    }
    framer.Feed({buf.data(), n});
    while (auto msg = framer.Next()) {
      if (msg->type != RpcType::kCall) {
        ++stats_.garbled;
        continue;
      }
      RpcMessage reply;
      reply.type = RpcType::kReply;
      reply.xid = msg->xid;
      reply.procedure = msg->procedure;
      reply.payload = Dispatch(*msg, &reply.status);
      const std::vector<uint8_t> wire = reply.Serialize();
      size_t sent = 0;
      while (sent < wire.size()) {
        const size_t w = conn->Write({wire.data() + sent, wire.size() - sent});
        sent += w;
        if (w == 0) {
          if (conn->has_error()) {
            co_return;
          }
          co_await conn->WaitWritable();
        }
      }
    }
    if (framer.poisoned()) {
      ++stats_.garbled;
      conn->Close();
      co_return;
    }
  }
}

}  // namespace tcplat
