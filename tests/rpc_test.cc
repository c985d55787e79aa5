// Tests for the RPC package: framing, call/reply matching, error statuses,
// concurrency, and end-to-end latency sanity over the simulated testbed.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "src/base/random.h"
#include "src/core/testbed.h"
#include "src/rpc/rpc.h"
#include "tests/mutate.h"

namespace tcplat {
namespace {

constexpr uint32_t kProcEcho = 1;
constexpr uint32_t kProcSum = 2;
constexpr uint16_t kRpcPort = 6000;

TEST(RpcFramer, ReassemblesSplitMessages) {
  RpcMessage msg;
  msg.type = RpcType::kCall;
  msg.xid = 42;
  msg.procedure = 7;
  msg.payload = {1, 2, 3, 4, 5};
  const auto wire = msg.Serialize();

  RpcFramer framer;
  // Feed byte by byte: no message until the last byte arrives.
  for (size_t i = 0; i + 1 < wire.size(); ++i) {
    framer.Feed({&wire[i], 1});
    EXPECT_FALSE(framer.Next().has_value());
  }
  framer.Feed({&wire[wire.size() - 1], 1});
  auto parsed = framer.Next();
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->xid, 42u);
  EXPECT_EQ(parsed->procedure, 7u);
  EXPECT_EQ(parsed->payload, msg.payload);
  EXPECT_FALSE(framer.Next().has_value());
}

TEST(RpcFramer, ParsesBackToBackMessages) {
  RpcMessage a;
  a.xid = 1;
  a.payload = {9, 9};
  RpcMessage b;
  b.xid = 2;
  auto wire = a.Serialize();
  const auto wb = b.Serialize();
  wire.insert(wire.end(), wb.begin(), wb.end());

  RpcFramer framer;
  framer.Feed(wire);
  auto first = framer.Next();
  auto second = framer.Next();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->xid, 1u);
  EXPECT_EQ(second->xid, 2u);
}

TEST(RpcFramer, BadMagicPoisons) {
  std::vector<uint8_t> junk(64, 0xAB);
  RpcFramer framer;
  framer.Feed(junk);
  EXPECT_FALSE(framer.Next().has_value());
  EXPECT_TRUE(framer.poisoned());
}

// Seeded mutation fuzzing of the framer: a stream of framed calls and
// replies, mutated and fed in random-size slices. Once the framer poisons
// itself it returns no message, and no message it returns carries more
// than kMaxRpcPayload bytes or more bytes than the stream held.
TEST(RpcFramer, MutatedStreamsNeverYieldAfterPoisonOrOversize) {
  std::vector<uint8_t> stream;
  for (uint32_t i = 0; i < 6; ++i) {
    RpcMessage msg;
    msg.type = i % 2 == 0 ? RpcType::kCall : RpcType::kReply;
    msg.xid = 100 + i;
    msg.procedure = kProcEcho;
    msg.payload.assign(i * 37, static_cast<uint8_t>(i));
    const auto wire = msg.Serialize();
    stream.insert(stream.end(), wire.begin(), wire.end());
  }

  Rng rng(20261019);
  int poisoned = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    std::vector<uint8_t> mutant = stream;
    Mutate(rng, &mutant);
    RpcFramer framer;
    size_t payload_bytes = 0;
    for (size_t off = 0; off < mutant.size();) {
      const size_t take = std::min<size_t>(mutant.size() - off, 1 + rng.NextBelow(64));
      framer.Feed({mutant.data() + off, take});
      off += take;
      while (true) {
        const bool was_poisoned = framer.poisoned();
        const auto msg = framer.Next();
        if (!msg.has_value()) {
          break;
        }
        ASSERT_FALSE(was_poisoned) << "mutant " << iter << " yielded a message after poison";
        ASSERT_LE(msg->payload.size(), kMaxRpcPayload) << "mutant " << iter;
        payload_bytes += msg->payload.size();
        ASSERT_LE(payload_bytes, mutant.size()) << "mutant " << iter;
      }
    }
    poisoned += framer.poisoned() ? 1 : 0;
  }
  EXPECT_GT(poisoned, 0);
}

// --- end-to-end over the testbed ---

struct ClientResult {
  std::vector<uint8_t> echo_reply;
  RpcStatus echo_status = RpcStatus::kOk;
  uint32_t sum = 0;
  RpcStatus missing_status = RpcStatus::kOk;
  double null_rpc_us = 0;
  bool done = false;
};

SimTask RpcClientProc(Testbed* tb, ClientResult* out, size_t echo_bytes) {
  Socket* sock = tb->client_tcp().Connect(SockAddr{kServerAddr, kRpcPort});
  while (!sock->connected() && !sock->has_error()) {
    co_await sock->WaitConnected();
  }
  RpcChannel channel(&tb->client_host(), sock);

  // Echo with a payload.
  std::vector<uint8_t> args(echo_bytes);
  std::iota(args.begin(), args.end(), uint8_t{0});
  uint32_t xid = channel.SendCall(kProcEcho, args);
  RpcMessage reply;
  while (!channel.PollReply(xid, &reply)) {
    co_await channel.WaitReadable();
  }
  out->echo_status = reply.status;
  out->echo_reply = reply.payload;

  // Two calls outstanding simultaneously, answered by xid.
  std::vector<uint8_t> nums = {1, 2, 3, 4};
  const uint32_t xid_sum = channel.SendCall(kProcSum, nums);
  const uint32_t xid_echo2 = channel.SendCall(kProcEcho, {nums.data(), 2});
  RpcMessage sum_reply;
  while (!channel.PollReply(xid_sum, &sum_reply)) {
    co_await channel.WaitReadable();
  }
  RpcMessage echo2_reply;
  while (!channel.PollReply(xid_echo2, &echo2_reply)) {
    co_await channel.WaitReadable();
  }
  out->sum = sum_reply.payload.empty() ? 0 : sum_reply.payload[0];
  EXPECT_EQ(echo2_reply.payload.size(), 2u);

  // Unknown procedure.
  const uint32_t xid_missing = channel.SendCall(999, {});
  RpcMessage missing;
  while (!channel.PollReply(xid_missing, &missing)) {
    co_await channel.WaitReadable();
  }
  out->missing_status = missing.status;

  // Null RPC latency (the classic metric), averaged over a few calls.
  const SimTime t0 = tb->client_host().CurrentTime();
  constexpr int kNullCalls = 20;
  for (int i = 0; i < kNullCalls; ++i) {
    const uint32_t x = channel.SendCall(kProcEcho, {});
    RpcMessage r;
    while (!channel.PollReply(x, &r)) {
      co_await channel.WaitReadable();
    }
  }
  out->null_rpc_us = (tb->client_host().CurrentTime() - t0).micros() / kNullCalls;

  sock->Close();
  out->done = true;
}

class RpcEndToEnd : public ::testing::Test {
 protected:
  void Run(size_t echo_bytes) {
    tb_ = std::make_unique<Testbed>(TestbedConfig{});
    server_ = std::make_unique<RpcServer>(&tb_->server_host(), &tb_->server_tcp(), kRpcPort);
    server_->Register(kProcEcho, [](std::span<const uint8_t> args) {
      return std::vector<uint8_t>(args.begin(), args.end());
    });
    server_->Register(kProcSum, [](std::span<const uint8_t> args) {
      uint8_t sum = 0;
      for (uint8_t v : args) {
        sum = static_cast<uint8_t>(sum + v);
      }
      return std::vector<uint8_t>{sum};
    });
    server_->Start();
    tb_->client_host().Spawn("rpc-client", RpcClientProc(tb_.get(), &result_, echo_bytes));
    tb_->sim().RunToCompletion();
    ASSERT_TRUE(result_.done);
  }

  std::unique_ptr<Testbed> tb_;
  std::unique_ptr<RpcServer> server_;
  ClientResult result_;
};

TEST_F(RpcEndToEnd, EchoRoundTripsPayload) {
  Run(300);
  EXPECT_EQ(result_.echo_status, RpcStatus::kOk);
  ASSERT_EQ(result_.echo_reply.size(), 300u);
  for (size_t i = 0; i < 300; ++i) {
    EXPECT_EQ(result_.echo_reply[i], static_cast<uint8_t>(i));
  }
}

TEST_F(RpcEndToEnd, ConcurrentCallsMatchedByXid) {
  Run(64);
  EXPECT_EQ(result_.sum, 10u);
}

TEST_F(RpcEndToEnd, UnknownProcedureReported) {
  Run(16);
  EXPECT_EQ(result_.missing_status, RpcStatus::kNoSuchProcedure);
  EXPECT_GE(server_->stats().errors, 1u);
}

TEST_F(RpcEndToEnd, NullRpcLatencyIsTcpRttPlusStubs) {
  Run(16);
  // A null RPC is one ~20-byte echo over TCP (about the 20-byte Table 1
  // row, ~1111 us) plus four stub crossings. Sanity-bound it.
  EXPECT_GT(result_.null_rpc_us, 900.0);
  EXPECT_LT(result_.null_rpc_us, 1800.0);
  EXPECT_EQ(server_->stats().calls_served, 23u);  // 2 echoes + sum + 20 nulls
}

TEST_F(RpcEndToEnd, LargePayloadRpc) {
  Run(4000);
  EXPECT_EQ(result_.echo_reply.size(), 4000u);
  EXPECT_EQ(result_.echo_status, RpcStatus::kOk);
}

}  // namespace
}  // namespace tcplat
