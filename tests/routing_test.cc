// Tests for IP forwarding: a three-host topology (client — gateway —
// server) across two Ethernet segments, exercising route lookup, TTL
// handling, and the §4.2.1 source-(3) argument — errors introduced inside
// a gateway are invisible to every link-level CRC, so traffic that crosses
// a router must keep the TCP checksum ("eliminate ... only for local-area
// traffic").

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/base/random.h"
#include "src/core/routed_testbed.h"
#include "src/core/rpc_benchmark.h"
#include "src/ether/ether_netif.h"
#include "src/os/task.h"
#include "src/tcp/tcp_stack.h"

namespace tcplat {
namespace {

constexpr Ipv4Addr kClientIp = kRoutedClientAddr;
constexpr Ipv4Addr kServerIp = kRoutedServerAddr;

using RoutedNet = RoutedTestbed;

// One measured echo of `size` bytes across the gateway through
// RunRpcBenchmark: the client writes the request whole, then reads the
// echo back.
RpcResult EchoOnce(RoutedNet& net, size_t size) {
  RpcOptions opt;
  opt.size = size;
  opt.iterations = 1;
  opt.warmup = 0;
  return RunRpcBenchmark(net, opt);
}

TEST(Routing, TcpEchoAcrossGateway) {
  RoutedNet net;
  const RpcResult r = EchoOnce(net, 2000);
  ASSERT_EQ(r.rtt.count(), 1u);
  EXPECT_FALSE(r.aborted);
  EXPECT_EQ(r.data_mismatches, 0u);
  EXPECT_GT(net.gateway_ip().stats().forwarded, 4u);
  EXPECT_EQ(net.gateway_ip().stats().no_route, 0u);
}

TEST(Routing, TtlDecrementedByGateway) {
  RoutedNet net;
  // Capture a frame on the right segment and inspect its TTL.
  uint8_t seen_ttl = 0;
  net.right_segment().set_corrupt_hook([&seen_ttl](std::vector<uint8_t>& frame) {
    if (seen_ttl == 0) {
      seen_ttl = frame[kEtherHeaderBytes + 8];
    }
  });
  const RpcResult r = EchoOnce(net, 100);
  EXPECT_EQ(r.data_mismatches, 0u);
  EXPECT_EQ(seen_ttl, 63) << "TCP sends TTL 64; one hop must cost one";
}

TEST(Routing, TtlExpiryDropsAtGateway) {
  RoutedNet net;
  Host& h = net.client_host();
  bool done = false;
  // Hand-build a TTL-1 packet and push it out the client interface.
  h.Spawn("raw", [](RoutedNet* n, bool* flag) -> SimTask {
    MbufPtr m = n->client_host().pool().GetHeader(40);
    std::memset(m->Append(30).data(), 0xEE, 30);
    n->client_ip().Output(std::move(m), kClientIp, kServerIp, 250, /*ttl=*/1);
    *flag = true;
    co_return;
  }(&net, &done));
  net.sim().RunToCompletion();
  ASSERT_TRUE(done);
  EXPECT_EQ(net.gateway_ip().stats().ttl_expired, 1u);
  EXPECT_EQ(net.server_ip().stats().packets_received, 0u);
}

TEST(Routing, GatewayMemoryCorruptionNeedsTheTcpChecksum) {
  // §4.2.1 source (3): damage inside the gateway is re-CRCed by the
  // outbound link, so only an end-to-end check can see it. With the TCP
  // checksum on, the stream survives via retransmission...
  RoutedNet with_cksum;
  auto rng = std::make_shared<Rng>(17);
  int corruptions = 0;
  with_cksum.gateway_ip().set_forward_corrupt_hook(
      [rng, &corruptions](std::vector<uint8_t>& pkt) {
        if (pkt.size() > 60 && rng->NextBool(0.4)) {
          pkt[45] ^= 0x20;  // payload byte, past IP+TCP headers
          ++corruptions;
        }
      });
  const RpcResult r = EchoOnce(with_cksum, 16000);
  EXPECT_GT(corruptions, 0);
  EXPECT_EQ(r.data_mismatches, 0u) << "TCP checksum + retransmission must mask the gateway";
  EXPECT_GT(r.client_tcp.checksum_errors + r.server_tcp.checksum_errors, 0u);

  // ...with it negotiated off, the corruption lands in the application:
  // the paper's rule is precisely that the no-checksum option is for
  // traffic that crosses no IP routers.
  TcpConfig no_cksum;
  no_cksum.checksum = ChecksumMode::kNone;
  RoutedNet without(no_cksum);
  auto rng2 = std::make_shared<Rng>(17);
  without.gateway_ip().set_forward_corrupt_hook([rng2](std::vector<uint8_t>& pkt) {
    if (pkt.size() > 60 && rng2->NextBool(0.4)) {
      pkt[45] ^= 0x20;
    }
  });
  const RpcResult r2 = EchoOnce(without, 16000);
  ASSERT_EQ(r2.rtt.count(), 1u);
  EXPECT_GT(r2.data_mismatches, 0u) << "without the checksum the damage goes through";
}

TEST(Routing, GatewayDropsUnroutableDestinations) {
  RoutedNet net;
  bool done = false;
  net.client_host().Spawn("raw", [](RoutedNet* n, bool* flag) -> SimTask {
    MbufPtr m = n->client_host().pool().GetHeader(40);
    std::memset(m->Append(30).data(), 0xEE, 30);
    // 10.0.9.9 matches no gateway route.
    n->client_ip().Output(std::move(m), kClientIp, MakeAddr(10, 0, 9, 9), 250);
    *flag = true;
    co_return;
  }(&net, &done));
  net.sim().RunToCompletion();
  ASSERT_TRUE(done);
  EXPECT_EQ(net.gateway_ip().stats().no_route, 1u);
}

}  // namespace
}  // namespace tcplat
