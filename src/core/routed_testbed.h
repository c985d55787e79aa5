// A three-host routed topology: client — gateway — server across two
// Ethernet segments, with the middle host forwarding IP.
//
// The paper defines local-area traffic as "packets that go from source host
// to destination host without passing through any IP routers" (§4.2) and
// reserves checksum elimination for exactly that case; this testbed is the
// *other* case — the one where §4.2.1's source-(3) errors (corruption
// inside a gateway) make the TCP checksum non-negotiable.
//
// As a WorkloadHosts it has one client and one server, so RunWorkload and
// RunRpcBenchmark drive it like the other testbeds; the gateway only
// forwards.

#ifndef SRC_CORE_ROUTED_TESTBED_H_
#define SRC_CORE_ROUTED_TESTBED_H_

#include <memory>

#include "src/core/testbed.h"
#include "src/ether/ether_netif.h"
#include "src/ip/ip_stack.h"
#include "src/os/host.h"
#include "src/sim/simulator.h"
#include "src/tcp/tcp_stack.h"

namespace tcplat {

inline constexpr Ipv4Addr kRoutedClientAddr = MakeAddr(10, 0, 1, 1);
inline constexpr Ipv4Addr kRoutedGatewayLeft = MakeAddr(10, 0, 1, 254);
inline constexpr Ipv4Addr kRoutedGatewayRight = MakeAddr(10, 0, 2, 254);
inline constexpr Ipv4Addr kRoutedServerAddr = MakeAddr(10, 0, 2, 1);

class RoutedTestbed final : public WorkloadHosts {
 public:
  // `tcp` applies to the client's and the server's stacks.
  explicit RoutedTestbed(const TcpConfig& tcp = {});
  RoutedTestbed(const RoutedTestbed&) = delete;
  RoutedTestbed& operator=(const RoutedTestbed&) = delete;

  Simulator& sim() override { return sim_; }
  Host& client_host() { return *client_host_; }
  Host& gateway_host() { return *gw_host_; }
  Host& server_host() { return *server_host_; }
  IpStack& client_ip() { return *client_ip_; }
  IpStack& gateway_ip() { return *gw_ip_; }
  IpStack& server_ip() { return *server_ip_; }
  TcpStack& client_tcp() { return *client_tcp_; }
  TcpStack& server_tcp() { return *server_tcp_; }
  EtherSegment& left_segment() { return *left_; }
  EtherSegment& right_segment() { return *right_; }

  // WorkloadHosts: one client, one server.
  int clients() const override { return 1; }
  int servers() const override { return 1; }
  Host& client_host(int) override { return *client_host_; }
  Host& server_host(int) override { return *server_host_; }
  TcpStack& client_tcp(int) override { return *client_tcp_; }
  TcpStack& server_tcp(int) override { return *server_tcp_; }
  Ipv4Addr server_addr(int) const override { return kRoutedServerAddr; }
  // Clears all three hosts' span trackers (start of a measured region).
  void ResetTrackers() override;

 private:
  Simulator sim_;  // first member: destroyed last, after all schedulers
  std::unique_ptr<Host> client_host_;
  std::unique_ptr<Host> gw_host_;
  std::unique_ptr<Host> server_host_;
  std::unique_ptr<IpStack> client_ip_;
  std::unique_ptr<IpStack> gw_ip_;
  std::unique_ptr<IpStack> server_ip_;
  std::unique_ptr<EtherSegment> left_;
  std::unique_ptr<EtherSegment> right_;
  std::unique_ptr<EtherNetIf> client_if_;
  std::unique_ptr<EtherNetIf> gw_left_if_;
  std::unique_ptr<EtherNetIf> gw_right_if_;
  std::unique_ptr<EtherNetIf> server_if_;
  std::unique_ptr<TcpStack> client_tcp_;
  std::unique_ptr<TcpStack> server_tcp_;
};

}  // namespace tcplat

#endif  // SRC_CORE_ROUTED_TESTBED_H_
