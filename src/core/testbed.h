// The two-workstation testbed of §1.1: a pair of DECstation 5000/200s
// connected either by FORE TCA-100 adapters over a switchless private ATM
// fiber, or by a private 10 Mbit/s Ethernet segment (the Table 1 baseline).
// The switched case is the 1 x 1 StarTestbed (src/workload/star_testbed.h).

#ifndef SRC_CORE_TESTBED_H_
#define SRC_CORE_TESTBED_H_

#include <memory>
#include <optional>

#include "src/atm/atm_netif.h"
#include "src/atm/tca100.h"
#include "src/ether/ether_netif.h"
#include "src/ip/ip_stack.h"
#include "src/link/wire.h"
#include "src/os/host.h"
#include "src/sim/simulator.h"
#include "src/tcp/tcp_stack.h"
#include "src/udp/udp.h"

namespace tcplat {

enum class NetworkKind { kAtm, kEthernet };

// Settings every testbed shares, which no experiment varies.
// Propagation over a lab fiber or segment (a few tens of meters).
inline constexpr SimDuration kLabPropagation = SimDuration::FromNanos(300);
// "our machines are only running the standard ULTRIX daemons and our test
// program" — inert PCBs ahead of the benchmark connection in the list.
inline constexpr size_t kBackgroundPcbs = 13;

struct TestbedConfig {
  NetworkKind network = NetworkKind::kAtm;
  TcpConfig tcp;  // applied to both stacks
  CostProfile profile = CostProfile::Decstation5000_200();
};

inline constexpr Ipv4Addr kClientAddr = MakeAddr(10, 0, 0, 1);
inline constexpr Ipv4Addr kServerAddr = MakeAddr(10, 0, 0, 2);
inline constexpr uint16_t kEchoPort = 5001;

// The hosts a workload runs on (RunWorkload, src/core/rpc_benchmark.h): K
// client and M server hosts on one simulator. Testbed is the paper's 1 x 1
// case; StarTestbed (src/workload/star_testbed.h) is the K x M star;
// RoutedTestbed (src/core/routed_testbed.h) puts a gateway between one
// client and one server.
class WorkloadHosts {
 public:
  virtual Simulator& sim() = 0;
  virtual int clients() const = 0;
  virtual int servers() const = 0;
  virtual Host& client_host(int i) = 0;
  virtual Host& server_host(int j) = 0;
  virtual TcpStack& client_tcp(int i) = 0;
  virtual TcpStack& server_tcp(int j) = 0;
  virtual Ipv4Addr server_addr(int j) const = 0;
  // Clears every host's span tracker (start of a measured region).
  virtual void ResetTrackers() = 0;

 protected:
  ~WorkloadHosts() = default;
};

class Testbed final : public WorkloadHosts {
 public:
  explicit Testbed(TestbedConfig config);
  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  const TestbedConfig& config() const { return config_; }
  Simulator& sim() override { return sim_; }
  Host& client_host() { return *client_host_; }
  Host& server_host() { return *server_host_; }
  TcpStack& client_tcp() { return *client_tcp_; }
  TcpStack& server_tcp() { return *server_tcp_; }
  UdpStack& client_udp() { return *client_udp_; }
  UdpStack& server_udp() { return *server_udp_; }
  IpStack& client_ip() { return *client_ip_; }
  IpStack& server_ip() { return *server_ip_; }

  // Device access (null for hosts on the other network kind).
  AtmNetIf* client_atm() { return client_atm_if_.get(); }
  AtmNetIf* server_atm() { return server_atm_if_.get(); }
  Tca100* client_adapter() { return client_adapter_.get(); }
  Tca100* server_adapter() { return server_adapter_.get(); }
  EtherNetIf* client_ether() { return client_ether_if_.get(); }
  EtherNetIf* server_ether() { return server_ether_if_.get(); }
  DuplexLink* atm_link() { return atm_link_.get(); }
  EtherSegment* ether_segment() { return ether_segment_.get(); }

  // Attaches `tracer` to both hosts so packet-lifecycle and span events
  // are recorded. Pass nullptr to detach.
  // The tracer is owned by the caller and must outlive the testbed's use.
  void AttachTracer(Tracer* tracer);

  // WorkloadHosts: one client, one server.
  int clients() const override { return 1; }
  int servers() const override { return 1; }
  Host& client_host(int) override { return *client_host_; }
  Host& server_host(int) override { return *server_host_; }
  TcpStack& client_tcp(int) override { return *client_tcp_; }
  TcpStack& server_tcp(int) override { return *server_tcp_; }
  Ipv4Addr server_addr(int) const override { return kServerAddr; }
  // Clears both hosts' span trackers (start of a measured region).
  void ResetTrackers() override;

 private:
  TestbedConfig config_;
  Simulator sim_;  // first member: destroyed last, after all schedulers
  std::unique_ptr<Host> client_host_;
  std::unique_ptr<Host> server_host_;
  std::unique_ptr<IpStack> client_ip_;
  std::unique_ptr<IpStack> server_ip_;

  std::unique_ptr<DuplexLink> atm_link_;
  std::unique_ptr<Tca100> client_adapter_;
  std::unique_ptr<Tca100> server_adapter_;
  std::unique_ptr<AtmNetIf> client_atm_if_;
  std::unique_ptr<AtmNetIf> server_atm_if_;

  std::unique_ptr<EtherSegment> ether_segment_;
  std::unique_ptr<EtherNetIf> client_ether_if_;
  std::unique_ptr<EtherNetIf> server_ether_if_;

  std::unique_ptr<TcpStack> client_tcp_;
  std::unique_ptr<TcpStack> server_tcp_;
  std::unique_ptr<UdpStack> client_udp_;
  std::unique_ptr<UdpStack> server_udp_;
};

}  // namespace tcplat

#endif  // SRC_CORE_TESTBED_H_
