// An N-host star: K client and M server workstations hanging off one ATM
// cell switch (or one shared Ethernet segment). This generalizes the
// two-host Testbed of src/core/ to the many-flow regime the related work
// studies (many TCP connections multiplexed over one ATM fabric).
//
// On ATM, every ordered host pair gets its own virtual circuit, so cells
// from different senders converging on one receiver's fiber stay separable
// (AAL3/4 reassembly state is per VC). Each host owns a private fiber to
// the switch; contention shows up in the switch's per-output wires, exactly
// as in an output-buffered first-generation switch.
//
// With K=1, M=1 the star degenerates to the switched two-host testbed and
// reproduces its round-trip times byte-for-byte (workload_test pins this).

#ifndef SRC_WORKLOAD_STAR_TESTBED_H_
#define SRC_WORKLOAD_STAR_TESTBED_H_

#include <memory>
#include <vector>

#include "src/atm/atm_netif.h"
#include "src/atm/atm_switch.h"
#include "src/atm/tca100.h"
#include "src/core/testbed.h"
#include "src/ether/ether_netif.h"
#include "src/ip/ip_stack.h"
#include "src/link/wire.h"
#include "src/os/host.h"
#include "src/sim/simulator.h"
#include "src/tcp/tcp_stack.h"

namespace tcplat {

struct StarTestbedConfig {
  NetworkKind network = NetworkKind::kAtm;
  int clients = 1;
  int servers = 1;
  SimDuration switch_latency = SimDuration::FromMicros(10);
  TcpConfig tcp;  // applied to every stack
  size_t background_pcbs = 13;
  uint64_t seed = 1;
  SimDuration propagation = SimDuration::FromNanos(300);
  // Finite per-VC output buffering at the switch (buffer_cells == 0 keeps
  // the seed's infinite buffers). Only meaningful on ATM.
  VcBufferConfig vc_buffers;
  // Line rate of the switch output ports feeding the *server* hosts, in
  // bits/second (0 = full TAXI rate). A slower server trunk turns the
  // switch's per-VC output buffers into the shared bottleneck the
  // congestion cells study, instead of the hosts' protocol CPU.
  double server_trunk_bps = 0;
  CostProfile profile = CostProfile::Decstation5000_200();
};

// Client i is 10.0.1.(i+1), server j is 10.0.2.(j+1).
inline constexpr Ipv4Addr StarClientAddr(int i) {
  return MakeAddr(10, 0, 1, static_cast<uint8_t>(i + 1));
}
inline constexpr Ipv4Addr StarServerAddr(int j) {
  return MakeAddr(10, 0, 2, static_cast<uint8_t>(j + 1));
}

class StarTestbed final : public WorkloadHosts {
 public:
  explicit StarTestbed(StarTestbedConfig config);
  StarTestbed(const StarTestbed&) = delete;
  StarTestbed& operator=(const StarTestbed&) = delete;

  const StarTestbedConfig& config() const { return config_; }
  Simulator& sim() override { return sim_; }

  SimTime EndTime() const { return sim_.Now(); }
  uint64_t EventsDispatched() const { return sim_.events_dispatched(); }

  int clients() const override { return config_.clients; }
  int servers() const override { return config_.servers; }
  int host_count() const { return config_.clients + config_.servers; }

  // Global host index: clients first (0..K-1), then servers (K..K+M-1).
  Host& host(int idx) { return *hosts_[static_cast<size_t>(idx)]; }
  TcpStack& tcp(int idx) { return *tcps_[static_cast<size_t>(idx)]; }
  Host& client_host(int i) override { return host(i); }
  Host& server_host(int j) override { return host(config_.clients + j); }
  TcpStack& client_tcp(int i) override { return tcp(i); }
  TcpStack& server_tcp(int j) override { return tcp(config_.clients + j); }
  Ipv4Addr server_addr(int j) const override { return StarServerAddr(j); }

  // The ATM virtual circuit from global host `src` to global host `dst`:
  // VCI 64 + src*N + dst, one per ordered pair. The block below 64 stays
  // clear of the two-host testbed's 42/43 and any well-known VCs.
  uint16_t PairVci(int src, int dst) const {
    return static_cast<uint16_t>(64 + src * host_count() + dst);
  }

  AtmSwitch* atm_switch() { return atm_switch_.get(); }
  EtherSegment* ether_segment() { return ether_segment_.get(); }
  AtmNetIf* atm_netif(int idx) {
    return atm_ifs_.empty() ? nullptr : atm_ifs_[static_cast<size_t>(idx)].get();
  }

  // Attaches `tracer` to every host (and the switch, when present). The
  // tracer is owned by the caller and must outlive the testbed's use.
  // Participant ids are registered hosts 0..N-1, then "switch".
  void AttachTracer(Tracer* tracer);

  // Clears every host's span tracker (start of a measured region).
  void ResetTrackers() override;

 private:
  StarTestbedConfig config_;
  // Declared before every component that schedules on it, so it outlives them.
  Simulator sim_;
  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<std::unique_ptr<IpStack>> ips_;

  std::vector<std::unique_ptr<Wire>> fibers_;  // host idx -> its tx fiber
  std::unique_ptr<AtmSwitch> atm_switch_;
  std::vector<std::unique_ptr<Tca100>> adapters_;
  std::vector<std::unique_ptr<AtmNetIf>> atm_ifs_;

  std::unique_ptr<EtherSegment> ether_segment_;
  std::vector<std::unique_ptr<EtherNetIf>> ether_ifs_;

  std::vector<std::unique_ptr<TcpStack>> tcps_;
};

}  // namespace tcplat

#endif  // SRC_WORKLOAD_STAR_TESTBED_H_
