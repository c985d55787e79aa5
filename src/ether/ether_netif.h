// The Ethernet baseline: a 10 Mbit/s shared segment with LANCE-style
// drivers, used for the paper's Table 1 ATM-vs-Ethernet comparison.
//
// The LANCE on the DECstation 5000/200 stages every packet through a
// dedicated buffer memory, which is why the paper finds ~919 us of the
// 4-byte round trip attributable to "the network driver, adapter, and
// physical link". The calibrated ether_tx/ether_rx costs model that
// staging; frames carry a real CRC-32 checked (in adapter hardware) on
// receive.
//
// Address resolution is real ARP (src/ether/arp.h): unknown destinations
// trigger a broadcast who-has with the outbound packet queued until the
// unicast reply arrives; AddRoute pre-seeds the cache the way the paper's
// fixed two-host testbed would have had its entries warm.
//
// Frames are delivered to every station on the segment; each station
// filters by destination MAC (or broadcast). Collisions are not modeled —
// the measured workload is a strict request/response alternation on a
// private segment.

#ifndef SRC_ETHER_ETHER_NETIF_H_
#define SRC_ETHER_ETHER_NETIF_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/ether/arp.h"
#include "src/ip/ip_stack.h"
#include "src/ip/netif.h"
#include "src/link/wire.h"
#include "src/net/wire.h"
#include "src/os/host.h"

namespace tcplat {

inline constexpr double kEtherBitsPerSecond = 10e6;

class EtherNetIf;

// One shared 10 Mbit/s medium: every station contends for its one Wire.
class EtherSegment {
 public:
  EtherSegment(Simulator* sim, SimDuration propagation);

  void Attach(EtherNetIf* station);

  // Serializes a frame onto the bus (preamble + IFG included as gap bytes)
  // and delivers it to every attached station.
  SimTime Transmit(SimTime earliest, std::vector<uint8_t> frame);

  void set_corrupt_hook(CorruptFn hook) { bus_.set_corrupt_hook(std::move(hook)); }
  void set_drop_hook(DropFn hook) { bus_.set_drop_hook(std::move(hook)); }
  void set_impairment(LinkImpairment* impairment) { bus_.set_impairment(impairment); }
  uint64_t frames_sent() const { return bus_.units_sent(); }
  uint64_t frames_dropped() const { return bus_.units_dropped(); }

 private:
  Wire bus_;
  std::vector<EtherNetIf*> stations_;
};

struct EtherNetIfStats {
  uint64_t frames_sent = 0;
  uint64_t frames_received = 0;
  uint64_t crc_errors = 0;
  uint64_t not_for_us = 0;
  uint64_t too_short = 0;
};

class EtherNetIf : public NetIf {
 public:
  EtherNetIf(IpStack* ip, Host* host, EtherSegment* segment, MacAddr mac);

  // Pre-seeds the ARP cache (static binding; never times out).
  void AddRoute(Ipv4Addr addr, MacAddr mac);

  std::string name() const override { return "ln0"; }
  size_t mtu() const override { return kEtherMtu; }
  void Output(MbufPtr packet, Ipv4Addr next_hop) override;

  const MacAddr& mac() const { return mac_; }
  const EtherNetIfStats& stats() const { return stats_; }
  const ArpStats& arp_stats() const { return arp_stats_; }
  Host& host() { return *host_; }

 private:
  friend class EtherSegment;
  void OnFrameArrival(SimTime arrival, std::vector<uint8_t> frame);
  void RxInterrupt(SimTime arrival, std::vector<uint8_t> frame);
  void HandleArp(std::span<const uint8_t> payload);

  // Builds header + payload (padded) + FCS and puts it on the bus,
  // charging driver costs. Returns the frame length.
  size_t TransmitFrame(uint16_t ethertype, std::span<const uint8_t> payload,
                       const MacAddr& dst);
  void SendArpRequest(Ipv4Addr target);

  IpStack* ip_;
  Host* host_;
  EtherSegment* segment_;
  MacAddr mac_;
  ArpCache arp_;
  ArpStats arp_stats_;
  // How long an unanswered resolution holds its queued packets.
  static constexpr SimDuration kArpTimeout = SimDuration::FromSeconds(1);
  EtherNetIfStats stats_;
};

}  // namespace tcplat

#endif  // SRC_ETHER_ETHER_NETIF_H_
