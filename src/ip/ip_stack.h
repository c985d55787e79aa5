// The IP layer: ip_output, ipintrq + software interrupt, ip_input,
// fragmentation and reassembly.
//
// Receive-side structure matches the BSD code the paper measured: the
// network driver enqueues packets on ipintrq and raises a software
// interrupt; ipintr later drains the queue at softint level. The time each
// packet spends between those two points is the paper's "IPQ" row.

#ifndef SRC_IP_IP_STACK_H_
#define SRC_IP_IP_STACK_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "src/buf/mbuf.h"
#include "src/ip/netif.h"
#include "src/net/wire.h"
#include "src/os/host.h"

namespace tcplat {

// Upper-layer protocol (TCP here; tests register toy protocols too).
class IpProtocolHandler {
 public:
  virtual ~IpProtocolHandler() = default;
  // `packet` is the full IP packet (header still present; hdr already
  // parsed and validated). Called at softint level.
  virtual void IpInput(MbufPtr packet, const Ipv4Header& hdr) = 0;
};

struct IpStats {
  uint64_t packets_sent = 0;
  uint64_t packets_received = 0;
  uint64_t fragments_sent = 0;
  uint64_t fragments_received = 0;
  uint64_t reassembled = 0;
  uint64_t header_checksum_errors = 0;
  uint64_t no_protocol = 0;
  uint64_t bad_length = 0;
  uint64_t not_for_us = 0;
  uint64_t forwarded = 0;
  uint64_t no_route = 0;
  uint64_t ttl_expired = 0;
};

class IpStack {
 public:
  IpStack(Host* host, Ipv4Addr addr);

  Host& host() { return *host_; }
  Ipv4Addr addr() const { return addr_; }

  // Attaches an interface. Single-homed hosts attach one and need no
  // routes; gateways attach several and add routes.
  void AttachNetIf(NetIf* nif);
  // The first attached interface (the common single-homed case).
  NetIf* netif() { return interfaces_.empty() ? nullptr : interfaces_.front(); }
  size_t interface_count() const { return interfaces_.size(); }

  // Adds a route: destinations matching network/mask leave through `nif`
  // toward `next_hop` (0 = deliver directly to the destination address).
  // More-specific (longer-mask) routes win. Without any matching route a
  // single-homed host falls back to direct delivery on its interface.
  void AddRoute(Ipv4Addr network, Ipv4Addr mask, NetIf* nif, Ipv4Addr next_hop = 0);

  // Enables packet forwarding (ipforwarding=1): packets addressed elsewhere
  // are re-routed instead of dropped, with TTL decrement.
  void set_forwarding(bool enabled) { forwarding_ = enabled; }

  // Installed by the ICMP stack: called with (type, code, original packet
  // bytes) when the forwarding path drops a packet (TTL expiry, no route).
  void set_icmp_error_sender(
      std::function<void(uint8_t, uint8_t, const std::vector<uint8_t>&)> sender) {
    icmp_error_sender_ = std::move(sender);
  }

  // §4.2.1 error source (3): corruption while a packet sits in the
  // gateway's memory — after the inbound link's CRC, before the outbound
  // link recomputes its own. Applied to the full IP packet bytes.
  void set_forward_corrupt_hook(std::function<void(std::vector<uint8_t>&)> hook) {
    forward_corrupt_ = std::move(hook);
  }

  void RegisterProtocol(uint8_t proto, IpProtocolHandler* handler);

  // ip_output: prepends and fills an IP header (using leading space in the
  // first mbuf), fragments if needed, and hands the packet(s) to the
  // interface. Takes ownership of `payload` (transport header + data).
  void Output(MbufPtr payload, Ipv4Addr src, Ipv4Addr dst, uint8_t proto, uint8_t ttl = 64);

  // Driver up-call: enqueue a received IP packet and schedule the softint.
  void InputFromDriver(MbufPtr packet);

  const IpStats& stats() const { return stats_; }

  // Reassembly state currently held (diagnostic).
  size_t pending_reassemblies() const { return reassembly_.size(); }

 private:
  struct Queued {
    MbufPtr packet;
    SimTime enqueued_at;
  };
  struct ReassemblyKey {
    Ipv4Addr src;
    Ipv4Addr dst;
    uint16_t id;
    uint8_t proto;
    auto operator<=>(const ReassemblyKey&) const = default;
  };
  struct Fragment {
    size_t offset_bytes;
    std::vector<uint8_t> data;
    bool last;
  };

  struct Route {
    Ipv4Addr network;
    Ipv4Addr mask;
    NetIf* nif;
    Ipv4Addr next_hop;
  };

  void IpIntr();  // netisr handler
  void HandlePacket(MbufPtr packet);
  void SendOnePacket(MbufPtr packet, Ipv4Header hdr, Ipv4Addr dst);
  // Returns the outgoing interface and fills *next_hop, or null.
  NetIf* LookupRoute(Ipv4Addr dst, Ipv4Addr* next_hop);
  void ForwardPacket(MbufPtr packet, const Ipv4Header& hdr);
  // Returns a fully reassembled packet chain when `frag` completes a
  // datagram, else null. Held fragments stay sorted and disjoint; a
  // datagram that would exceed 65,535 bytes is discarded with its state.
  MbufPtr AddFragment(const Ipv4Header& hdr, MbufPtr packet);

  Host* host_;
  Ipv4Addr addr_;
  // Registry-owned distribution of ipintrq wait times (the IPQ row).
  Histogram* ipq_wait_hist_ = nullptr;
  std::vector<NetIf*> interfaces_;
  std::vector<Route> routes_;
  bool forwarding_ = false;
  std::function<void(std::vector<uint8_t>&)> forward_corrupt_;
  std::function<void(uint8_t, uint8_t, const std::vector<uint8_t>&)> icmp_error_sender_;
  std::map<uint8_t, IpProtocolHandler*> protocols_;
  std::deque<Queued> ipintrq_;
  uint16_t next_id_ = 1;
  IpStats stats_;
  std::map<ReassemblyKey, std::vector<Fragment>> reassembly_;
};

}  // namespace tcplat

#endif  // SRC_IP_IP_STACK_H_
