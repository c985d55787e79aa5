#include "src/ether/ether_netif.h"

#include <algorithm>
#include <cstring>

#include "src/base/check.h"
#include "src/net/byte_order.h"
#include "src/net/crc.h"

namespace tcplat {

EtherSegment::EtherSegment(Simulator* sim, SimDuration propagation)
    : bus_(sim, kEtherBitsPerSecond, propagation, kEtherPreambleBytes + kEtherIfgBytes) {}

void EtherSegment::Attach(EtherNetIf* station) {
  TCPLAT_CHECK(station != nullptr);
  stations_.push_back(station);
}

SimTime EtherSegment::Transmit(SimTime earliest, std::vector<uint8_t> frame) {
  auto stations = stations_;  // stable copy for the delivery lambda
  return bus_.Transmit(earliest, std::move(frame),
                       [stations](SimTime arrival, std::vector<uint8_t> data) {
                         for (size_t i = 0; i < stations.size(); ++i) {
                           if (i + 1 == stations.size()) {
                             stations[i]->OnFrameArrival(arrival, std::move(data));
                           } else {
                             stations[i]->OnFrameArrival(arrival, data);
                           }
                         }
                       });
}

EtherNetIf::EtherNetIf(IpStack* ip, Host* host, EtherSegment* segment, MacAddr mac)
    : ip_(ip), host_(host), segment_(segment), mac_(mac) {
  TCPLAT_CHECK(ip != nullptr);
  TCPLAT_CHECK(host != nullptr);
  TCPLAT_CHECK(segment != nullptr);
  ip_->AttachNetIf(this);
  segment_->Attach(this);

  // First interface wins: multi-homed hosts (gateways) expose their first
  // NIC's counters under the plain names.
  MetricsRegistry& m = host_->metrics();
  if (!m.contains("ether.frames_sent")) {
    m.AddCounterView("ether.frames_sent", &stats_.frames_sent);
    m.AddCounterView("ether.frames_received", &stats_.frames_received);
    m.AddCounterView("ether.crc_errors", &stats_.crc_errors);
    m.AddCounterView("ether.not_for_us", &stats_.not_for_us);
    m.AddCounterView("ether.too_short", &stats_.too_short);
  }
}

void EtherNetIf::AddRoute(Ipv4Addr addr, MacAddr mac) { arp_.Insert(addr, mac); }

size_t EtherNetIf::TransmitFrame(uint16_t ethertype, std::span<const uint8_t> payload,
                                 const MacAddr& dst) {
  Cpu& cpu = host_->cpu();
  const size_t payload_len = std::max(payload.size(), kEtherMinPayload);
  std::vector<uint8_t> frame(kEtherHeaderBytes + payload_len + kEtherCrcBytes, 0);
  EtherHeader eh;
  eh.dst = dst;
  eh.src = mac_;
  eh.ethertype = ethertype;
  eh.Serialize(frame);
  std::memcpy(frame.data() + kEtherHeaderBytes, payload.data(), payload.size());
  const uint32_t fcs = Crc32({frame.data(), kEtherHeaderBytes + payload_len});
  StoreBe32(frame.data() + kEtherHeaderBytes + payload_len, fcs);

  const size_t frame_len = frame.size();
  // The LANCE copy through its buffer memory is the dominant driver cost.
  cpu.Charge(cpu.profile().ether_tx, frame_len);
  segment_->Transmit(cpu.cursor(), std::move(frame));
  ++stats_.frames_sent;
  host_->TracePacket(TraceLayer::kEther, TraceEventKind::kFrameTx, ethertype, stats_.frames_sent,
                     frame_len);
  return frame_len;
}

void EtherNetIf::SendArpRequest(Ipv4Addr target) {
  ArpPacket req;
  req.op = ArpOp::kRequest;
  req.sender_mac = mac_;
  req.sender_ip = ip_->addr();
  req.target_mac = MacAddr{};
  req.target_ip = target;
  ++arp_stats_.requests_sent;
  TransmitFrame(kEtherTypeArp, req.Serialize(), kBroadcastMac);

  // If nothing answers, release the queued packets.
  host_->After(kArpTimeout, [this, target] {
    const auto dropped = arp_.TakePending(target);
    arp_stats_.timeouts += dropped.size();
  });
}

void EtherNetIf::Output(MbufPtr packet, Ipv4Addr next_hop) {
  const size_t len = ChainLength(packet.get());
  TCPLAT_CHECK_LE(len, mtu()) << "packet exceeds Ethernet MTU";

  ScopedSpan mute(&host_->tracker(), SpanId::kMuted);
  const SimTime t0 = host_->cpu().cursor();

  const auto resolved = arp_.Lookup(next_hop);
  if (!resolved.has_value()) {
    // Unresolved: park the packet and ask the segment who has it. Only the
    // first packet of a burst sends a request.
    const bool first = !arp_.HasPending(next_hop);
    std::vector<uint8_t> flat = ChainToVector(packet.get());
    host_->pool().FreeChain(std::move(packet));
    if (!arp_.Enqueue(next_hop, std::move(flat))) {
      ++arp_stats_.queue_drops;
    }
    if (first) {
      SendArpRequest(next_hop);
    }
    host_->tracker().AddInterval(SpanId::kTxDriver, host_->cpu().cursor() - t0);
    return;
  }

  std::vector<uint8_t> flat = ChainToVector(packet.get());
  host_->pool().FreeChain(std::move(packet));
  TransmitFrame(kEtherTypeIpv4, flat, *resolved);
  host_->tracker().AddInterval(SpanId::kTxDriver, host_->cpu().cursor() - t0);
}

void EtherNetIf::OnFrameArrival(SimTime arrival, std::vector<uint8_t> frame) {
  if (frame.size() < kEtherHeaderBytes + kEtherMinPayload + kEtherCrcBytes) {
    ++stats_.too_short;
    host_->TracePacket(TraceLayer::kEther, TraceEventKind::kDrop, 0, 0, frame.size());
    return;
  }
  auto hdr = EtherHeader::Parse(frame);
  TCPLAT_CHECK(hdr.has_value());
  if (hdr->src == mac_) {
    return;  // our own transmission echoing on the bus
  }
  if (hdr->dst != mac_ && hdr->dst != kBroadcastMac) {
    ++stats_.not_for_us;
    host_->TracePacket(TraceLayer::kEther, TraceEventKind::kDrop, hdr->ethertype, 0,
                       frame.size());
    return;
  }
  // The adapter verifies the FCS in hardware before interrupting.
  const size_t fcs_off = frame.size() - kEtherCrcBytes;
  const uint32_t want = LoadBe32(frame.data() + fcs_off);
  if (Crc32({frame.data(), fcs_off}) != want) {
    ++stats_.crc_errors;
    host_->TracePacket(TraceLayer::kEther, TraceEventKind::kDrop, hdr->ethertype, 0,
                       frame.size());
    return;
  }
  host_->RunAsInterrupt([this, arrival, &frame] { RxInterrupt(arrival, std::move(frame)); });
}

void EtherNetIf::HandleArp(std::span<const uint8_t> payload) {
  Cpu& cpu = host_->cpu();
  cpu.Charge(cpu.profile().arp_proc);
  auto arp = ArpPacket::Parse(payload);
  if (!arp.has_value()) {
    return;
  }
  switch (arp->op) {
    case ArpOp::kRequest: {
      ++arp_stats_.requests_received;
      if (arp->target_ip != ip_->addr()) {
        return;  // someone else's question
      }
      // Learn the asker and answer directly.
      arp_.Insert(arp->sender_ip, arp->sender_mac);
      ArpPacket reply;
      reply.op = ArpOp::kReply;
      reply.sender_mac = mac_;
      reply.sender_ip = ip_->addr();
      reply.target_mac = arp->sender_mac;
      reply.target_ip = arp->sender_ip;
      ++arp_stats_.replies_sent;
      TransmitFrame(kEtherTypeArp, reply.Serialize(), arp->sender_mac);
      return;
    }
    case ArpOp::kReply: {
      ++arp_stats_.replies_received;
      arp_.Insert(arp->sender_ip, arp->sender_mac);
      ++arp_stats_.resolutions;
      // Release everything that was waiting on this resolution.
      for (auto& flat : arp_.TakePending(arp->sender_ip)) {
        TransmitFrame(kEtherTypeIpv4, flat, arp->sender_mac);
      }
      return;
    }
  }
}

void EtherNetIf::RxInterrupt(SimTime arrival, std::vector<uint8_t> frame) {
  Cpu& cpu = host_->cpu();
  ScopedSpan mute(&host_->tracker(), SpanId::kMuted);
  cpu.Charge(cpu.profile().ether_rx, frame.size());
  ++stats_.frames_received;
  host_->TracePacket(TraceLayer::kEther, TraceEventKind::kFrameRx, 0, stats_.frames_received,
                     frame.size());

  auto hdr = EtherHeader::Parse(frame);
  const std::span<const uint8_t> payload(frame.data() + kEtherHeaderBytes,
                                         frame.size() - kEtherHeaderBytes - kEtherCrcBytes);
  if (hdr->ethertype == kEtherTypeArp) {
    HandleArp(payload);
    return;
  }
  if (hdr->ethertype != kEtherTypeIpv4) {
    return;
  }

  // IP header into a small leading mbuf, payload into small mbufs or
  // clusters (same policy as the ATM driver). Ethernet padding is trimmed
  // later by ip_input using the IP total length.
  if (payload.size() < kIpv4HeaderBytes) {
    ++stats_.too_short;
    host_->TracePacket(TraceLayer::kEther, TraceEventKind::kDrop, hdr->ethertype, 0,
                       frame.size());
    return;
  }
  MbufPtr head = host_->pool().GetHeader();
  std::memcpy(head->Append(kIpv4HeaderBytes).data(), payload.data(), kIpv4HeaderBytes);
  const bool use_clusters = payload.size() - kIpv4HeaderBytes > kClusterThreshold;
  size_t off = kIpv4HeaderBytes;
  while (off < payload.size()) {
    MbufPtr m = use_clusters ? host_->pool().GetCluster() : host_->pool().Get();
    const size_t chunk = std::min(m->capacity(), payload.size() - off);
    std::memcpy(m->Append(chunk).data(), payload.data() + off, chunk);
    off += chunk;
    ChainAppend(&head, std::move(m));
  }
  ip_->InputFromDriver(std::move(head));
  host_->tracker().AddInterval(SpanId::kRxDriver, cpu.cursor() - arrival);
}

}  // namespace tcplat
