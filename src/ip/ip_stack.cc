#include "src/ip/ip_stack.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <iterator>

#include "src/base/check.h"

namespace tcplat {
namespace {

// The largest datagram total_length can describe.
constexpr size_t kMaxDatagramBytes = 65535;

// Trace flow id for IP-layer packet events: (src<<32)|dst. Header ids are
// per-stack counters, so (this flow, hdr.id) is what identifies one datagram
// network-wide — it lets trace consumers match a kPktTx to the kPktRx on the
// destination host.
uint64_t IpTraceFlow(const Ipv4Header& hdr) {
  return (static_cast<uint64_t>(hdr.src) << 32) | hdr.dst;
}

}  // namespace

IpStack::IpStack(Host* host, Ipv4Addr addr) : host_(host), addr_(addr) {
  TCPLAT_CHECK(host != nullptr);
  host_->RegisterNetisr([this] { IpIntr(); });

  MetricsRegistry& m = host_->metrics();
  if (!m.contains("ip.packets_sent")) {
    m.AddCounterView("ip.packets_sent", &stats_.packets_sent);
    m.AddCounterView("ip.packets_received", &stats_.packets_received);
    m.AddCounterView("ip.fragments_sent", &stats_.fragments_sent);
    m.AddCounterView("ip.fragments_received", &stats_.fragments_received);
    m.AddCounterView("ip.reassembled", &stats_.reassembled);
    m.AddCounterView("ip.header_checksum_errors", &stats_.header_checksum_errors);
    m.AddCounterView("ip.no_protocol", &stats_.no_protocol);
    m.AddCounterView("ip.bad_length", &stats_.bad_length);
    m.AddCounterView("ip.not_for_us", &stats_.not_for_us);
    m.AddCounterView("ip.forwarded", &stats_.forwarded);
    m.AddCounterView("ip.no_route", &stats_.no_route);
    m.AddCounterView("ip.ttl_expired", &stats_.ttl_expired);
  }
  ipq_wait_hist_ = &m.histogram("ip.ipq_wait_ns");
}

void IpStack::AttachNetIf(NetIf* nif) {
  TCPLAT_CHECK(nif != nullptr);
  interfaces_.push_back(nif);
}

void IpStack::AddRoute(Ipv4Addr network, Ipv4Addr mask, NetIf* nif, Ipv4Addr next_hop) {
  TCPLAT_CHECK(nif != nullptr);
  routes_.push_back(Route{network & mask, mask, nif, next_hop});
}

NetIf* IpStack::LookupRoute(Ipv4Addr dst, Ipv4Addr* next_hop) {
  TCPLAT_CHECK(next_hop != nullptr);
  const Route* best = nullptr;
  for (const Route& r : routes_) {
    if ((dst & r.mask) == r.network && (best == nullptr || r.mask > best->mask)) {
      best = &r;
    }
  }
  if (best != nullptr) {
    *next_hop = best->next_hop != 0 ? best->next_hop : dst;
    return best->nif;
  }
  if (interfaces_.size() == 1) {
    // Single-homed default: everything is directly reachable on the wire.
    *next_hop = dst;
    return interfaces_.front();
  }
  return nullptr;
}

void IpStack::RegisterProtocol(uint8_t proto, IpProtocolHandler* handler) {
  TCPLAT_CHECK(handler != nullptr);
  TCPLAT_CHECK(protocols_.find(proto) == protocols_.end()) << "protocol already registered";
  protocols_[proto] = handler;
}

void IpStack::SendOnePacket(MbufPtr packet, Ipv4Header hdr, Ipv4Addr dst) {
  hdr.FillChecksum();
  Mbuf* first = packet.get();
  if (first->leading_space() >= kIpv4HeaderBytes) {
    hdr.Serialize(first->Prepend(kIpv4HeaderBytes));
  } else {
    // No room in front: prepend a fresh header mbuf (M_PREPEND slow path).
    MbufPtr hm = host_->pool().GetHeader();
    hdr.Serialize(hm->Append(kIpv4HeaderBytes));
    hm->SetNext(std::move(packet));
    packet = std::move(hm);
  }
  ++stats_.packets_sent;
  host_->TracePacket(TraceLayer::kIp, TraceEventKind::kPktTx, IpTraceFlow(hdr), hdr.id,
                     hdr.total_length);
  Ipv4Addr next_hop = 0;
  NetIf* nif = LookupRoute(dst, &next_hop);
  if (nif == nullptr) {
    ++stats_.no_route;
    host_->TracePacket(TraceLayer::kIp, TraceEventKind::kDrop, IpTraceFlow(hdr), hdr.id,
                       hdr.total_length);
    host_->pool().FreeChain(std::move(packet));
    return;
  }
  nif->Output(std::move(packet), next_hop);
}

void IpStack::Output(MbufPtr payload, Ipv4Addr src, Ipv4Addr dst, uint8_t proto, uint8_t ttl) {
  TCPLAT_CHECK(!interfaces_.empty()) << "no interface attached";
  TCPLAT_CHECK(payload != nullptr);
  const size_t payload_len = ChainLength(payload.get());
  Ipv4Addr route_hop = 0;
  NetIf* route_nif = LookupRoute(dst, &route_hop);
  const size_t mtu = route_nif != nullptr ? route_nif->mtu() : interfaces_.front()->mtu();

  Ipv4Header hdr;
  hdr.id = next_id_++;
  hdr.ttl = ttl;
  hdr.protocol = proto;
  hdr.src = src;
  hdr.dst = dst;

  if (payload_len + kIpv4HeaderBytes <= mtu) {
    {
      ScopedSpan span(&host_->tracker(), SpanId::kTxIp);
      host_->cpu().Charge(host_->cpu().profile().ip_output);
      hdr.total_length = static_cast<uint16_t>(payload_len + kIpv4HeaderBytes);
    }
    SendOnePacket(std::move(payload), hdr, dst);
    return;
  }

  // Fragmentation path. The transports in this stack pick their MSS from the
  // interface MTU, so only tests and raw senders exercise this.
  const size_t max_frag_payload = ((mtu - kIpv4HeaderBytes) / 8) * 8;
  TCPLAT_CHECK_GT(max_frag_payload, 0u);
  std::vector<uint8_t> flat = ChainToVector(payload.get());
  host_->pool().FreeChain(std::move(payload));

  size_t off = 0;
  while (off < flat.size()) {
    const size_t take = std::min(max_frag_payload, flat.size() - off);
    MbufPtr frag;
    {
      ScopedSpan span(&host_->tracker(), SpanId::kTxIp);
      host_->cpu().Charge(host_->cpu().profile().ip_output);
      ++stats_.fragments_sent;
      // Copy the fragment's bytes into fresh buffers.
      MbufPtr head;
      size_t copied = 0;
      while (copied < take) {
        MbufPtr m = take - copied > kMbufDataBytes ? host_->pool().GetCluster()
                                                   : host_->pool().Get();
        const size_t chunk = std::min(take - copied, m->capacity());
        std::memcpy(m->Append(chunk).data(), flat.data() + off + copied, chunk);
        host_->cpu().Charge(host_->cpu().profile().kernel_bcopy, chunk);
        copied += chunk;
        ChainAppend(&head, std::move(m));
      }
      frag = std::move(head);
    }
    Ipv4Header fh = hdr;
    fh.total_length = static_cast<uint16_t>(take + kIpv4HeaderBytes);
    fh.frag_offset = static_cast<uint16_t>(off / 8);
    fh.more_fragments = off + take < flat.size();
    SendOnePacket(std::move(frag), fh, dst);
    off += take;
  }
}

void IpStack::InputFromDriver(MbufPtr packet) {
  TCPLAT_CHECK(packet != nullptr);
  host_->cpu().Charge(host_->cpu().profile().ipq_enqueue);
  ipintrq_.push_back(Queued{std::move(packet), host_->CurrentTime()});
  host_->TracePacket(TraceLayer::kIp, TraceEventKind::kEnqueue, 0, ipintrq_.size());
  host_->RaiseNetisr();
}

void IpStack::IpIntr() {
  while (!ipintrq_.empty()) {
    Queued q = std::move(ipintrq_.front());
    ipintrq_.pop_front();
    // The paper's "IPQ" row: time from driver enqueue + softint request to
    // the packet being pulled off the queue at softint level.
    const SimDuration wait = host_->CurrentTime() - q.enqueued_at;
    host_->tracker().AddInterval(SpanId::kRxIpq, wait);
    ipq_wait_hist_->Add(wait.nanos());
    host_->TracePacket(TraceLayer::kIp, TraceEventKind::kDequeue, 0, ipintrq_.size(), 0, wait);
    HandlePacket(std::move(q.packet));
  }
}

void IpStack::HandlePacket(MbufPtr packet) {
  Ipv4Header hdr;
  IpProtocolHandler* handler = nullptr;
  {
    ScopedSpan span(&host_->tracker(), SpanId::kRxIp);
    host_->cpu().Charge(host_->cpu().profile().ip_input);

    Mbuf* first = packet.get();
    TCPLAT_CHECK_GE(first->len(), kIpv4HeaderBytes) << "driver must deliver contiguous IP header";
    auto parsed = Ipv4Header::Parse(first->bytes());
    if (!parsed.has_value()) {
      ++stats_.bad_length;
      host_->TracePacket(TraceLayer::kIp, TraceEventKind::kDrop);
      host_->pool().FreeChain(std::move(packet));
      return;
    }
    hdr = *parsed;
    if (!Ipv4Header::VerifyChecksum(first->bytes())) {
      ++stats_.header_checksum_errors;
      host_->TracePacket(TraceLayer::kIp, TraceEventKind::kChecksumError, IpTraceFlow(hdr), hdr.id,
                         hdr.total_length);
      host_->pool().FreeChain(std::move(packet));
      return;
    }
    if (hdr.dst != addr_) {
      if (forwarding_) {
        ForwardPacket(std::move(packet), hdr);
      } else {
        ++stats_.not_for_us;
        host_->TracePacket(TraceLayer::kIp, TraceEventKind::kDrop, IpTraceFlow(hdr), hdr.id,
                           hdr.total_length);
        host_->pool().FreeChain(std::move(packet));
      }
      return;
    }
    const size_t chain_len = ChainLength(packet.get());
    if (chain_len < hdr.total_length) {
      ++stats_.bad_length;
      host_->TracePacket(TraceLayer::kIp, TraceEventKind::kDrop, IpTraceFlow(hdr), hdr.id,
                         hdr.total_length);
      host_->pool().FreeChain(std::move(packet));
      return;
    }
    if (chain_len > hdr.total_length) {
      // Link-layer padding (e.g. Ethernet minimum frame): trim the tail.
      size_t excess = chain_len - hdr.total_length;
      while (excess > 0) {
        Mbuf* m = packet.get();
        Mbuf* prev = nullptr;
        while (m->next() != nullptr) {
          prev = m;
          m = m->next();
        }
        const size_t cut = std::min(excess, m->len());
        m->TrimBack(cut);
        excess -= cut;
        if (m->len() == 0 && prev != nullptr) {
          host_->pool().FreeChain(prev->TakeNext());
        }
      }
    }

    if (hdr.more_fragments || hdr.frag_offset != 0) {
      ++stats_.fragments_received;
      packet = AddFragment(hdr, std::move(packet));
      if (packet == nullptr) {
        return;  // datagram not yet complete
      }
      ++stats_.reassembled;
      auto reparsed = Ipv4Header::Parse(packet->bytes());
      TCPLAT_CHECK(reparsed.has_value());
      hdr = *reparsed;
    }

    auto it = protocols_.find(hdr.protocol);
    if (it == protocols_.end()) {
      ++stats_.no_protocol;
      host_->TracePacket(TraceLayer::kIp, TraceEventKind::kDrop, IpTraceFlow(hdr), hdr.id,
                         hdr.total_length);
      host_->pool().FreeChain(std::move(packet));
      return;
    }
    handler = it->second;
    ++stats_.packets_received;
    host_->TracePacket(TraceLayer::kIp, TraceEventKind::kPktRx, IpTraceFlow(hdr), hdr.id,
                       hdr.total_length);
  }
  handler->IpInput(std::move(packet), hdr);
}

void IpStack::ForwardPacket(MbufPtr packet, const Ipv4Header& hdr) {
  MbufPool& pool = host_->pool();
  Cpu& cpu = host_->cpu();
  // ip_forward: re-route, decrement TTL, fix the header checksum, resend.
  // Cost-wise this is an input already charged plus an output's worth of
  // work on the gateway's CPU.
  cpu.Charge(cpu.profile().ip_output);

  if (hdr.ttl <= 1) {
    ++stats_.ttl_expired;
    const std::vector<uint8_t> original = ChainToVector(packet.get());
    pool.FreeChain(std::move(packet));
    if (icmp_error_sender_) {
      icmp_error_sender_(11, 0, original);  // ICMP time exceeded in transit
    }
    return;
  }
  Ipv4Addr next_hop = 0;
  NetIf* nif = LookupRoute(hdr.dst, &next_hop);
  if (nif == nullptr) {
    ++stats_.no_route;
    const std::vector<uint8_t> original = ChainToVector(packet.get());
    pool.FreeChain(std::move(packet));
    if (icmp_error_sender_) {
      icmp_error_sender_(3, 0, original);  // ICMP destination unreachable
    }
    return;
  }

  // The packet dwells in gateway memory between the two links: the §4.2.1
  // source-(3) corruption window. Rebuild the packet from (possibly
  // corrupted) flat bytes with the updated TTL.
  std::vector<uint8_t> flat = ChainToVector(packet.get());
  pool.FreeChain(std::move(packet));
  // Link padding from the inbound media must not be forwarded.
  flat.resize(hdr.total_length);
  if (forward_corrupt_) {
    forward_corrupt_(flat);
  }
  Ipv4Header out_hdr = *Ipv4Header::Parse(flat);
  out_hdr.ttl = static_cast<uint8_t>(out_hdr.ttl - 1);

  // Builds one outbound packet from header fields + payload bytes and
  // hands it to the egress interface.
  auto emit = [this, &pool, &cpu, nif, next_hop](Ipv4Header h,
                                                 std::span<const uint8_t> payload) {
    h.FillChecksum();
    MbufPtr head = pool.GetHeader();
    h.Serialize(head->Append(kIpv4HeaderBytes));
    size_t off = 0;
    const bool clusters = payload.size() > kClusterThreshold;
    while (off < payload.size()) {
      MbufPtr m = clusters ? pool.GetCluster() : pool.Get();
      const size_t take = std::min(payload.size() - off, m->capacity());
      std::memcpy(m->Append(take).data(), payload.data() + off, take);
      cpu.Charge(cpu.profile().kernel_bcopy, take);
      off += take;
      ChainAppend(&head, std::move(m));
    }
    nif->Output(std::move(head), next_hop);
  };

  const std::span<const uint8_t> payload(flat.data() + kIpv4HeaderBytes,
                                         flat.size() - kIpv4HeaderBytes);
  if (flat.size() <= nif->mtu()) {
    emit(out_hdr, payload);
    ++stats_.forwarded;
    return;
  }

  // The egress link has a smaller MTU (an ATM-to-Ethernet gateway, say):
  // fragment — or drop, per the DF bit.
  if (out_hdr.dont_fragment) {
    ++stats_.no_route;  // counted as undeliverable
    if (icmp_error_sender_) {
      icmp_error_sender_(3, 4, flat);  // fragmentation needed and DF set
    }
    return;
  }
  const size_t max_frag = ((nif->mtu() - kIpv4HeaderBytes) / 8) * 8;
  size_t off = 0;
  while (off < payload.size()) {
    const size_t take = std::min(max_frag, payload.size() - off);
    Ipv4Header fh = out_hdr;
    fh.total_length = static_cast<uint16_t>(take + kIpv4HeaderBytes);
    // Preserve any original fragment offset (fragments of fragments).
    fh.frag_offset = static_cast<uint16_t>(out_hdr.frag_offset + off / 8);
    fh.more_fragments = out_hdr.more_fragments || off + take < payload.size();
    cpu.Charge(cpu.profile().ip_output);
    ++stats_.fragments_sent;
    emit(fh, payload.subspan(off, take));
    off += take;
  }
  ++stats_.forwarded;
}

MbufPtr IpStack::AddFragment(const Ipv4Header& hdr, MbufPtr packet) {
  const ReassemblyKey key{hdr.src, hdr.dst, hdr.id, hdr.protocol};
  auto& frags = reassembly_[key];

  Fragment f;
  f.offset_bytes = size_t{hdr.frag_offset} * 8;
  f.last = !hdr.more_fragments;
  const size_t data_len = hdr.total_length - kIpv4HeaderBytes;
  f.data.resize(data_len);
  ChainCopyOut(packet.get(), kIpv4HeaderBytes, f.data);
  host_->pool().FreeChain(std::move(packet));

  // Overlaps resolve as in BSD ip_reass: the new fragment gives up the
  // bytes its predecessor already holds (all of them: a duplicate is
  // dropped), and takes over the bytes its successors hold.
  auto next = std::upper_bound(
      frags.begin(), frags.end(), f.offset_bytes,
      [](size_t offset, const Fragment& frag) { return offset < frag.offset_bytes; });
  if (next != frags.begin()) {
    const Fragment& prev = *std::prev(next);
    const size_t prev_end = prev.offset_bytes + prev.data.size();
    if (prev_end > f.offset_bytes) {
      const size_t held = prev_end - f.offset_bytes;
      if (held >= f.data.size()) {
        return nullptr;
      }
      f.data.erase(f.data.begin(), f.data.begin() + static_cast<ptrdiff_t>(held));
      f.offset_bytes = prev_end;
    }
  }
  const size_t end = f.offset_bytes + f.data.size();
  while (next != frags.end() && next->offset_bytes < end) {
    const size_t covered = end - next->offset_bytes;
    if (covered < next->data.size()) {
      next->data.erase(next->data.begin(), next->data.begin() + static_cast<ptrdiff_t>(covered));
      next->offset_bytes = end;
      break;
    }
    next = frags.erase(next);
  }
  frags.insert(next, std::move(f));

  // Complete iff the offsets tile [0, end) and the last fragment arrived.
  size_t expect = 0;
  for (const Fragment& frag : frags) {
    if (frag.offset_bytes != expect) {
      return nullptr;
    }
    expect += frag.data.size();
  }
  if (!frags.back().last) {
    return nullptr;
  }
  if (kIpv4HeaderBytes + expect > kMaxDatagramBytes) {
    reassembly_.erase(key);
    return nullptr;
  }

  // Rebuild one datagram: header mbuf + payload in clusters.
  host_->cpu().Charge(host_->cpu().profile().kernel_bcopy, expect);
  Ipv4Header full = hdr;
  full.more_fragments = false;
  full.frag_offset = 0;
  full.total_length = static_cast<uint16_t>(expect + kIpv4HeaderBytes);
  full.FillChecksum();

  MbufPtr head = host_->pool().GetHeader();
  full.Serialize(head->Append(kIpv4HeaderBytes));
  size_t copied = 0;
  for (const Fragment& frag : frags) {
    size_t frag_off = 0;
    while (frag_off < frag.data.size()) {
      Mbuf* tail = head.get();
      while (tail->next() != nullptr) {
        tail = tail->next();
      }
      if (tail->trailing_space() == 0) {
        MbufPtr m = expect - copied > kMbufDataBytes ? host_->pool().GetCluster()
                                                     : host_->pool().Get();
        ChainAppend(&head, std::move(m));
        continue;
      }
      const size_t chunk = std::min(frag.data.size() - frag_off, tail->trailing_space());
      std::memcpy(tail->Append(chunk).data(), frag.data.data() + frag_off, chunk);
      frag_off += chunk;
      copied += chunk;
    }
  }
  reassembly_.erase(key);
  return head;
}

}  // namespace tcplat
