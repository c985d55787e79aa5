#include "src/net/wire.h"

#include <algorithm>
#include <cstdio>

#include "src/base/check.h"
#include "src/net/byte_order.h"
#include "src/net/checksum.h"

namespace tcplat {

std::string AddrToString(Ipv4Addr addr) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", (addr >> 24) & 0xFF, (addr >> 16) & 0xFF,
                (addr >> 8) & 0xFF, addr & 0xFF);
  return buf;
}

std::string SockAddr::ToString() const {
  return AddrToString(addr) + ":" + std::to_string(port);
}

// ---------------------------------------------------------------------------
// IPv4
// ---------------------------------------------------------------------------

void Ipv4Header::Serialize(std::span<uint8_t> out) const {
  TCPLAT_CHECK_GE(out.size(), kIpv4HeaderBytes);
  out[0] = 0x45;  // version 4, IHL 5 (no options)
  out[1] = tos;
  StoreBe16(&out[2], total_length);
  StoreBe16(&out[4], id);
  uint16_t frag = frag_offset & 0x1FFF;
  if (dont_fragment) {
    frag |= 0x4000;
  }
  if (more_fragments) {
    frag |= 0x2000;
  }
  StoreBe16(&out[6], frag);
  out[8] = ttl;
  out[9] = protocol;
  StoreBe16(&out[10], header_checksum);
  StoreBe32(&out[12], src);
  StoreBe32(&out[16], dst);
}

void Ipv4Header::FillChecksum() {
  uint8_t bytes[kIpv4HeaderBytes];
  header_checksum = 0;
  Serialize(bytes);
  header_checksum = ReferenceChecksum(std::span<const uint8_t>(bytes, kIpv4HeaderBytes));
}

bool Ipv4Header::VerifyChecksum(std::span<const uint8_t> header_bytes) {
  if (header_bytes.size() < kIpv4HeaderBytes) {
    return false;
  }
  // The ones'-complement sum of a header whose checksum field is valid
  // complements to zero.
  return ReferenceChecksum(header_bytes.first(kIpv4HeaderBytes)) == 0;
}

std::optional<Ipv4Header> Ipv4Header::Parse(std::span<const uint8_t> in) {
  if (in.size() < kIpv4HeaderBytes) {
    return std::nullopt;
  }
  if (in[0] != 0x45) {  // only version 4 / 20-byte headers are generated
    return std::nullopt;
  }
  Ipv4Header h;
  h.tos = in[1];
  h.total_length = LoadBe16(&in[2]);
  h.id = LoadBe16(&in[4]);
  const uint16_t frag = LoadBe16(&in[6]);
  h.dont_fragment = (frag & 0x4000) != 0;
  h.more_fragments = (frag & 0x2000) != 0;
  h.frag_offset = frag & 0x1FFF;
  h.ttl = in[8];
  h.protocol = in[9];
  h.header_checksum = LoadBe16(&in[10]);
  h.src = LoadBe32(&in[12]);
  h.dst = LoadBe32(&in[16]);
  return h;
}

// ---------------------------------------------------------------------------
// TCP
// ---------------------------------------------------------------------------

uint8_t TcpFlags::Pack() const {
  uint8_t bits = 0;
  bits |= fin ? 0x01 : 0;
  bits |= syn ? 0x02 : 0;
  bits |= rst ? 0x04 : 0;
  bits |= psh ? 0x08 : 0;
  bits |= ack ? 0x10 : 0;
  bits |= urg ? 0x20 : 0;
  return bits;
}

TcpFlags TcpFlags::Unpack(uint8_t bits) {
  TcpFlags f;
  f.fin = (bits & 0x01) != 0;
  f.syn = (bits & 0x02) != 0;
  f.rst = (bits & 0x04) != 0;
  f.psh = (bits & 0x08) != 0;
  f.ack = (bits & 0x10) != 0;
  f.urg = (bits & 0x20) != 0;
  return f;
}

std::string TcpFlags::ToString() const {
  std::string s;
  if (syn) s += 'S';
  if (fin) s += 'F';
  if (rst) s += 'R';
  if (psh) s += 'P';
  if (ack) s += 'A';
  if (urg) s += 'U';
  return s.empty() ? "." : s;
}

size_t TcpOptions::WireLength() const {
  size_t len = 0;
  if (mss.has_value()) {
    len += 4;
  }
  if (alt_checksum.has_value()) {
    len += 3;
  }
  if (sack_permitted) {
    len += 2;
  }
  if (!sack.empty()) {
    len += 2 + 8 * std::min(sack.size(), kTcpMaxSackBlocks);
  }
  return (len + 3) & ~size_t{3};  // pad to 4-byte multiple
}

void TcpOptions::Serialize(std::span<uint8_t> out) const {
  const size_t wire = WireLength();
  TCPLAT_CHECK_GE(out.size(), wire);
  size_t i = 0;
  if (mss.has_value()) {
    out[i++] = kTcpOptMss;
    out[i++] = 4;
    StoreBe16(&out[i], *mss);
    i += 2;
  }
  if (alt_checksum.has_value()) {
    out[i++] = kTcpOptAltChecksumRequest;
    out[i++] = 3;
    out[i++] = *alt_checksum;
  }
  if (sack_permitted) {
    out[i++] = kTcpOptSackPermitted;
    out[i++] = 2;
  }
  if (!sack.empty()) {
    const size_t n = std::min(sack.size(), kTcpMaxSackBlocks);
    out[i++] = kTcpOptSack;
    out[i++] = static_cast<uint8_t>(2 + 8 * n);
    for (size_t b = 0; b < n; ++b) {
      StoreBe32(&out[i], sack[b].start);
      StoreBe32(&out[i + 4], sack[b].end);
      i += 8;
    }
  }
  while (i < wire) {
    out[i++] = kTcpOptEnd;
  }
}

TcpOptions TcpOptions::Parse(std::span<const uint8_t> in) {
  TcpOptions opts;
  size_t i = 0;
  while (i < in.size()) {
    const uint8_t kind = in[i];
    if (kind == kTcpOptEnd) {
      break;
    }
    if (kind == kTcpOptNop) {
      ++i;
      continue;
    }
    if (i + 1 >= in.size()) {
      break;  // truncated option
    }
    const uint8_t len = in[i + 1];
    if (len < 2 || i + len > in.size()) {
      break;  // malformed
    }
    if (kind == kTcpOptMss && len == 4) {
      opts.mss = LoadBe16(&in[i + 2]);
    } else if (kind == kTcpOptAltChecksumRequest && len == 3) {
      opts.alt_checksum = in[i + 2];
    } else if (kind == kTcpOptSackPermitted && len == 2) {
      opts.sack_permitted = true;
    } else if (kind == kTcpOptSack && len >= 10 && (len - 2) % 8 == 0) {
      for (size_t b = i + 2; b + 8 <= i + len; b += 8) {
        opts.sack.push_back({LoadBe32(&in[b]), LoadBe32(&in[b + 4])});
      }
    }
    i += len;
  }
  return opts;
}

void TcpHeader::Serialize(std::span<uint8_t> out) const {
  const size_t hdr_len = HeaderLength();
  TCPLAT_CHECK_GE(out.size(), hdr_len);
  TCPLAT_CHECK_EQ(hdr_len % 4, 0u);
  StoreBe16(&out[0], src_port);
  StoreBe16(&out[2], dst_port);
  StoreBe32(&out[4], seq);
  StoreBe32(&out[8], ack);
  out[12] = static_cast<uint8_t>((hdr_len / 4) << 4);
  out[13] = flags.Pack();
  StoreBe16(&out[14], window);
  StoreBe16(&out[16], checksum);
  StoreBe16(&out[18], urgent);
  options.Serialize(out.subspan(kTcpMinHeaderBytes, hdr_len - kTcpMinHeaderBytes));
}

std::optional<TcpHeader> TcpHeader::Parse(std::span<const uint8_t> in) {
  if (in.size() < kTcpMinHeaderBytes) {
    return std::nullopt;
  }
  const size_t hdr_len = static_cast<size_t>(in[12] >> 4) * 4;
  if (hdr_len < kTcpMinHeaderBytes || hdr_len > in.size()) {
    return std::nullopt;
  }
  TcpHeader h;
  h.src_port = LoadBe16(&in[0]);
  h.dst_port = LoadBe16(&in[2]);
  h.seq = LoadBe32(&in[4]);
  h.ack = LoadBe32(&in[8]);
  h.flags = TcpFlags::Unpack(in[13]);
  h.window = LoadBe16(&in[14]);
  h.checksum = LoadBe16(&in[16]);
  h.urgent = LoadBe16(&in[18]);
  h.options = TcpOptions::Parse(in.subspan(kTcpMinHeaderBytes, hdr_len - kTcpMinHeaderBytes));
  h.data_offset = static_cast<uint8_t>(hdr_len / 4);
  return h;
}

std::array<uint8_t, 12> TcpPseudoHeader::Serialize() const {
  std::array<uint8_t, 12> out{};
  StoreBe32(&out[0], src);
  StoreBe32(&out[4], dst);
  out[8] = 0;
  out[9] = kIpProtoTcp;
  StoreBe16(&out[10], tcp_length);
  return out;
}

// ---------------------------------------------------------------------------
// Ethernet
// ---------------------------------------------------------------------------

void EtherHeader::Serialize(std::span<uint8_t> out) const {
  TCPLAT_CHECK_GE(out.size(), kEtherHeaderBytes);
  for (size_t i = 0; i < 6; ++i) {
    out[i] = dst[i];
    out[6 + i] = src[i];
  }
  StoreBe16(&out[12], ethertype);
}

std::optional<EtherHeader> EtherHeader::Parse(std::span<const uint8_t> in) {
  if (in.size() < kEtherHeaderBytes) {
    return std::nullopt;
  }
  EtherHeader h;
  for (size_t i = 0; i < 6; ++i) {
    h.dst[i] = in[i];
    h.src[i] = in[6 + i];
  }
  h.ethertype = LoadBe16(&in[12]);
  return h;
}

}  // namespace tcplat
