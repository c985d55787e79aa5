// On-the-wire packet formats.
//
// Headers are plain structs with explicit Serialize/Parse methods; the stack
// moves real serialized bytes through mbufs, cells, and frames, so every
// checksum and CRC in the simulation is computed over genuine wire data.

#ifndef SRC_NET_WIRE_H_
#define SRC_NET_WIRE_H_

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace tcplat {

// IPv4 address in host byte order.
using Ipv4Addr = uint32_t;

constexpr Ipv4Addr MakeAddr(uint8_t a, uint8_t b, uint8_t c, uint8_t d) {
  return (static_cast<uint32_t>(a) << 24) | (static_cast<uint32_t>(b) << 16) |
         (static_cast<uint32_t>(c) << 8) | d;
}

std::string AddrToString(Ipv4Addr addr);

// A transport endpoint.
struct SockAddr {
  Ipv4Addr addr = 0;
  uint16_t port = 0;

  friend bool operator==(const SockAddr&, const SockAddr&) = default;
  std::string ToString() const;
};

inline constexpr uint8_t kIpProtoTcp = 6;

// ---------------------------------------------------------------------------
// IPv4
// ---------------------------------------------------------------------------

inline constexpr size_t kIpv4HeaderBytes = 20;

struct Ipv4Header {
  uint8_t tos = 0;
  uint16_t total_length = 0;  // header + payload
  uint16_t id = 0;
  bool dont_fragment = false;
  bool more_fragments = false;
  uint16_t frag_offset = 0;  // in 8-byte units
  uint8_t ttl = 64;
  uint8_t protocol = kIpProtoTcp;
  uint16_t header_checksum = 0;
  Ipv4Addr src = 0;
  Ipv4Addr dst = 0;

  // Serializes into exactly kIpv4HeaderBytes at `out` with the stored
  // header_checksum field (call FillChecksum first to make it valid).
  void Serialize(std::span<uint8_t> out) const;

  // Computes and stores the correct header checksum.
  void FillChecksum();

  // Recomputes the header checksum over serialized bytes; true if valid.
  static bool VerifyChecksum(std::span<const uint8_t> header_bytes);

  // Parses a header from `in`; nullopt if the buffer is too short or the
  // version/IHL fields are unsupported.
  static std::optional<Ipv4Header> Parse(std::span<const uint8_t> in);
};

// ---------------------------------------------------------------------------
// TCP
// ---------------------------------------------------------------------------

inline constexpr size_t kTcpMinHeaderBytes = 20;

struct TcpFlags {
  bool fin = false;
  bool syn = false;
  bool rst = false;
  bool psh = false;
  bool ack = false;
  bool urg = false;

  uint8_t Pack() const;
  static TcpFlags Unpack(uint8_t bits);
  std::string ToString() const;
  friend bool operator==(const TcpFlags&, const TcpFlags&) = default;
};

// TCP options the implementation understands. Following Kay & Pasquale, the
// checksum-elimination experiment negotiates via the Alternate Checksum
// Request option (RFC 1146, kind 14) carried on SYN segments, with
// "checksum number" kTcpAltChecksumNone meaning the payload checksum is not
// computed.
inline constexpr uint8_t kTcpOptEnd = 0;
inline constexpr uint8_t kTcpOptNop = 1;
inline constexpr uint8_t kTcpOptMss = 2;
inline constexpr uint8_t kTcpOptSackPermitted = 4;  // RFC 2018, SYN only
inline constexpr uint8_t kTcpOptSack = 5;           // RFC 2018, on ACKs
inline constexpr uint8_t kTcpOptAltChecksumRequest = 14;
inline constexpr uint8_t kTcpAltChecksumStandard = 0;
inline constexpr uint8_t kTcpAltChecksumNone = 101;  // private number

// RFC 2018 caps a SACK option at 4 blocks (40-byte option space); we carry
// at most 3 so the option always fits alongside padding.
inline constexpr size_t kTcpMaxSackBlocks = 3;

// One SACK block: [start, end) in sequence space.
struct TcpSackBlock {
  uint32_t start = 0;
  uint32_t end = 0;
  friend bool operator==(const TcpSackBlock&, const TcpSackBlock&) = default;
};

struct TcpOptions {
  std::optional<uint16_t> mss;             // SYN only
  std::optional<uint8_t> alt_checksum;     // SYN only
  bool sack_permitted = false;             // SYN only (RFC 2018 negotiation)
  std::vector<TcpSackBlock> sack;          // received-data blocks on ACKs

  // Serialized length, padded to a multiple of 4.
  size_t WireLength() const;
  void Serialize(std::span<uint8_t> out) const;
  static TcpOptions Parse(std::span<const uint8_t> in);
  friend bool operator==(const TcpOptions&, const TcpOptions&) = default;
};

struct TcpHeader {
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
  uint32_t seq = 0;
  uint32_t ack = 0;
  TcpFlags flags;
  uint16_t window = 0;
  uint16_t checksum = 0;
  uint16_t urgent = 0;
  TcpOptions options;
  // Header length in 32-bit words as a parsed segment carried it; 0 for a
  // header built locally, whose length follows from its options. Input
  // honors the carried length, since options the parser does not keep
  // (timestamps, a fourth SACK block) still occupy header bytes.
  uint8_t data_offset = 0;

  size_t HeaderLength() const {
    return data_offset != 0 ? size_t{data_offset} * 4
                            : kTcpMinHeaderBytes + options.WireLength();
  }

  void Serialize(std::span<uint8_t> out) const;
  static std::optional<TcpHeader> Parse(std::span<const uint8_t> in);
};

// The 12-byte TCP pseudo header prepended for checksumming.
struct TcpPseudoHeader {
  Ipv4Addr src = 0;
  Ipv4Addr dst = 0;
  uint16_t tcp_length = 0;  // header + payload

  std::array<uint8_t, 12> Serialize() const;
};

// ---------------------------------------------------------------------------
// Ethernet
// ---------------------------------------------------------------------------

using MacAddr = std::array<uint8_t, 6>;

inline constexpr size_t kEtherHeaderBytes = 14;
inline constexpr size_t kEtherCrcBytes = 4;
inline constexpr size_t kEtherMtu = 1500;
inline constexpr size_t kEtherMinPayload = 46;
// Preamble + SFD + interframe gap, charged as wire time only.
inline constexpr size_t kEtherPreambleBytes = 8;
inline constexpr size_t kEtherIfgBytes = 12;
inline constexpr uint16_t kEtherTypeIpv4 = 0x0800;

struct EtherHeader {
  MacAddr dst{};
  MacAddr src{};
  uint16_t ethertype = kEtherTypeIpv4;

  void Serialize(std::span<uint8_t> out) const;
  static std::optional<EtherHeader> Parse(std::span<const uint8_t> in);
};

}  // namespace tcplat

#endif  // SRC_NET_WIRE_H_
