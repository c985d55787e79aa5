// Tests for the wire formats: IPv4/TCP/Ethernet header serialization and
// parsing, TCP options, and the link-layer Wire timing model.

#include <gtest/gtest.h>

#include <vector>

#include "src/base/random.h"
#include "src/link/wire.h"
#include "src/net/byte_order.h"
#include "src/net/wire.h"
#include "src/sim/simulator.h"
#include "tests/mutate.h"

namespace tcplat {
namespace {

TEST(ByteOrder, RoundTrips) {
  uint8_t buf[4];
  StoreBe16(buf, 0xBEEF);
  EXPECT_EQ(buf[0], 0xBE);
  EXPECT_EQ(buf[1], 0xEF);
  EXPECT_EQ(LoadBe16(buf), 0xBEEF);
  StoreBe32(buf, 0xDEADBEEF);
  EXPECT_EQ(LoadBe32(buf), 0xDEADBEEFu);
  EXPECT_EQ(buf[0], 0xDE);
}

TEST(Addr, Formatting) {
  EXPECT_EQ(AddrToString(MakeAddr(10, 0, 0, 1)), "10.0.0.1");
  EXPECT_EQ((SockAddr{MakeAddr(192, 168, 1, 2), 80}).ToString(), "192.168.1.2:80");
}

TEST(Ipv4Header, SerializeParseRoundTrip) {
  Ipv4Header h;
  h.tos = 0x10;
  h.total_length = 1234;
  h.id = 77;
  h.dont_fragment = true;
  h.frag_offset = 0;
  h.ttl = 31;
  h.protocol = kIpProtoTcp;
  h.src = MakeAddr(10, 0, 0, 1);
  h.dst = MakeAddr(10, 0, 0, 2);
  h.FillChecksum();

  uint8_t buf[kIpv4HeaderBytes];
  h.Serialize(buf);
  auto parsed = Ipv4Header::Parse(std::span<const uint8_t>(buf, sizeof(buf)));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->tos, h.tos);
  EXPECT_EQ(parsed->total_length, h.total_length);
  EXPECT_EQ(parsed->id, h.id);
  EXPECT_EQ(parsed->dont_fragment, true);
  EXPECT_EQ(parsed->more_fragments, false);
  EXPECT_EQ(parsed->ttl, h.ttl);
  EXPECT_EQ(parsed->src, h.src);
  EXPECT_EQ(parsed->dst, h.dst);
  EXPECT_TRUE(Ipv4Header::VerifyChecksum(std::span<const uint8_t>(buf, sizeof(buf))));
}

TEST(Ipv4Header, ChecksumCatchesCorruption) {
  Ipv4Header h;
  h.total_length = 40;
  h.src = MakeAddr(1, 2, 3, 4);
  h.dst = MakeAddr(5, 6, 7, 8);
  h.FillChecksum();
  uint8_t buf[kIpv4HeaderBytes];
  h.Serialize(buf);
  for (size_t i = 0; i < sizeof(buf); ++i) {
    buf[i] ^= 0x01;
    EXPECT_FALSE(Ipv4Header::VerifyChecksum(std::span<const uint8_t>(buf, sizeof(buf))))
        << "byte " << i;
    buf[i] ^= 0x01;
  }
}

TEST(Ipv4Header, FragmentFieldsRoundTrip) {
  Ipv4Header h;
  h.total_length = 60;
  h.more_fragments = true;
  h.frag_offset = 185;  // in 8-byte units
  h.FillChecksum();
  uint8_t buf[kIpv4HeaderBytes];
  h.Serialize(buf);
  auto parsed = Ipv4Header::Parse(std::span<const uint8_t>(buf, sizeof(buf)));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->more_fragments);
  EXPECT_EQ(parsed->frag_offset, 185);
}

TEST(Ipv4Header, RejectsTruncatedAndBadVersion) {
  uint8_t buf[kIpv4HeaderBytes] = {0x45};
  EXPECT_FALSE(Ipv4Header::Parse(std::span<const uint8_t>(buf, 10)).has_value());
  buf[0] = 0x55;
  EXPECT_FALSE(Ipv4Header::Parse(std::span<const uint8_t>(buf, sizeof(buf))).has_value());
}

TEST(TcpFlags, PackUnpackAllCombinations) {
  for (int bits = 0; bits < 64; ++bits) {
    const TcpFlags f = TcpFlags::Unpack(static_cast<uint8_t>(bits));
    EXPECT_EQ(f.Pack(), bits);
  }
}

TEST(TcpHeader, PlainHeaderRoundTrip) {
  TcpHeader h;
  h.src_port = 20000;
  h.dst_port = 5001;
  h.seq = 0xDEADBEEF;
  h.ack = 0x01020304;
  h.flags.ack = true;
  h.flags.psh = true;
  h.window = 8192;
  h.checksum = 0xABCD;
  h.urgent = 0;
  ASSERT_EQ(h.HeaderLength(), kTcpMinHeaderBytes);

  std::vector<uint8_t> buf(h.HeaderLength());
  h.Serialize(buf);
  auto parsed = TcpHeader::Parse(buf);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->src_port, h.src_port);
  EXPECT_EQ(parsed->dst_port, h.dst_port);
  EXPECT_EQ(parsed->seq, h.seq);
  EXPECT_EQ(parsed->ack, h.ack);
  EXPECT_EQ(parsed->flags, h.flags);
  EXPECT_EQ(parsed->window, h.window);
  EXPECT_EQ(parsed->checksum, h.checksum);
}

TEST(TcpHeader, SynOptionsRoundTrip) {
  TcpHeader h;
  h.flags.syn = true;
  h.options.mss = 9148;
  h.options.alt_checksum = kTcpAltChecksumNone;
  EXPECT_EQ(h.options.WireLength() % 4, 0u);
  EXPECT_EQ(h.HeaderLength(), kTcpMinHeaderBytes + 8);

  std::vector<uint8_t> buf(h.HeaderLength());
  h.Serialize(buf);
  auto parsed = TcpHeader::Parse(buf);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->options.mss.has_value());
  EXPECT_EQ(*parsed->options.mss, 9148);
  ASSERT_TRUE(parsed->options.alt_checksum.has_value());
  EXPECT_EQ(*parsed->options.alt_checksum, kTcpAltChecksumNone);
}

TEST(TcpOptions, ParseToleratesNopAndTruncation) {
  // NOP NOP MSS(4) then a truncated option.
  const std::vector<uint8_t> raw = {kTcpOptNop, kTcpOptNop, kTcpOptMss, 4, 0x23, 0xBC,
                                    kTcpOptAltChecksumRequest};
  const TcpOptions opts = TcpOptions::Parse(raw);
  ASSERT_TRUE(opts.mss.has_value());
  EXPECT_EQ(*opts.mss, 0x23BC);
  EXPECT_FALSE(opts.alt_checksum.has_value());
}

// A parsed header's length is its data-offset field, whatever options it
// carries: options the parser does not keep (a timestamp here) or keeps
// only in part (a fourth SACK block) still occupy header bytes.
TEST(TcpHeader, ParsedLengthIsTheDataOffset) {
  TcpHeader plain;
  plain.flags.ack = true;
  std::vector<uint8_t> ts(kTcpMinHeaderBytes);
  plain.Serialize(ts);
  ts[12] = 8 << 4;  // 32 bytes: NOP, NOP, timestamp (kind 8, length 10)
  ts.insert(ts.end(), {kTcpOptNop, kTcpOptNop, 8, 10, 0, 0, 0, 1, 0, 0, 0, 0});
  const auto with_ts = TcpHeader::Parse(ts);
  ASSERT_TRUE(with_ts.has_value());
  EXPECT_EQ(with_ts->HeaderLength(), 32u);

  std::vector<uint8_t> sack(kTcpMinHeaderBytes);
  plain.Serialize(sack);
  sack[12] = 14 << 4;  // 56 bytes: NOP, NOP, a 34-byte SACK option
  sack.insert(sack.end(), {kTcpOptNop, kTcpOptNop, kTcpOptSack, 34});
  for (uint32_t b = 0; b < 4; ++b) {
    uint8_t block[8];
    StoreBe32(block, 1000 * (2 * b + 1));
    StoreBe32(block + 4, 1000 * (2 * b + 2));
    sack.insert(sack.end(), block, block + 8);
  }
  ASSERT_EQ(sack.size(), 56u);
  const auto with_sack = TcpHeader::Parse(sack);
  ASSERT_TRUE(with_sack.has_value());
  EXPECT_EQ(with_sack->options.sack.size(), 4u);
  EXPECT_EQ(with_sack->HeaderLength(), 56u);
}

// Seeded mutation fuzzing of the IPv4 and TCP header parsers over two IP
// packets: a SYN (MSS, SACK-permitted, alternate checksum) and an ACK with
// three SACK blocks. A TCP header that parses reports its data-offset field
// as its length and re-serializes into that many bytes without a CHECK
// failure, and parsing those bytes again yields the same options (SACK cut
// to the three blocks a header carries). An IPv4 header that parses
// round-trips its fields.
TEST(TcpHeader, MutatedHeadersParseToTheirDataOffset) {
  TcpHeader syn;
  syn.flags.syn = true;
  syn.options.mss = 9148;
  syn.options.sack_permitted = true;
  syn.options.alt_checksum = kTcpAltChecksumNone;
  TcpHeader ack;
  ack.flags.ack = true;
  ack.options.sack = {{100, 200}, {300, 400}, {500, 600}};

  Rng rng(20261017);
  int parsed = 0;
  for (const TcpHeader& seed : {syn, ack}) {
    Ipv4Header ip;
    ip.total_length = static_cast<uint16_t>(kIpv4HeaderBytes + seed.HeaderLength());
    std::vector<uint8_t> packet(kIpv4HeaderBytes + seed.HeaderLength());
    ip.Serialize(packet);
    seed.Serialize(std::span<uint8_t>(packet).subspan(kIpv4HeaderBytes));

    for (int iter = 0; iter < 40000; ++iter) {
      std::vector<uint8_t> mutant = packet;
      Mutate(rng, &mutant);
      if (const auto iph = Ipv4Header::Parse(mutant)) {
        std::vector<uint8_t> again(kIpv4HeaderBytes);
        iph->Serialize(again);
        const auto reparsed = Ipv4Header::Parse(again);
        ASSERT_TRUE(reparsed.has_value()) << "mutant " << iter;
        EXPECT_EQ(reparsed->total_length, iph->total_length);
        EXPECT_EQ(reparsed->frag_offset, iph->frag_offset);
        EXPECT_EQ(reparsed->more_fragments, iph->more_fragments);
        EXPECT_EQ(reparsed->src, iph->src);
        EXPECT_EQ(reparsed->dst, iph->dst);
      }
      if (mutant.size() < kIpv4HeaderBytes) {
        continue;
      }
      const auto tcp = std::span<const uint8_t>(mutant).subspan(kIpv4HeaderBytes);
      const auto th = TcpHeader::Parse(tcp);
      if (!th.has_value()) {
        continue;
      }
      ++parsed;
      ASSERT_EQ(th->HeaderLength(), static_cast<size_t>(tcp[12] >> 4) * 4) << "mutant " << iter;
      std::vector<uint8_t> out(th->HeaderLength());
      th->Serialize(out);
      const auto again = TcpHeader::Parse(out);
      ASSERT_TRUE(again.has_value()) << "mutant " << iter;
      TcpOptions expected = th->options;
      if (expected.sack.size() > kTcpMaxSackBlocks) {
        expected.sack.resize(kTcpMaxSackBlocks);
      }
      EXPECT_EQ(again->options, expected) << "mutant " << iter;
      EXPECT_EQ(again->HeaderLength(), th->HeaderLength()) << "mutant " << iter;
    }
  }
  EXPECT_GT(parsed, 10000);
}

TEST(TcpPseudoHeader, Layout) {
  TcpPseudoHeader ph;
  ph.src = MakeAddr(1, 2, 3, 4);
  ph.dst = MakeAddr(9, 8, 7, 6);
  ph.tcp_length = 100;
  const auto b = ph.Serialize();
  EXPECT_EQ(LoadBe32(&b[0]), ph.src);
  EXPECT_EQ(LoadBe32(&b[4]), ph.dst);
  EXPECT_EQ(b[8], 0);
  EXPECT_EQ(b[9], kIpProtoTcp);
  EXPECT_EQ(LoadBe16(&b[10]), 100);
}

TEST(EtherHeader, RoundTrip) {
  EtherHeader h;
  h.dst = {1, 2, 3, 4, 5, 6};
  h.src = {7, 8, 9, 10, 11, 12};
  h.ethertype = kEtherTypeIpv4;
  uint8_t buf[kEtherHeaderBytes];
  h.Serialize(buf);
  auto parsed = EtherHeader::Parse(std::span<const uint8_t>(buf, sizeof(buf)));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->dst, h.dst);
  EXPECT_EQ(parsed->src, h.src);
  EXPECT_EQ(parsed->ethertype, kEtherTypeIpv4);
}

// --- link-layer Wire timing ---

TEST(Wire, SerializationAndPropagationTiming) {
  Simulator sim;
  Wire wire(&sim, 100e6, SimDuration::FromNanos(300));  // 100 Mbit/s
  SimTime arrival;
  const SimTime done = wire.Transmit(SimTime(), std::vector<uint8_t>(1250, 0),
                                     [&](SimTime t, std::vector<uint8_t>) { arrival = t; });
  // 1250 bytes at 100 Mbit/s = 100 us on the wire.
  EXPECT_EQ(done, SimTime::FromMicros(100));
  sim.RunToCompletion();
  EXPECT_EQ(arrival, SimTime::FromMicros(100) + SimDuration::FromNanos(300));
}

TEST(Wire, BackToBackUnitsQueue) {
  Simulator sim;
  Wire wire(&sim, 8e6, SimDuration());  // 1 byte per microsecond
  const SimTime first = wire.Transmit(SimTime(), std::vector<uint8_t>(10, 0),
                                      [](SimTime, std::vector<uint8_t>) {});
  EXPECT_EQ(first, SimTime::FromMicros(10));
  // Requested at t=0 but the wire is busy until t=10.
  const SimTime second = wire.Transmit(SimTime(), std::vector<uint8_t>(5, 0),
                                       [](SimTime, std::vector<uint8_t>) {});
  EXPECT_EQ(second, SimTime::FromMicros(15));
  EXPECT_EQ(wire.free_at(), SimTime::FromMicros(15));
  sim.RunToCompletion();
}

TEST(Wire, GapBytesAddTimeButNotData) {
  Simulator sim;
  Wire wire(&sim, 8e6, SimDuration(), /*gap_bytes=*/20);
  size_t delivered = 0;
  const SimTime done = wire.Transmit(SimTime(), std::vector<uint8_t>(10, 0),
                                     [&](SimTime, std::vector<uint8_t> d) { delivered = d.size(); });
  EXPECT_EQ(done, SimTime::FromMicros(30));  // 10 + 20 gap bytes of time
  sim.RunToCompletion();
  EXPECT_EQ(delivered, 10u);  // but only 10 bytes of data
}

TEST(Wire, DeliversExactBytesAndCorruptHookApplies) {
  Simulator sim;
  Wire wire(&sim, 1e9, SimDuration());
  Rng rng(3);
  std::vector<uint8_t> payload(64);
  for (auto& b : payload) {
    b = static_cast<uint8_t>(rng.Next());
  }
  std::vector<uint8_t> got;
  wire.Transmit(SimTime(), payload, [&](SimTime, std::vector<uint8_t> d) { got = std::move(d); });
  sim.RunToCompletion();
  EXPECT_EQ(got, payload);

  wire.set_corrupt_hook([](std::vector<uint8_t>& d) { d[0] ^= 0xFF; });
  wire.Transmit(sim.Now(), payload, [&](SimTime, std::vector<uint8_t> d) { got = std::move(d); });
  sim.RunToCompletion();
  EXPECT_NE(got, payload);
  EXPECT_EQ(got[0], static_cast<uint8_t>(payload[0] ^ 0xFF));
  EXPECT_EQ(wire.units_sent(), 2u);
}

}  // namespace
}  // namespace tcplat
