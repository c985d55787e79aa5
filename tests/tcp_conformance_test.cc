// Protocol-conformance tests: hand-crafted segments injected below IP
// against a live server stack, with the server's responses observed through
// a SegmentTap — the simulated equivalent of a conformance tester on the
// wire.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "src/core/rpc_benchmark.h"
#include "src/core/testbed.h"
#include "src/net/byte_order.h"
#include "src/net/checksum.h"
#include "src/os/task.h"
#include "src/tcp/segment_tap.h"

namespace tcplat {
namespace {

// Builds a full IP packet carrying one TCP segment with a valid checksum.
// `raw_options` (a multiple of 4 bytes, for options TcpOptions cannot
// express) follow th's own options and count in the data offset.
std::vector<uint8_t> BuildSegment(Ipv4Addr src, Ipv4Addr dst, const TcpHeader& th_in,
                                  std::span<const uint8_t> payload,
                                  std::span<const uint8_t> raw_options = {}) {
  TcpHeader th = th_in;
  const size_t own_len = th.HeaderLength();
  const size_t hdrlen = own_len + raw_options.size();
  std::vector<uint8_t> tcp_bytes(hdrlen + payload.size());
  th.checksum = 0;
  th.Serialize(tcp_bytes);
  tcp_bytes[12] = static_cast<uint8_t>((hdrlen / 4) << 4);
  std::copy(raw_options.begin(), raw_options.end(), tcp_bytes.begin() + own_len);
  if (!payload.empty()) {
    std::memcpy(tcp_bytes.data() + hdrlen, payload.data(), payload.size());
  }

  TcpPseudoHeader ph;
  ph.src = src;
  ph.dst = dst;
  ph.tcp_length = static_cast<uint16_t>(tcp_bytes.size());
  ChecksumAccumulator acc;
  acc.Add(ph.Serialize());
  acc.Add(tcp_bytes);
  StoreBe16(&tcp_bytes[16], acc.Finalize());

  std::vector<uint8_t> pkt(kIpv4HeaderBytes + tcp_bytes.size());
  Ipv4Header iph;
  iph.total_length = static_cast<uint16_t>(pkt.size());
  iph.protocol = kIpProtoTcp;
  iph.src = src;
  iph.dst = dst;
  iph.FillChecksum();
  iph.Serialize(pkt);
  std::memcpy(pkt.data() + kIpv4HeaderBytes, tcp_bytes.data(), tcp_bytes.size());
  return pkt;
}

// Injects raw packet bytes at the server's driver/IP boundary.
void Inject(Testbed& tb, const std::vector<uint8_t>& bytes) {
  Host& h = tb.server_host();
  CpuRun run(h.cpu(), tb.sim().Now());
  MbufPtr head = h.pool().GetHeader();
  const size_t first = std::min<size_t>(kIpv4HeaderBytes, bytes.size());
  std::memcpy(head->Append(first).data(), bytes.data(), first);
  size_t off = first;
  while (off < bytes.size()) {
    MbufPtr m = bytes.size() - off > kClusterThreshold ? h.pool().GetCluster() : h.pool().Get();
    const size_t take = std::min(bytes.size() - off, m->capacity());
    std::memcpy(m->Append(take).data(), bytes.data() + off, take);
    off += take;
    ChainAppend(&head, std::move(m));
  }
  tb.server_ip().InputFromDriver(std::move(head));
}

// The server's outbound segments since the last call.
std::vector<SegmentTap::Record> TakeOutbound(SegmentTap& tap) {
  std::vector<SegmentTap::Record> out;
  for (const auto& r : tap.records()) {
    if (r.outbound) {
      out.push_back(r);
    }
  }
  tap.Clear();
  return out;
}

class Conformance : public ::testing::Test {
 protected:
  // The forged client address must not belong to the real client stack:
  // its replies land on the client host's IP layer and are dropped as
  // not-for-us instead of drawing RSTs from a live TCP.
  static constexpr Ipv4Addr kFakeClient = MakeAddr(10, 0, 0, 77);

  Conformance() : tb_(TestbedConfig{}) {
    tb_.server_tcp().set_tap(&tap_);
    listener_ = tb_.server_tcp().Listen(kEchoPort);
  }

  // Advances bounded virtual time (the injected peer never ACKs, so running
  // to completion would spin through retransmission exhaustion).
  void Step(double ms) { tb_.sim().RunUntil(tb_.sim().Now() + SimDuration::FromMillis(ms)); }

  TcpHeader Syn(uint32_t iss) {
    TcpHeader th;
    th.src_port = 33333;
    th.dst_port = kEchoPort;
    th.seq = iss;
    th.flags.syn = true;
    th.window = 8192;
    th.options.mss = 1460;
    return th;
  }

  // Completes a handshake as a fake client; returns the server's ISS.
  uint32_t Handshake(uint32_t iss) {
    Inject(tb_, BuildSegment(kFakeClient, kServerAddr, Syn(iss), {}));
    Step(50);
    auto out = TakeOutbound(tap_);
    EXPECT_EQ(out.size(), 1u);
    EXPECT_TRUE(out[0].header.flags.syn);
    EXPECT_TRUE(out[0].header.flags.ack);
    EXPECT_EQ(out[0].header.ack, iss + 1);
    const uint32_t server_iss = out[0].header.seq;

    TcpHeader ack;
    ack.src_port = 33333;
    ack.dst_port = kEchoPort;
    ack.seq = iss + 1;
    ack.ack = server_iss + 1;
    ack.flags.ack = true;
    ack.window = 8192;
    Inject(tb_, BuildSegment(kFakeClient, kServerAddr, ack, {}));
    Step(50);
    TakeOutbound(tap_);
    return server_iss;
  }

  Testbed tb_;
  SegmentTap tap_;
  Socket* listener_ = nullptr;
};

TEST_F(Conformance, SynGetsSynAckWithMssOption) {
  Inject(tb_, BuildSegment(kFakeClient, kServerAddr, Syn(1000), {}));
  tb_.sim().RunUntil(tb_.sim().Now() + SimDuration::FromMillis(10));
  auto out = TakeOutbound(tap_);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].header.flags.syn);
  EXPECT_TRUE(out[0].header.flags.ack);
  EXPECT_EQ(out[0].header.ack, 1001u);
  ASSERT_TRUE(out[0].header.options.mss.has_value());
  EXPECT_EQ(*out[0].header.options.mss, kAtmMtu - kIpv4HeaderBytes - kTcpMinHeaderBytes);
}

// The window field is 16 bits: a receive buffer above 65,535 bytes is
// announced as 65,535, not truncated to its low 16 bits.
TEST_F(Conformance, SynAckWindowClampsToSixteenBits) {
  tb_.server_tcp().config().rcvbuf = 131072;
  Inject(tb_, BuildSegment(kFakeClient, kServerAddr, Syn(1000), {}));
  Step(10);
  auto out = TakeOutbound(tap_);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].header.flags.syn);
  EXPECT_EQ(out[0].header.window, 65535u);
}

TEST_F(Conformance, AckToListenerDrawsRst) {
  TcpHeader stray;
  stray.src_port = 44444;
  stray.dst_port = 9999;  // nothing listens here
  stray.seq = 5;
  stray.ack = 77;
  stray.flags.ack = true;
  Inject(tb_, BuildSegment(kFakeClient, kServerAddr, stray, {}));
  Step(10);
  auto out = TakeOutbound(tap_);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].header.flags.rst);
  EXPECT_EQ(out[0].header.seq, 77u) << "RST takes its seq from the offending ACK";
}

TEST_F(Conformance, LostSynAckIsRetransmittedByServer) {
  // Drop the first SYN|ACK on the wire: the embryonic connection's
  // retransmission timer must resend it and the handshake completes.
  TestbedConfig cfg;
  cfg.tcp.rexmt_min = SimDuration::FromMillis(50);
  Testbed tb(cfg);
  int kill = 1;
  tb.atm_link()->dir(1).set_corrupt_hook([&kill](std::vector<uint8_t>& cell) {
    if (kill > 0) {
      cell[10] ^= 0xFF;
      --kill;
    }
  });
  RpcOptions opt;
  opt.size = 100;
  opt.iterations = 3;
  opt.warmup = 0;
  const RpcResult r = RunRpcBenchmark(tb, opt);
  EXPECT_EQ(r.data_mismatches, 0u);
  EXPECT_GE(tb.server_tcp().stats().rexmt_timeouts, 1u);
}

TEST_F(Conformance, InWindowDataAcceptedAndAckedOnTimer) {
  const uint32_t iss = 50000;
  const uint32_t server_iss = Handshake(iss);
  (void)server_iss;
  const std::vector<uint8_t> data = {'h', 'e', 'l', 'l', 'o'};
  TcpHeader th;
  th.src_port = 33333;
  th.dst_port = kEchoPort;
  th.seq = iss + 1;
  th.ack = server_iss + 1;
  th.flags.ack = true;
  th.window = 8192;
  Inject(tb_, BuildSegment(kFakeClient, kServerAddr, th, data));
  Step(250);  // the 200 ms delayed ACK fires
  auto out = TakeOutbound(tap_);
  ASSERT_GE(out.size(), 1u);
  EXPECT_EQ(out.back().header.ack, iss + 1 + data.size());
}

TEST_F(Conformance, StaleSegmentReAcked) {
  const uint32_t iss = 60000;
  const uint32_t server_iss = Handshake(iss);
  (void)server_iss;
  // A segment entirely below rcv_nxt (e.g. a spurious retransmission).
  TcpHeader th;
  th.src_port = 33333;
  th.dst_port = kEchoPort;
  th.seq = iss - 300;
  th.ack = server_iss + 1;
  th.flags.ack = true;
  th.window = 8192;
  const std::vector<uint8_t> stale(100, 0xAA);
  Inject(tb_, BuildSegment(kFakeClient, kServerAddr, th, stale));
  Step(10);
  auto out = TakeOutbound(tap_);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].header.ack, iss + 1) << "immediate re-ACK with the true rcv_nxt";
  EXPECT_EQ(out[0].payload_len, 0u);
}

TEST_F(Conformance, BeyondWindowFloodDoesNotGrowState) {
  const uint32_t iss = 70000;
  const uint32_t server_iss = Handshake(iss);
  (void)server_iss;
  const int64_t mbufs_before = tb_.server_host().pool().stats().in_use;
  // 50 segments far beyond the 8 KB window.
  for (int i = 0; i < 50; ++i) {
    TcpHeader th;
    th.src_port = 33333;
    th.dst_port = kEchoPort;
    th.seq = iss + 1 + 100000 + static_cast<uint32_t>(i) * 1000;
    th.ack = server_iss + 1;
    th.flags.ack = true;
    th.window = 8192;
    const std::vector<uint8_t> junk(500, 0x55);
    Inject(tb_, BuildSegment(kFakeClient, kServerAddr, th, junk));
    Step(5);
  }
  // Dropped, not stashed: the reassembly queue holds no mbufs for them.
  EXPECT_LE(tb_.server_host().pool().stats().in_use, mbufs_before);
}

TEST_F(Conformance, RstTearsDownEstablishedConnection) {
  const uint32_t iss = 80000;
  const uint32_t server_iss = Handshake(iss);
  (void)server_iss;
  EXPECT_EQ(tb_.server_tcp().stats().conns_established, 1u);
  TcpHeader rst;
  rst.src_port = 33333;
  rst.dst_port = kEchoPort;
  rst.seq = iss + 1;
  rst.ack = server_iss + 1;
  rst.flags.rst = true;
  rst.flags.ack = true;
  Inject(tb_, BuildSegment(kFakeClient, kServerAddr, rst, {}));
  Step(10);
  EXPECT_EQ(tb_.server_tcp().stats().rst_received, 1u);
  EXPECT_EQ(tb_.server_tcp().stats().conns_dropped, 1u);
}

TEST_F(Conformance, BadChecksumSegmentIgnoredSilently) {
  const uint32_t iss = 90000;
  const uint32_t server_iss = Handshake(iss);
  (void)server_iss;
  TcpHeader th;
  th.src_port = 33333;
  th.dst_port = kEchoPort;
  th.seq = iss + 1;
  th.ack = server_iss + 1;
  th.flags.ack = true;
  th.window = 8192;
  auto pkt = BuildSegment(kFakeClient, kServerAddr, th, std::vector<uint8_t>(32, 1));
  pkt[45] ^= 0xFF;  // damage the TCP payload; checksum now wrong
  Inject(tb_, pkt);
  Step(10);
  EXPECT_EQ(tb_.server_tcp().stats().checksum_errors, 1u);
  EXPECT_TRUE(TakeOutbound(tap_).empty()) << "corrupt segments draw no response";
}

// --- Nagle / delayed-ACK cadence conformance ---

// Completes a fake-client handshake against `tb`'s server listener, with
// the tap already attached; returns the server's ISS. (The fixture's
// Handshake() bound to tb_; this one works on any testbed, so tests can
// reconfigure the stack under test.)
uint32_t HandshakeOn(Testbed& tb, SegmentTap& tap, uint32_t iss) {
  constexpr Ipv4Addr kFake = MakeAddr(10, 0, 0, 77);
  TcpHeader syn;
  syn.src_port = 33333;
  syn.dst_port = kEchoPort;
  syn.seq = iss;
  syn.flags.syn = true;
  syn.window = 8192;
  syn.options.mss = 1460;
  Inject(tb, BuildSegment(kFake, kServerAddr, syn, {}));
  tb.sim().RunUntil(tb.sim().Now() + SimDuration::FromMillis(50));
  auto out = TakeOutbound(tap);
  EXPECT_EQ(out.size(), 1u);
  const uint32_t server_iss = out.empty() ? 0 : out[0].header.seq;

  TcpHeader ack;
  ack.src_port = 33333;
  ack.dst_port = kEchoPort;
  ack.seq = iss + 1;
  ack.ack = server_iss + 1;
  ack.flags.ack = true;
  ack.window = 8192;
  Inject(tb, BuildSegment(kFake, kServerAddr, ack, {}));
  tb.sim().RunUntil(tb.sim().Now() + SimDuration::FromMillis(50));
  TakeOutbound(tap);
  return server_iss;
}

TcpHeader DataHeader(uint32_t seq, uint32_t ack) {
  TcpHeader th;
  th.src_port = 33333;
  th.dst_port = kEchoPort;
  th.seq = seq;
  th.ack = ack;
  th.flags.ack = true;
  th.window = 8192;
  return th;
}

// The receiver strips the header length the segment's data offset gives,
// so a data segment carrying an option the stack does not parse (NOP, NOP,
// timestamp) delivers exactly its payload to the application.
TEST_F(Conformance, UnparsedOptionBytesAreNotPayload) {
  const uint32_t iss = 90000;
  const uint32_t server_iss = Handshake(iss);
  // Timestamp option: kind 8, length 10, TSval 7, TSecr 0.
  const std::vector<uint8_t> timestamp = {kTcpOptNop, kTcpOptNop, 8, 10, 0, 0, 0, 7, 0, 0, 0, 0};
  const std::vector<uint8_t> data = {'p', 'a', 'y', 'l', 'o', 'a', 'd'};
  Inject(tb_, BuildSegment(kFakeClient, kServerAddr, DataHeader(iss + 1, server_iss + 1), data,
                           timestamp));
  Step(250);
  const auto out = TakeOutbound(tap_);
  ASSERT_GE(out.size(), 1u);
  EXPECT_EQ(out.back().header.ack, iss + 1 + data.size());

  Socket* conn = listener_->Accept();
  ASSERT_NE(conn, nullptr);
  std::vector<uint8_t> got(64);
  CpuRun run(tb_.server_host().cpu(), tb_.sim().Now());
  got.resize(conn->Read(got));
  EXPECT_EQ(got, data);
}

// The 4.3BSD receiver acks every *other* in-sequence data segment: the
// first arms the delayed-ACK timer, the second forces the ACK out
// immediately — long before the 200 ms timer.
TEST_F(Conformance, DelackAcksEveryOtherSegmentImmediately) {
  const uint32_t iss = 110000;
  const uint32_t server_iss = Handshake(iss);
  const std::vector<uint8_t> data(500, 0x33);
  Inject(tb_, BuildSegment(kFakeClient, kServerAddr, DataHeader(iss + 1, server_iss + 1), data));
  Step(2);
  EXPECT_TRUE(TakeOutbound(tap_).empty()) << "first segment only arms the timer";
  Inject(tb_,
         BuildSegment(kFakeClient, kServerAddr, DataHeader(iss + 501, server_iss + 1), data));
  Step(2);
  auto out = TakeOutbound(tap_);
  ASSERT_EQ(out.size(), 1u) << "second segment forces the ACK";
  EXPECT_EQ(out[0].header.ack, iss + 1001);
  EXPECT_EQ(out[0].payload_len, 0u);
  EXPECT_EQ(tb_.server_tcp().stats().delayed_acks_fired, 0u);
}

// The delayed-ACK timer honors the configured value: with a 50 ms timer a
// lone segment is still unacked at 40 ms and acked by 60 ms.
TEST_F(Conformance, DelackTimerHonorsConfiguredValue) {
  TestbedConfig cfg;
  cfg.tcp.delack_timeout = SimDuration::FromMillis(50);
  Testbed tb(cfg);
  SegmentTap tap;
  tb.server_tcp().set_tap(&tap);
  tb.server_tcp().Listen(kEchoPort);
  const uint32_t iss = 120000;
  const uint32_t server_iss = HandshakeOn(tb, tap, iss);
  const std::vector<uint8_t> data(500, 0x44);
  Inject(tb, BuildSegment(MakeAddr(10, 0, 0, 77), kServerAddr,
                          DataHeader(iss + 1, server_iss + 1), data));
  tb.sim().RunUntil(tb.sim().Now() + SimDuration::FromMillis(40));
  EXPECT_TRUE(TakeOutbound(tap).empty()) << "no ACK before the configured timer";
  tb.sim().RunUntil(tb.sim().Now() + SimDuration::FromMillis(20));
  auto out = TakeOutbound(tap);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].header.ack, iss + 501);
  EXPECT_EQ(tb.server_tcp().stats().delayed_acks_fired, 1u);
}

// With delayed ACKs disabled, every in-sequence data segment draws an
// immediate ACK and the timer never fires.
TEST_F(Conformance, DelackDisabledAcksEverySegmentImmediately) {
  TestbedConfig cfg;
  cfg.tcp.delack = false;
  Testbed tb(cfg);
  SegmentTap tap;
  tb.server_tcp().set_tap(&tap);
  tb.server_tcp().Listen(kEchoPort);
  const uint32_t iss = 130000;
  const uint32_t server_iss = HandshakeOn(tb, tap, iss);
  const std::vector<uint8_t> data(500, 0x55);
  for (int i = 0; i < 2; ++i) {
    Inject(tb, BuildSegment(MakeAddr(10, 0, 0, 77), kServerAddr,
                            DataHeader(iss + 1 + static_cast<uint32_t>(i) * 500, server_iss + 1),
                            data));
    tb.sim().RunUntil(tb.sim().Now() + SimDuration::FromMillis(2));
    auto out = TakeOutbound(tap);
    ASSERT_EQ(out.size(), 1u) << "segment " << i << " must be acked at once";
    EXPECT_EQ(out[0].header.ack, iss + 1 + static_cast<uint32_t>(i + 1) * 500);
  }
  EXPECT_EQ(tb.server_tcp().stats().delayed_acks_fired, 0u);
}

// Sender-side Nagle rule: at most one small segment may be outstanding.
// Three back-to-back small writes must leave as the first chunk alone plus
// one coalesced remainder, and no small data segment may depart while a
// previous one is still unacknowledged.
TEST_F(Conformance, NagleAllowsOneOutstandingSmallSegment) {
  Testbed tb{TestbedConfig{}};
  SegmentTap tap;
  tb.client_tcp().set_tap(&tap);
  tb.server_tcp().Listen(kEchoPort);
  struct Writer {
    static SimTask Run(Testbed* t) {
      Socket* s = t->client_tcp().Connect(SockAddr{kServerAddr, kEchoPort});
      while (!s->connected()) {
        co_await s->WaitConnected();
      }
      const std::vector<uint8_t> msg(300, 0x5A);
      s->Write(msg);
      s->Write(msg);
      s->Write(msg);
    }
  };
  tb.client_host().Spawn("writer", Writer::Run(&tb));
  tb.sim().RunUntil(SimTime::FromMillis(500));

  int data_segments = 0;
  bool small_outstanding = false;
  for (const auto& r : tap.records()) {
    if (r.outbound && r.payload_len > 0) {
      EXPECT_FALSE(small_outstanding)
          << "second small segment sent before the first was acked";
      small_outstanding = true;
      ++data_segments;
    } else if (!r.outbound && r.header.flags.ack) {
      small_outstanding = false;
    }
  }
  EXPECT_EQ(data_segments, 2) << "chunk 1 alone, chunks 2+3 coalesced";
  EXPECT_GE(tb.client_tcp().stats().nagle_holds, 1u);
}

// --- Congestion-control era conformance ---
//
// The CongestionControl state machine is exercised directly (it is pure
// state + actions), plus the SACK option's wire round trip and two
// end-to-end runs over the testbed: SYN-time SACK negotiation and a single
// mid-stream cell loss repaired by fast retransmit instead of a timeout.

constexpr uint32_t kMss = 1000;

// RFC 5681: the third duplicate ACK halves the pipe (ssthresh = flight/2),
// retransmits the hole, and enters fast recovery with cwnd = ssthresh + 3.
TEST(CongestionReno, ThirdDupAckHalvesWindowAndRetransmits) {
  CongestionControl cc;
  cc.Reset(CongestionVariant::kReno, kMss);
  for (int i = 0; i < 20; ++i) {
    cc.OnNewAck(0, 0, 0, 20 * kMss);  // grow cwnd well past the loss point
  }
  const uint32_t una = 5000;
  const uint32_t snd_max = una + 12 * kMss;
  auto a1 = cc.OnDupAck(una, snd_max, 12 * kMss);
  auto a2 = cc.OnDupAck(una, snd_max, 12 * kMss);
  EXPECT_FALSE(a1.fast_retransmit);
  EXPECT_FALSE(a2.fast_retransmit);
  EXPECT_FALSE(cc.in_recovery());

  auto a3 = cc.OnDupAck(una, snd_max, 12 * kMss);
  ASSERT_TRUE(a3.fast_retransmit);
  EXPECT_EQ(a3.rexmt_seq, una) << "the hole is the unacked head";
  EXPECT_TRUE(cc.in_recovery());
  EXPECT_EQ(cc.ssthresh(), 6 * kMss) << "half the 12-segment flight";
  EXPECT_EQ(cc.cwnd(), cc.ssthresh() + 3 * kMss) << "inflated by the 3 dup ACKs";

  // Each further duplicate ACK inflates by one segment (it proves a packet
  // left the network) and asks for more output.
  auto a4 = cc.OnDupAck(una, snd_max, 12 * kMss);
  EXPECT_FALSE(a4.fast_retransmit);
  EXPECT_TRUE(a4.send_more);
  EXPECT_EQ(cc.cwnd(), cc.ssthresh() + 4 * kMss);

  // The full ACK deflates to ssthresh and leaves recovery.
  auto full = cc.OnNewAck(una, snd_max, snd_max, 12 * kMss);
  EXPECT_TRUE(full.exited_recovery);
  EXPECT_FALSE(cc.in_recovery());
  EXPECT_EQ(cc.cwnd(), cc.ssthresh());
}

// RFC 6582: a partial ACK (below `recover`) repairs the next hole and stays
// in recovery under NewReno; classic Reno bails out on the first new ACK.
TEST(CongestionNewReno, PartialAckRepairsAndStaysInRecovery) {
  const uint32_t una = 10000;
  const uint32_t snd_max = una + 10 * kMss;
  for (const CongestionVariant v : {CongestionVariant::kReno, CongestionVariant::kNewReno}) {
    CongestionControl cc;
    cc.Reset(v, kMss);
    cc.OnDupAck(una, snd_max, 10 * kMss);
    cc.OnDupAck(una, snd_max, 10 * kMss);
    auto a3 = cc.OnDupAck(una, snd_max, 10 * kMss);
    ASSERT_TRUE(a3.fast_retransmit);
    EXPECT_EQ(cc.recover(), snd_max);

    // The retransmission is acked, but a second hole remains 3 segments up.
    const uint32_t partial = una + 3 * kMss;
    auto ack = cc.OnNewAck(una, partial, snd_max, 10 * kMss);
    if (v == CongestionVariant::kNewReno) {
      EXPECT_TRUE(ack.partial_retransmit) << "NewReno repairs the next hole at once";
      EXPECT_EQ(ack.rexmt_seq, partial);
      EXPECT_TRUE(cc.in_recovery()) << "recovery persists until snd_una reaches recover";
    } else {
      EXPECT_FALSE(ack.partial_retransmit) << "plain Reno has no partial-ACK repair";
      EXPECT_TRUE(ack.exited_recovery);
      EXPECT_FALSE(cc.in_recovery());
    }
  }
}

// The scoreboard keeps sorted, disjoint blocks, merges overlap/adjacency,
// walks holes in order, and drops acked blocks.
TEST(CongestionSack, ScoreboardTracksHoles) {
  SackScoreboard sb;
  const uint32_t una = 1000;
  sb.Add(una, 3000, 4000);
  sb.Add(una, 6000, 7000);
  EXPECT_EQ(sb.blocks().size(), 2u);
  EXPECT_EQ(sb.NextHole(una, 8000), una) << "first hole is at snd_una";
  EXPECT_EQ(sb.NextHole(3000, 8000), 4000u) << "walk jumps past the sacked block";
  EXPECT_EQ(sb.NextHole(6000, 8000), 7000u);
  EXPECT_TRUE(sb.Covers(3500));
  EXPECT_FALSE(sb.Covers(4500));

  sb.Add(una, 4000, 6000);  // bridges the two blocks
  ASSERT_EQ(sb.blocks().size(), 1u);
  EXPECT_EQ(sb.blocks()[0].start, 3000u);
  EXPECT_EQ(sb.blocks()[0].end, 7000u);
  EXPECT_EQ(sb.sacked_bytes(), 4000u);
  EXPECT_EQ(sb.highest_end(), 7000u);

  sb.AdvanceTo(7000);
  EXPECT_TRUE(sb.empty());
}

// RFC 6675: in SACK recovery, cwnd collapses to ssthresh, repairs are gated
// by the pipe estimate, and only holes below the highest sacked block are
// retransmitted.
TEST(CongestionSack, PipeGatedRepairsStopAtHighestSackedBlock) {
  CongestionControl cc;
  cc.Reset(CongestionVariant::kSack, kMss);
  for (int i = 0; i < 20; ++i) {
    cc.OnNewAck(0, 0, 0, 20 * kMss);
  }
  const uint32_t una = 0;
  const uint32_t snd_max = 12 * kMss;
  // The receiver holds [2,3) and [5,6) segments; segments 0,1 and 3,4 are
  // the provable holes, everything >= 6 may still be in flight.
  cc.scoreboard().Add(una, 2 * kMss, 3 * kMss);
  cc.scoreboard().Add(una, 5 * kMss, 6 * kMss);
  cc.OnDupAck(una, snd_max, 12 * kMss);
  cc.OnDupAck(una, snd_max, 12 * kMss);
  auto a3 = cc.OnDupAck(una, snd_max, 12 * kMss);
  ASSERT_TRUE(a3.fast_retransmit);
  EXPECT_EQ(a3.rexmt_seq, una);
  EXPECT_EQ(cc.cwnd(), cc.ssthresh()) << "no +3 inflation under RFC 6675";

  // Further dup ACKs drain the pipe; each repair must land on a hole below
  // highest_end, never on un-sacked in-flight data above it.
  std::vector<uint32_t> repaired;
  for (int i = 0; i < 12; ++i) {
    auto a = cc.OnDupAck(una, snd_max, 12 * kMss);
    if (a.fast_retransmit) {
      repaired.push_back(a.rexmt_seq);
    }
  }
  ASSERT_FALSE(repaired.empty());
  for (const uint32_t seq : repaired) {
    EXPECT_LT(seq, 6 * kMss) << "RFC 3517 bound: no repair above the highest sacked block";
    EXPECT_FALSE(cc.scoreboard().Covers(seq)) << "never resend sacked data";
  }
}

// A timeout abandons recovery entirely: back to one-segment slow start with
// a cleared scoreboard.
TEST(CongestionSack, TimeoutCollapsesToSlowStart) {
  CongestionControl cc;
  cc.Reset(CongestionVariant::kSack, kMss);
  cc.scoreboard().Add(0, 2 * kMss, 3 * kMss);
  cc.OnDupAck(0, 10 * kMss, 10 * kMss);
  cc.OnDupAck(0, 10 * kMss, 10 * kMss);
  cc.OnDupAck(0, 10 * kMss, 10 * kMss);
  ASSERT_TRUE(cc.in_recovery());
  cc.OnTimeout(10 * kMss);
  EXPECT_EQ(cc.cwnd(), kMss);
  EXPECT_FALSE(cc.in_recovery());
  EXPECT_TRUE(cc.scoreboard().empty());
}

// RFC 2018 wire format: SACK-permitted (kind 4) on the SYN and up to three
// 8-byte blocks (kind 5) must survive a serialize/parse round trip.
TEST(CongestionSack, OptionsRoundTripOnTheWire) {
  TcpHeader syn;
  syn.flags.syn = true;
  syn.options.mss = 1460;
  syn.options.sack_permitted = true;
  std::vector<uint8_t> bytes(syn.HeaderLength());
  syn.Serialize(bytes);
  const std::optional<TcpHeader> parsed = TcpHeader::Parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->options.sack_permitted);
  ASSERT_TRUE(parsed->options.mss.has_value());
  EXPECT_EQ(*parsed->options.mss, 1460u);

  TcpHeader ack;
  ack.flags.ack = true;
  ack.options.sack = {{1000, 2000}, {5000, 6000}, {9000, 9500}};
  std::vector<uint8_t> ack_bytes(ack.HeaderLength());
  ack.Serialize(ack_bytes);
  const std::optional<TcpHeader> parsed_ack = TcpHeader::Parse(ack_bytes);
  ASSERT_TRUE(parsed_ack.has_value());
  ASSERT_EQ(parsed_ack->options.sack.size(), 3u);
  EXPECT_EQ(parsed_ack->options.sack[0].start, 1000u);
  EXPECT_EQ(parsed_ack->options.sack[0].end, 2000u);
  EXPECT_EQ(parsed_ack->options.sack[2].start, 9000u);
  EXPECT_EQ(parsed_ack->options.sack[2].end, 9500u);
  EXPECT_FALSE(parsed_ack->options.sack_permitted) << "kind 4 is SYN-only";
}

// End to end: with both stacks configured for SACK, the client's SYN offers
// kind 4, the server's SYN|ACK agrees, and the transfer completes.
TEST(CongestionE2E, SackNegotiatedOnTheSyn) {
  TestbedConfig cfg;
  cfg.tcp.congestion = CongestionVariant::kSack;
  Testbed tb(cfg);
  SegmentTap tap;
  tb.client_tcp().set_tap(&tap);
  RpcOptions opt;
  opt.size = 100;
  opt.iterations = 2;
  opt.warmup = 0;
  const RpcResult r = RunRpcBenchmark(tb, opt);
  EXPECT_EQ(r.data_mismatches, 0u);
  bool syn_offered = false;
  bool synack_agreed = false;
  for (const auto& rec : tap.records()) {
    if (rec.header.flags.syn && !rec.header.flags.ack && rec.outbound) {
      syn_offered = rec.header.options.sack_permitted;
    }
    if (rec.header.flags.syn && rec.header.flags.ack && !rec.outbound) {
      synack_agreed = rec.header.options.sack_permitted;
    }
  }
  EXPECT_TRUE(syn_offered) << "client SYN must carry SACK-permitted";
  EXPECT_TRUE(synack_agreed) << "server SYN|ACK must agree";
}

// A legacy peer never offers SACK, so a SACK-configured server must not
// enable it either (negotiation is bilateral).
TEST(CongestionE2E, LegacyClientGetsNoSackOption) {
  TestbedConfig cfg;  // both stacks default to kLegacy
  Testbed tb(cfg);
  SegmentTap tap;
  tb.client_tcp().set_tap(&tap);
  RpcOptions opt;
  opt.size = 100;
  opt.iterations = 2;
  opt.warmup = 0;
  RunRpcBenchmark(tb, opt);
  for (const auto& rec : tap.records()) {
    EXPECT_FALSE(rec.header.options.sack_permitted);
    EXPECT_TRUE(rec.header.options.sack.empty());
  }
}

// One mid-stream data cell killed on the client->server fiber: a Reno
// client repairs it with a fast retransmit triggered by duplicate ACKs —
// no retransmission timeout — while the seed's timer floor would otherwise
// stall the transfer.
TEST(CongestionE2E, SingleLossRepairedByFastRetransmitNotTimeout) {
  TestbedConfig cfg;
  cfg.tcp.congestion = CongestionVariant::kReno;
  // Ethernet-sized segments and windows holding many of them — over the
  // 9180-byte ATM MTU with 8 KB buffers a "window" is barely two segments,
  // which can never produce three duplicate ACKs.
  cfg.tcp.mss_clamp = 1460;
  cfg.tcp.sndbuf = 32768;
  cfg.tcp.rcvbuf = 32768;
  Testbed tb(cfg);
  int countdown = 400;  // one cell of roughly the 11th data segment: past
                        // slow start's opening, with a full window behind it
  tb.atm_link()->dir(0).set_corrupt_hook([&countdown](std::vector<uint8_t>& cell) {
    if (--countdown == 0) {
      cell[10] ^= 0xFF;
    }
  });
  RpcOptions opt;
  opt.size = 30000;  // ~21 MSS-sized segments: plenty of dup-ACK fuel
  opt.iterations = 2;
  opt.warmup = 0;
  const RpcResult r = RunRpcBenchmark(tb, opt);
  EXPECT_EQ(r.data_mismatches, 0u);
  EXPECT_GE(tb.client_tcp().stats().fast_retransmits, 1u);
  EXPECT_EQ(tb.client_tcp().stats().rexmt_timeouts, 0u)
      << "a single loss must not cost the retransmission timer";
}

}  // namespace
}  // namespace tcplat
