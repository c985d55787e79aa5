// Tests for the Ethernet baseline: frame construction with FCS, hardware
// CRC filtering, destination-MAC filtering with a third station on the bus,
// minimum-frame padding, half-duplex serialization timing, and seeded
// fuzzing of the receive path.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/base/random.h"
#include "src/core/rpc_benchmark.h"
#include "src/core/testbed.h"
#include "src/ether/arp.h"
#include "src/net/byte_order.h"
#include "src/net/crc.h"
#include "tests/mutate.h"

namespace tcplat {
namespace {

TEST(Ether, FramesCarryValidFcs) {
  TestbedConfig cfg;
  cfg.network = NetworkKind::kEthernet;
  Testbed tb(cfg);
  // Capture raw frames off the bus.
  std::vector<std::vector<uint8_t>> frames;
  tb.ether_segment()->set_corrupt_hook(
      [&frames](std::vector<uint8_t>& frame) { frames.push_back(frame); });
  RpcOptions opt;
  opt.size = 200;
  opt.iterations = 5;
  opt.warmup = 0;
  RunRpcBenchmark(tb, opt);
  ASSERT_GT(frames.size(), 8u);
  for (const auto& f : frames) {
    ASSERT_GE(f.size(), kEtherHeaderBytes + kEtherMinPayload + kEtherCrcBytes);
    const size_t fcs_off = f.size() - kEtherCrcBytes;
    EXPECT_EQ(Crc32({f.data(), fcs_off}),
              (static_cast<uint32_t>(f[fcs_off]) << 24) |
                  (static_cast<uint32_t>(f[fcs_off + 1]) << 16) |
                  (static_cast<uint32_t>(f[fcs_off + 2]) << 8) | f[fcs_off + 3]);
    auto hdr = EtherHeader::Parse(f);
    ASSERT_TRUE(hdr.has_value());
    EXPECT_EQ(hdr->ethertype, kEtherTypeIpv4);
  }
}

TEST(Ether, MinimumFramePaddingForTinySegments) {
  TestbedConfig cfg;
  cfg.network = NetworkKind::kEthernet;
  Testbed tb(cfg);
  size_t min_frame = SIZE_MAX;
  tb.ether_segment()->set_corrupt_hook([&min_frame](std::vector<uint8_t>& frame) {
    min_frame = std::min(min_frame, frame.size());
  });
  RpcOptions opt;
  opt.size = 4;  // IP(20)+TCP(20)+4 = 44 < the 46-byte minimum payload
  opt.iterations = 5;
  const RpcResult r = RunRpcBenchmark(tb, opt);
  EXPECT_EQ(r.data_mismatches, 0u) << "padding must be trimmed by total_length";
  EXPECT_EQ(min_frame, kEtherHeaderBytes + kEtherMinPayload + kEtherCrcBytes);
}

TEST(Ether, CorruptedFrameDroppedByHardwareCrc) {
  TestbedConfig cfg;
  cfg.network = NetworkKind::kEthernet;
  Testbed tb(cfg);
  int countdown = 12;
  tb.ether_segment()->set_corrupt_hook([&countdown](std::vector<uint8_t>& frame) {
    if (--countdown == 0) {
      frame[frame.size() / 2] ^= 0x08;
    }
  });
  RpcOptions opt;
  opt.size = 500;
  opt.iterations = 30;
  const RpcResult r = RunRpcBenchmark(tb, opt);
  EXPECT_EQ(r.data_mismatches, 0u);
  EXPECT_EQ(tb.client_ether()->stats().crc_errors + tb.server_ether()->stats().crc_errors, 1u);
  EXPECT_GE(r.client_tcp.rexmt_timeouts + r.server_tcp.rexmt_timeouts, 1u)
      << "the lost frame must be recovered by retransmission";
}

TEST(Ether, ThirdStationFiltersForeignTraffic) {
  TestbedConfig cfg;
  cfg.network = NetworkKind::kEthernet;
  Testbed tb(cfg);
  // A bystander NIC on the same segment with its own host and IP stack.
  Host snooper_host(&tb.sim(), "snooper", CostProfile::Decstation5000_200());
  IpStack snooper_ip(&snooper_host, MakeAddr(10, 0, 0, 3));
  EtherNetIf snooper(&snooper_ip, &snooper_host, tb.ether_segment(),
                     MacAddr{0x02, 0, 0, 0, 0, 3});
  RpcOptions opt;
  opt.size = 200;
  opt.iterations = 20;
  const RpcResult r = RunRpcBenchmark(tb, opt);
  EXPECT_EQ(r.data_mismatches, 0u);
  EXPECT_GT(snooper.stats().not_for_us, 0u) << "the bystander saw the frames";
  EXPECT_EQ(snooper.stats().frames_received, 0u) << "...but accepted none";
  EXPECT_EQ(snooper_ip.stats().packets_received, 0u);
}

TEST(Ether, HalfDuplexSerializesTheBus) {
  // Both directions share one 10 Mbit/s medium: a frame requested while
  // another is on the wire waits its turn (plus preamble + IFG).
  Simulator sim;
  EtherSegment segment(&sim, SimDuration::FromNanos(300));
  const SimTime first = segment.Transmit(SimTime(), std::vector<uint8_t>(1000, 0));
  const SimTime second = segment.Transmit(SimTime(), std::vector<uint8_t>(1000, 0));
  // 1000 + 20 gap bytes at 10 Mbit/s = 816 us each.
  EXPECT_NEAR(first.micros(), 816.0, 1.0);
  EXPECT_NEAR(second.micros(), 1632.0, 1.0);
  sim.RunToCompletion();
}

TEST(Ether, MtuEnforced) {
  TestbedConfig cfg;
  cfg.network = NetworkKind::kEthernet;
  Testbed tb(cfg);
  EXPECT_EQ(tb.client_ether()->mtu(), kEtherMtu);
  // MSS negotiation already clamps TCP segments; verify the driver agrees
  // with the interface contract.
  RpcOptions opt;
  opt.size = 8000;
  opt.iterations = 5;
  const RpcResult r = RunRpcBenchmark(tb, opt);
  EXPECT_EQ(r.data_mismatches, 0u);
}

// Rewrites the last four bytes as the FCS of the rest.
void RecomputeFcs(std::vector<uint8_t>& frame) {
  const size_t fcs_off = frame.size() - kEtherCrcBytes;
  StoreBe32(frame.data() + fcs_off, Crc32({frame.data(), fcs_off}));
}

// A minimum-size ARP frame from `src` to `dst`.
std::vector<uint8_t> ArpFrame(const ArpPacket& arp, const MacAddr& dst, const MacAddr& src) {
  std::vector<uint8_t> frame(kEtherHeaderBytes + kEtherMinPayload + kEtherCrcBytes, 0);
  EtherHeader eh;
  eh.dst = dst;
  eh.src = src;
  eh.ethertype = kEtherTypeArp;
  eh.Serialize(frame);
  const std::vector<uint8_t> payload = arp.Serialize();
  std::copy(payload.begin(), payload.end(), frame.begin() + kEtherHeaderBytes);
  RecomputeFcs(frame);
  return frame;
}

// Seeded mutation fuzzing of the receive path: the FCS check,
// EtherHeader::Parse, ArpPacket::Parse and the hand-off to IP. The corpus is
// every frame of two echo runs (a 4-byte exchange in minimum-size frames and
// a 1400-byte one in full frames) plus an ARP request and reply. Half the
// mutants keep the original FCS: if their bytes changed, the adapter's CRC
// check must stop them before the interface counts a received frame. The
// other half get a fresh FCS and reach the parsers behind it.
TEST(Ether, MutatedFramesWithAStaleFcsNeverReachIp) {
  TestbedConfig cfg;
  cfg.network = NetworkKind::kEthernet;
  std::vector<std::vector<uint8_t>> corpus;
  {
    Testbed tb(cfg);
    tb.ether_segment()->set_corrupt_hook(
        [&corpus](std::vector<uint8_t>& frame) { corpus.push_back(frame); });
    RpcOptions opt;
    opt.warmup = 0;
    opt.iterations = 2;
    for (size_t size : {4, 1400}) {
      opt.size = size;
      RunRpcBenchmark(tb, opt);
    }
  }

  Testbed tb(cfg);
  const MacAddr client_mac = tb.client_ether()->mac();
  const MacAddr server_mac = tb.server_ether()->mac();
  ArpPacket who_has;
  who_has.op = ArpOp::kRequest;
  who_has.sender_mac = client_mac;
  who_has.sender_ip = kClientAddr;
  who_has.target_ip = kServerAddr;
  corpus.push_back(ArpFrame(who_has, kBroadcastMac, client_mac));
  ArpPacket reply;
  reply.op = ArpOp::kReply;
  reply.sender_mac = server_mac;
  reply.sender_ip = kServerAddr;
  reply.target_mac = client_mac;
  reply.target_ip = kClientAddr;
  corpus.push_back(ArpFrame(reply, client_mac, server_mac));
  ASSERT_GT(corpus.size(), 10u);

  const auto frames_received = [&tb] {
    return tb.client_ether()->stats().frames_received +
           tb.server_ether()->stats().frames_received;
  };
  Rng rng(20261017);
  int stale_changed = 0;
  uint64_t fresh_received = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    const std::vector<uint8_t>& original = corpus[rng.NextBelow(corpus.size())];
    std::vector<uint8_t> mutant = original;
    Mutate(rng, &mutant);
    if (mutant.empty()) {
      continue;  // the bus never carries an empty frame
    }
    const bool stale = iter % 2 == 0;
    if (!stale && mutant.size() >= kEtherCrcBytes) {
      RecomputeFcs(mutant);
    }
    const bool changed = mutant != original;
    const uint64_t before = frames_received();
    tb.ether_segment()->Transmit(tb.sim().Now(), std::move(mutant));
    tb.sim().RunToCompletion();
    if (stale && changed) {
      ++stale_changed;
      ASSERT_EQ(frames_received(), before) << "mutant " << iter << " passed a stale FCS";
    } else if (!stale) {
      fresh_received += frames_received() - before;
    }
  }
  EXPECT_GT(stale_changed, 9000);
  EXPECT_GT(fresh_received, 1000u) << "the recomputed-FCS half must get past the FCS check";
}

}  // namespace
}  // namespace tcplat
