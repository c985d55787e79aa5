// Tests for the IP layer: output header construction, input validation and
// dispatch, the ipintrq/softint path, and fragmentation/reassembly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "src/base/random.h"
#include "src/ip/ip_stack.h"
#include "src/net/checksum.h"

namespace tcplat {
namespace {

constexpr Ipv4Addr kA = MakeAddr(10, 0, 0, 1);
constexpr Ipv4Addr kB = MakeAddr(10, 0, 0, 2);
constexpr uint8_t kTestProto = 250;

class CaptureNetIf : public NetIf {
 public:
  CaptureNetIf(IpStack* ip, size_t mtu) : ip_(ip), mtu_(mtu) { ip->AttachNetIf(this); }

  std::string name() const override { return "cap0"; }
  size_t mtu() const override { return mtu_; }
  void Output(MbufPtr packet, Ipv4Addr next_hop) override {
    sent.push_back(ChainToVector(packet.get()));
    next_hops.push_back(next_hop);
    ip_->host().pool().FreeChain(std::move(packet));
  }

  std::vector<std::vector<uint8_t>> sent;
  std::vector<Ipv4Addr> next_hops;

 private:
  IpStack* ip_;
  size_t mtu_;
};

class CaptureProto : public IpProtocolHandler {
 public:
  explicit CaptureProto(Host* host) : host_(host) {}
  void IpInput(MbufPtr packet, const Ipv4Header& hdr) override {
    received.push_back(ChainToVector(packet.get()));
    headers.push_back(hdr);
    host_->pool().FreeChain(std::move(packet));
  }
  std::vector<std::vector<uint8_t>> received;
  std::vector<Ipv4Header> headers;

 private:
  Host* host_;
};

class IpTest : public ::testing::Test {
 protected:
  IpTest()
      : host_(&sim_, "h", CostProfile::Decstation5000_200()),
        ip_(&host_, kA),
        nif_(&ip_, /*mtu=*/1500),
        proto_(&host_) {
    ip_.RegisterProtocol(kTestProto, &proto_);
  }

  MbufPtr PayloadChain(std::span<const uint8_t> data, size_t leading = 40) {
    CpuRun run(host_.cpu(), sim_.Now());
    MbufPtr m = host_.pool().GetHeader(leading);
    size_t off = std::min(data.size(), m->trailing_space());
    std::memcpy(m->Append(off).data(), data.data(), off);
    while (off < data.size()) {
      MbufPtr c = host_.pool().GetCluster();
      const size_t take = std::min(data.size() - off, c->capacity());
      std::memcpy(c->Append(take).data(), data.data() + off, take);
      off += take;
      ChainAppend(&m, std::move(c));
    }
    return m;
  }

  void SendPayload(std::span<const uint8_t> data) {
    MbufPtr chain = PayloadChain(data);
    CpuRun run(host_.cpu(), sim_.Now());
    ip_.Output(std::move(chain), kA, kB, kTestProto);
  }

  // Delivers raw packet bytes up through the driver boundary and runs the
  // softint.
  void Deliver(const std::vector<uint8_t>& packet_bytes) {
    CpuRun run(host_.cpu(), sim_.Now());
    MbufPtr head = host_.pool().GetHeader();
    const size_t hdr = std::min<size_t>(kIpv4HeaderBytes, packet_bytes.size());
    std::memcpy(head->Append(hdr).data(), packet_bytes.data(), hdr);
    size_t off = hdr;
    while (off < packet_bytes.size()) {
      MbufPtr m = host_.pool().GetCluster();
      const size_t take = std::min(packet_bytes.size() - off, m->capacity());
      std::memcpy(m->Append(take).data(), packet_bytes.data() + off, take);
      off += take;
      ChainAppend(&head, std::move(m));
    }
    ip_.InputFromDriver(std::move(head));
  }

  std::vector<uint8_t> RandomData(size_t n) {
    Rng rng(n + 7);
    std::vector<uint8_t> buf(n);
    for (auto& b : buf) {
      b = static_cast<uint8_t>(rng.Next());
    }
    return buf;
  }

  Simulator sim_;
  Host host_;
  IpStack ip_;
  CaptureNetIf nif_;
  CaptureProto proto_;
};

TEST_F(IpTest, OutputBuildsValidHeader) {
  const auto data = RandomData(100);
  SendPayload(data);
  ASSERT_EQ(nif_.sent.size(), 1u);
  const auto& pkt = nif_.sent[0];
  ASSERT_EQ(pkt.size(), 120u);
  auto hdr = Ipv4Header::Parse(pkt);
  ASSERT_TRUE(hdr.has_value());
  EXPECT_EQ(hdr->total_length, 120);
  EXPECT_EQ(hdr->protocol, kTestProto);
  EXPECT_EQ(hdr->src, kA);
  EXPECT_EQ(hdr->dst, kB);
  EXPECT_TRUE(Ipv4Header::VerifyChecksum(pkt));
  EXPECT_TRUE(std::equal(data.begin(), data.end(), pkt.begin() + kIpv4HeaderBytes));
  EXPECT_EQ(nif_.next_hops[0], kB);
}

TEST_F(IpTest, OutputIdsIncrement) {
  SendPayload(RandomData(10));
  SendPayload(RandomData(10));
  const auto h0 = Ipv4Header::Parse(nif_.sent[0]);
  const auto h1 = Ipv4Header::Parse(nif_.sent[1]);
  EXPECT_NE(h0->id, h1->id);
}

TEST_F(IpTest, OutputWithoutLeadingSpacePrependsHeaderMbuf) {
  const auto data = RandomData(50);
  MbufPtr chain = PayloadChain(data, /*leading=*/0);
  {
    CpuRun run(host_.cpu(), sim_.Now());
    ip_.Output(std::move(chain), kA, kB, kTestProto);
  }
  ASSERT_EQ(nif_.sent.size(), 1u);
  EXPECT_EQ(nif_.sent[0].size(), 70u);
  EXPECT_TRUE(Ipv4Header::VerifyChecksum(nif_.sent[0]));
}

TEST_F(IpTest, InputDispatchesToProtocol) {
  const auto data = RandomData(200);
  {
    MbufPtr chain = PayloadChain(data);
    CpuRun run(host_.cpu(), sim_.Now());
    ip_.Output(std::move(chain), kA, kA, kTestProto);  // addressed to ourselves
  }
  Deliver(nif_.sent[0]);
  sim_.RunToCompletion();
  ASSERT_EQ(proto_.received.size(), 1u);
  // The handler sees the whole packet (header still present).
  EXPECT_EQ(proto_.received[0], nif_.sent[0]);
  EXPECT_EQ(proto_.headers[0].protocol, kTestProto);
  EXPECT_EQ(ip_.stats().packets_received, 1u);
}

TEST_F(IpTest, InputDropsBadHeaderChecksum) {
  SendPayload(RandomData(50));
  auto pkt = nif_.sent[0];
  pkt[12] ^= 0xFF;  // src address byte
  Deliver(pkt);
  sim_.RunToCompletion();
  EXPECT_TRUE(proto_.received.empty());
  EXPECT_EQ(ip_.stats().header_checksum_errors, 1u);
}

TEST_F(IpTest, InputDropsWrongDestination) {
  // Build a packet addressed elsewhere (swap src/dst: dst=kB != our kA...
  // our stack is kA, so a packet to kB must be dropped).
  SendPayload(RandomData(50));
  Deliver(nif_.sent[0]);  // dst is kB, we are kA
  sim_.RunToCompletion();
  EXPECT_TRUE(proto_.received.empty());
  EXPECT_EQ(ip_.stats().not_for_us, 1u);
}

TEST_F(IpTest, InputDropsUnknownProtocol) {
  const auto data = RandomData(30);
  MbufPtr chain = PayloadChain(data);
  {
    CpuRun run(host_.cpu(), sim_.Now());
    ip_.Output(std::move(chain), kA, kA, 99);  // to ourselves, proto 99
  }
  Deliver(nif_.sent[0]);
  sim_.RunToCompletion();
  EXPECT_TRUE(proto_.received.empty());
  EXPECT_EQ(ip_.stats().no_protocol, 1u);
}

// A packet addressed to ourselves, as the receive tests need.
class IpLoopTest : public IpTest {
 protected:
  void SendToSelf(std::span<const uint8_t> data) {
    MbufPtr chain = PayloadChain(data);
    CpuRun run(host_.cpu(), sim_.Now());
    ip_.Output(std::move(chain), kA, kA, kTestProto);
  }
};

TEST_F(IpLoopTest, LinkPaddingIsTrimmedByTotalLength) {
  const auto data = RandomData(20);
  SendToSelf(data);
  auto pkt = nif_.sent[0];
  pkt.resize(pkt.size() + 6, 0xEE);  // Ethernet-style minimum-frame padding
  Deliver(pkt);
  sim_.RunToCompletion();
  ASSERT_EQ(proto_.received.size(), 1u);
  EXPECT_EQ(proto_.received[0].size(), 40u);  // header + 20, padding gone
}

TEST_F(IpLoopTest, IpqIntervalIsMeasured) {
  SendToSelf(RandomData(10));
  Deliver(nif_.sent[0]);
  sim_.RunToCompletion();
  EXPECT_EQ(host_.tracker().count(SpanId::kRxIpq), 1u);
  // At least the softint dispatch latency.
  EXPECT_GE(host_.tracker().total(SpanId::kRxIpq).micros(),
            host_.cpu().profile().softint_dispatch.fixed_us - 0.01);
}

TEST_F(IpLoopTest, FragmentsLargePacketCorrectly) {
  const auto data = RandomData(3000);
  SendToSelf(data);
  // MTU 1500: fragment payload cap = 1480 -> 1480 + 1480 + 40.
  ASSERT_EQ(nif_.sent.size(), 3u);
  EXPECT_EQ(ip_.stats().fragments_sent, 3u);
  size_t reassembled_bytes = 0;
  uint16_t common_id = Ipv4Header::Parse(nif_.sent[0])->id;
  for (size_t i = 0; i < 3; ++i) {
    auto h = Ipv4Header::Parse(nif_.sent[i]);
    ASSERT_TRUE(h.has_value());
    EXPECT_LE(h->total_length, 1500);
    EXPECT_EQ(h->id, common_id);
    EXPECT_EQ(h->more_fragments, i != 2);
    EXPECT_EQ(h->frag_offset * 8, reassembled_bytes);
    reassembled_bytes += h->total_length - kIpv4HeaderBytes;
  }
  EXPECT_EQ(reassembled_bytes, 3000u);
}

TEST_F(IpLoopTest, ReassemblesInOrderFragments) {
  const auto data = RandomData(3000);
  SendToSelf(data);
  for (const auto& frag : nif_.sent) {
    Deliver(frag);
  }
  sim_.RunToCompletion();
  ASSERT_EQ(proto_.received.size(), 1u);
  EXPECT_EQ(ip_.stats().reassembled, 1u);
  const auto& pkt = proto_.received[0];
  ASSERT_EQ(pkt.size(), 3020u);
  EXPECT_TRUE(std::equal(data.begin(), data.end(), pkt.begin() + kIpv4HeaderBytes));
  EXPECT_EQ(ip_.pending_reassemblies(), 0u);
}

TEST_F(IpLoopTest, ReassemblesOutOfOrderFragments) {
  const auto data = RandomData(4000);
  SendToSelf(data);
  ASSERT_EQ(nif_.sent.size(), 3u);
  Deliver(nif_.sent[2]);
  Deliver(nif_.sent[0]);
  Deliver(nif_.sent[1]);
  sim_.RunToCompletion();
  ASSERT_EQ(proto_.received.size(), 1u);
  const auto& pkt = proto_.received[0];
  EXPECT_TRUE(std::equal(data.begin(), data.end(), pkt.begin() + kIpv4HeaderBytes));
}

TEST_F(IpLoopTest, MissingFragmentHoldsReassembly) {
  SendToSelf(RandomData(3000));
  Deliver(nif_.sent[0]);
  Deliver(nif_.sent[2]);
  sim_.RunToCompletion();
  EXPECT_TRUE(proto_.received.empty());
  EXPECT_EQ(ip_.pending_reassemblies(), 1u);
}

// One fragment of a kTestProto datagram from kA to itself: `data` at byte
// `offset` (a multiple of 8).
std::vector<uint8_t> FragmentPacket(uint16_t id, size_t offset, std::span<const uint8_t> data,
                                    bool more_fragments) {
  Ipv4Header h;
  h.total_length = static_cast<uint16_t>(kIpv4HeaderBytes + data.size());
  h.id = id;
  h.more_fragments = more_fragments;
  h.frag_offset = static_cast<uint16_t>(offset / 8);
  h.protocol = kTestProto;
  h.src = kA;
  h.dst = kA;
  h.FillChecksum();
  std::vector<uint8_t> pkt(kIpv4HeaderBytes + data.size());
  h.Serialize(pkt);
  std::copy(data.begin(), data.end(), pkt.begin() + kIpv4HeaderBytes);
  return pkt;
}

// A fragment that arrives twice is held once: the datagram still completes
// and its reassembly state is freed.
TEST_F(IpLoopTest, DuplicateFragmentDoesNotWedgeReassembly) {
  const auto data = RandomData(3000);
  SendToSelf(data);
  ASSERT_EQ(nif_.sent.size(), 3u);
  Deliver(nif_.sent[0]);
  Deliver(nif_.sent[0]);
  Deliver(nif_.sent[1]);
  Deliver(nif_.sent[2]);
  sim_.RunToCompletion();
  ASSERT_EQ(proto_.received.size(), 1u);
  ASSERT_EQ(proto_.received[0].size(), data.size() + kIpv4HeaderBytes);
  EXPECT_TRUE(std::equal(data.begin(), data.end(), proto_.received[0].begin() + kIpv4HeaderBytes));
  EXPECT_EQ(ip_.pending_reassemblies(), 0u);
}

// Fragments that tile past 65,535 bytes describe a datagram total_length
// cannot carry: it is discarded with its state, not delivered with a
// wrapped length.
TEST_F(IpLoopTest, OverlongDatagramIsDiscarded) {
  const auto chunk = RandomData(1480);
  for (size_t i = 0; i < 45; ++i) {
    Deliver(FragmentPacket(/*id=*/77, i * chunk.size(), chunk, /*more_fragments=*/i + 1 < 45));
  }
  sim_.RunToCompletion();
  EXPECT_TRUE(proto_.received.empty());
  EXPECT_EQ(ip_.pending_reassemblies(), 0u);
}

// Seeded fuzzing of reassembly. Each round cuts a random datagram into
// fragments on 8-byte boundaries, then drops, duplicates and reorders them,
// adds overlapping fragments cut from the same bytes, and moves some to
// offsets whose end lies past 65,535. Every delivered datagram must be the
// original, and none may exceed 65,535 bytes; a round whose fragments all
// sit in place and cover the datagram must deliver it.
TEST_F(IpLoopTest, MutatedFragmentStreamsDeliverOnlyTheOriginal) {
  struct Frag {
    size_t offset;  // where the fragment claims to sit
    size_t from;    // where its bytes come from in the datagram
    size_t len;
    bool more;
  };
  Rng rng(20261021);
  size_t delivered = 0;
  for (int round = 0; round < 5000; ++round) {
    const uint16_t id = static_cast<uint16_t>(round + 1);
    const size_t n = 1 + rng.NextBelow(4000);
    const auto data = RandomData(n);
    auto cut = [&](size_t from) {
      const size_t len = std::min(n - from, 8 * (1 + rng.NextBelow(185)));
      return Frag{from, from, len, from + len < n};
    };
    std::vector<Frag> frags;
    for (size_t off = 0; off < n; off += frags.back().len) {
      frags.push_back(cut(off));
    }
    const uint64_t edits = 1 + rng.NextBelow(4);
    for (uint64_t e = 0; e < edits && !frags.empty(); ++e) {
      const size_t i = rng.NextBelow(frags.size());
      const size_t j = rng.NextBelow(frags.size() + 1);
      switch (rng.NextBelow(5)) {
        case 0:
          frags.erase(frags.begin() + static_cast<ptrdiff_t>(i));
          break;
        case 1: {
          const Frag copy = frags[i];
          frags.insert(frags.begin() + static_cast<ptrdiff_t>(j), copy);
          break;
        }
        case 2:
          std::swap(frags[i], frags[std::min(j, frags.size() - 1)]);
          break;
        case 3: {
          const Frag overlap = cut(8 * rng.NextBelow((n + 7) / 8));
          frags.insert(frags.begin() + static_cast<ptrdiff_t>(j), overlap);
          break;
        }
        default:
          if (frags[i].len >= 8) {
            frags[i].offset = 65528 - 8 * rng.NextBelow((frags[i].len - 8) / 8 + 1);
          }
          break;
      }
    }

    const size_t before = proto_.received.size();
    std::vector<bool> covered(n, false);
    bool in_place = true;
    for (const Frag& f : frags) {
      Deliver(FragmentPacket(id, f.offset, std::span(data).subspan(f.from, f.len), f.more));
      std::fill_n(covered.begin() + static_cast<ptrdiff_t>(f.from), f.len, true);
      in_place = in_place && f.offset == f.from;
    }
    sim_.RunToCompletion();
    if (in_place && std::all_of(covered.begin(), covered.end(), [](bool b) { return b; })) {
      ASSERT_GT(proto_.received.size(), before) << "round " << round << " was not delivered";
    }
    for (size_t r = before; r < proto_.received.size(); ++r) {
      const std::vector<uint8_t>& pkt = proto_.received[r];
      ASSERT_EQ(pkt.size(), n + kIpv4HeaderBytes) << "round " << round;
      ASSERT_EQ(proto_.headers[r].total_length, pkt.size()) << "round " << round;
      ASSERT_TRUE(std::equal(data.begin(), data.end(), pkt.begin() + kIpv4HeaderBytes))
          << "round " << round;
      ++delivered;
    }
  }
  EXPECT_GT(delivered, 200u);
}

class IpFragSizeTest : public IpLoopTest, public ::testing::WithParamInterface<size_t> {};

TEST_P(IpFragSizeTest, RoundTripsThroughFragmentation) {
  const auto data = RandomData(GetParam());
  SendToSelf(data);
  for (const auto& frag : nif_.sent) {
    Deliver(frag);
  }
  sim_.RunToCompletion();
  ASSERT_EQ(proto_.received.size(), 1u);
  const auto& pkt = proto_.received[0];
  ASSERT_EQ(pkt.size(), data.size() + kIpv4HeaderBytes);
  EXPECT_TRUE(std::equal(data.begin(), data.end(), pkt.begin() + kIpv4HeaderBytes));
}

INSTANTIATE_TEST_SUITE_P(Sizes, IpFragSizeTest,
                         ::testing::Values(100, 1480, 1481, 2960, 2961, 5000, 8000),
                         [](const auto& inst) { return "n" + std::to_string(inst.param); });

}  // namespace
}  // namespace tcplat
