// Adversarial robustness: the stack must survive arbitrary garbage — random
// packets injected below IP, random bit damage to real traffic with all
// checks disabled, malformed headers — without crashing, deadlocking, or
// leaking mbufs. (With checksums off, *data* corruption is expected; crashes
// are not.)

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/base/random.h"
#include "src/core/rpc_benchmark.h"
#include "src/core/testbed.h"

namespace tcplat {
namespace {

// Injects one raw "packet" of arbitrary bytes at the driver/IP boundary.
void InjectRaw(Testbed& tb, std::span<const uint8_t> bytes) {
  Host& h = tb.server_host();
  CpuRun run(h.cpu(), tb.sim().Now());
  MbufPtr head = h.pool().GetHeader();
  const size_t first = std::min(bytes.size(), head->trailing_space());
  std::memcpy(head->Append(first).data(), bytes.data(), first);
  size_t off = first;
  while (off < bytes.size()) {
    MbufPtr m = h.pool().GetCluster();
    const size_t take = std::min(bytes.size() - off, m->capacity());
    std::memcpy(m->Append(take).data(), bytes.data() + off, take);
    off += take;
    ChainAppend(&head, std::move(m));
  }
  tb.server_ip().InputFromDriver(std::move(head));
}

TEST(Robustness, RandomGarbagePacketsDoNotCrashOrLeak) {
  Testbed tb{TestbedConfig{}};
  Rng rng(42);
  for (int i = 0; i < 2000; ++i) {
    std::vector<uint8_t> junk(20 + rng.NextBelow(200));
    for (auto& b : junk) {
      b = static_cast<uint8_t>(rng.Next());
    }
    InjectRaw(tb, junk);
    tb.sim().RunToCompletion();
  }
  EXPECT_EQ(tb.server_host().pool().stats().in_use, 0) << "garbage leaked mbufs";
}

TEST(Robustness, ValidIpHeaderGarbageTcpPayload) {
  Testbed tb{TestbedConfig{}};
  // A listener so segments reach TCP demux and the listen path.
  tb.server_tcp().Listen(kEchoPort);
  Rng rng(77);
  for (int i = 0; i < 2000; ++i) {
    const size_t tcp_len = 20 + rng.NextBelow(80);
    std::vector<uint8_t> pkt(kIpv4HeaderBytes + tcp_len);
    for (auto& b : pkt) {
      b = static_cast<uint8_t>(rng.Next());
    }
    Ipv4Header iph;
    iph.total_length = static_cast<uint16_t>(pkt.size());
    iph.protocol = kIpProtoTcp;
    iph.src = kClientAddr;
    iph.dst = kServerAddr;
    iph.FillChecksum();
    iph.Serialize(pkt);
    // Sometimes make the destination port the live listener's.
    if (rng.NextBool(0.5)) {
      pkt[22] = static_cast<uint8_t>(kEchoPort >> 8);
      pkt[23] = static_cast<uint8_t>(kEchoPort & 0xFF);
    }
    InjectRaw(tb, pkt);
    tb.sim().RunToCompletion();
  }
  EXPECT_EQ(tb.server_host().pool().stats().in_use, 0);
}

TEST(Robustness, TruncatedTcpHeadersDropped) {
  Testbed tb{TestbedConfig{}};
  for (size_t tcp_len : {0u, 1u, 10u, 19u}) {
    std::vector<uint8_t> pkt(kIpv4HeaderBytes + tcp_len, 0xAA);
    Ipv4Header iph;
    iph.total_length = static_cast<uint16_t>(pkt.size());
    iph.protocol = kIpProtoTcp;
    iph.src = kClientAddr;
    iph.dst = kServerAddr;
    iph.FillChecksum();
    iph.Serialize(pkt);
    InjectRaw(tb, pkt);
    tb.sim().RunToCompletion();
  }
  EXPECT_EQ(tb.server_host().pool().stats().in_use, 0);
}

TEST(Robustness, NoChecksumModeSurvivesCorruptionWithoutCrashing) {
  // With the TCP checksum negotiated off and CRC-invisible link damage,
  // corrupted bytes reach the application (that is §4.2.1's point) — but
  // nothing may crash, deadlock, or leak, and the header-level sanity
  // checks still bound the damage.
  TestbedConfig cfg;
  cfg.tcp.checksum = ChecksumMode::kNone;
  Testbed tb(cfg);
  auto rng = std::make_shared<Rng>(11);
  tb.atm_link()->dir(0).set_corrupt_hook([rng](std::vector<uint8_t>& cell) {
    if (rng->NextBool(0.01)) {
      // Damage payload bytes only, in a CRC-defeating generator pattern.
      constexpr uint32_t kGen = 0x633;
      const size_t first = kSarHeaderBytes * 8;
      const size_t last = (kSarHeaderBytes + kSarPayloadBytes) * 8 - 11;
      const size_t off = first + rng->NextBelow(last - first);
      for (int i = 0; i < 11; ++i) {
        if ((kGen >> (10 - i)) & 1) {
          const size_t bit = off + static_cast<size_t>(i);
          cell[kAtmCellHeaderBytes + bit / 8] ^=
              static_cast<uint8_t>(0x80u >> (bit % 8));
        }
      }
    }
  });
  RpcOptions opt;
  opt.size = 1400;
  opt.iterations = 300;
  opt.warmup = 4;
  const RpcResult r = RunRpcBenchmark(tb, opt);
  EXPECT_GT(r.data_mismatches, 0u) << "corruption should reach the app in this mode";
  EXPECT_EQ(r.rtt.count(), 300u) << "...but the stream itself must survive";
}

TEST(Robustness, ChaosMixedSizesUnderLossWithChecksums) {
  // Property: with checksums ON, no corruption ever reaches the app, no
  // matter the mix of message sizes or the (CRC-visible) loss pattern —
  // TCP masks everything with retransmission.
  TestbedConfig cfg;
  Testbed tb(cfg);
  auto rng = std::make_shared<Rng>(2026);
  tb.atm_link()->dir(0).set_corrupt_hook([rng](std::vector<uint8_t>& cell) {
    if (rng->NextBool(0.001)) {
      cell[17] ^= 0x04;
    }
  });
  tb.atm_link()->dir(1).set_corrupt_hook([rng](std::vector<uint8_t>& cell) {
    if (rng->NextBool(0.001)) {
      cell[33] ^= 0x40;
    }
  });

  struct Chaos {
    static SimTask Server(Testbed* t, int rounds, bool* ok) {
      Socket* listener = t->server_tcp().Listen(kEchoPort);
      Socket* s = nullptr;
      while (s == nullptr) {
        s = listener->Accept();
        if (s == nullptr) {
          co_await listener->WaitAcceptable();
        }
      }
      Rng sizes(99);
      std::vector<uint8_t> buf(16384);
      for (int i = 0; i < rounds; ++i) {
        const size_t size = 1 + sizes.NextBelow(8192);
        size_t got = 0;
        while (got < size) {
          const size_t n = s->Read({buf.data() + got, size - got});
          got += n;
          if (n == 0) {
            if (s->eof() || s->has_error()) {
              co_return;
            }
            co_await s->WaitReadable();
          }
        }
        size_t sent = 0;
        while (sent < size) {
          const size_t w = s->Write({buf.data() + sent, size - sent});
          sent += w;
          if (w == 0) {
            co_await s->WaitWritable();
          }
        }
      }
      *ok = true;
    }
    static SimTask Client(Testbed* t, int rounds, uint64_t* mismatches, bool* ok) {
      Socket* s = t->client_tcp().Connect(SockAddr{kServerAddr, kEchoPort});
      while (!s->connected() && !s->has_error()) {
        co_await s->WaitConnected();
      }
      Rng sizes(99);   // same sequence as the server
      Rng fill(1001);
      std::vector<uint8_t> out(16384);
      std::vector<uint8_t> in(16384);
      for (int i = 0; i < rounds; ++i) {
        const size_t size = 1 + sizes.NextBelow(8192);
        for (size_t b = 0; b < size; ++b) {
          out[b] = static_cast<uint8_t>(fill.Next());
        }
        size_t sent = 0;
        while (sent < size) {
          const size_t w = s->Write({out.data() + sent, size - sent});
          sent += w;
          if (w == 0) {
            co_await s->WaitWritable();
          }
        }
        size_t got = 0;
        while (got < size) {
          const size_t n = s->Read({in.data() + got, size - got});
          got += n;
          if (n == 0) {
            if (s->eof() || s->has_error()) {
              co_return;
            }
            co_await s->WaitReadable();
          }
        }
        if (std::memcmp(in.data(), out.data(), size) != 0) {
          ++*mismatches;
        }
      }
      s->Close();
      *ok = true;
    }
  };

  constexpr int kRounds = 150;
  bool server_ok = false;
  bool client_ok = false;
  uint64_t mismatches = 0;
  tb.server_host().Spawn("chaos-s", Chaos::Server(&tb, kRounds, &server_ok));
  tb.client_host().Spawn("chaos-c", Chaos::Client(&tb, kRounds, &mismatches, &client_ok));
  tb.sim().RunToCompletion();
  EXPECT_TRUE(server_ok);
  EXPECT_TRUE(client_ok);
  EXPECT_EQ(mismatches, 0u);
  // The noise actually did something.
  EXPECT_GT(tb.client_atm()->sar_stats().crc_errors +
                tb.server_atm()->sar_stats().crc_errors,
            0u);
}

TEST(Robustness, ManySimultaneousConnections) {
  Testbed tb{TestbedConfig{}};
  constexpr int kConns = 40;
  struct State {
    int completed = 0;
  } state;
  struct Procs {
    static SimTask Server(Testbed* tb, int conns, State* st) {
      Socket* listener = tb->server_tcp().Listen(kEchoPort);
      std::vector<Socket*> accepted;
      while (static_cast<int>(accepted.size()) < conns) {
        Socket* s = listener->Accept();
        if (s == nullptr) {
          co_await listener->WaitAcceptable();
          continue;
        }
        accepted.push_back(s);
        std::vector<uint8_t> buf(64);
        size_t n = 0;
        while ((n = s->Read(buf)) == 0) {
          co_await s->WaitReadable();
        }
        size_t sent = 0;
        while (sent < n) {
          sent += s->Write({buf.data() + sent, n - sent});
        }
        ++st->completed;
      }
    }
    static SimTask Client(Testbed* tb, int index) {
      Socket* s = tb->client_tcp().Connect(SockAddr{kServerAddr, kEchoPort});
      while (!s->connected() && !s->has_error()) {
        co_await s->WaitConnected();
      }
      std::vector<uint8_t> msg(32, static_cast<uint8_t>(index));
      s->Write(msg);
      std::vector<uint8_t> buf(64);
      size_t n = 0;
      while ((n = s->Read(buf)) == 0 && !s->eof() && !s->has_error()) {
        co_await s->WaitReadable();
      }
      EXPECT_EQ(n, 32u);
      s->Close();
    }
  };
  tb.server_host().Spawn("multi-server", Procs::Server(&tb, kConns, &state));
  for (int i = 0; i < kConns; ++i) {
    tb.client_host().Spawn(std::string("c").append(std::to_string(i)), Procs::Client(&tb, i));
  }
  tb.sim().RunToCompletion();
  EXPECT_EQ(state.completed, kConns);
  // Sequential serving means later connections' SYNs may retransmit, but
  // everyone gets through and the PCB table saw 40 distinct connections.
  EXPECT_EQ(tb.server_tcp().stats().conns_established, static_cast<uint64_t>(kConns));
}

}  // namespace
}  // namespace tcplat
