// TCP behavior tests over the full simulated testbed: handshake, data
// integrity, Nagle/delayed-ACK dynamics, header prediction, checksum
// negotiation, loss recovery, teardown, and resource hygiene.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/base/random.h"
#include "src/core/testbed.h"
#include "src/os/task.h"

namespace tcplat {
namespace {

std::vector<uint8_t> RandomData(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> buf(n);
  for (auto& b : buf) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return buf;
}

// --- reusable process bodies ---

struct Endpoint {
  Socket* sock = nullptr;
  std::vector<uint8_t> received;
  bool done = false;
  bool error = false;
};

SimTask ConnectSendRecv(Testbed* tb, Endpoint* ep, std::vector<uint8_t> to_send,
                        size_t expect_bytes, bool close_when_done) {
  Socket* s = tb->client_tcp().Connect(SockAddr{kServerAddr, kEchoPort});
  ep->sock = s;
  while (!s->connected() && !s->has_error()) {
    co_await s->WaitConnected();
  }
  if (s->has_error()) {
    ep->error = true;
    ep->done = true;
    co_return;
  }
  size_t sent = 0;
  while (sent < to_send.size()) {
    const size_t n = s->Write({to_send.data() + sent, to_send.size() - sent});
    sent += n;
    if (n == 0) {
      if (s->has_error()) {
        ep->error = true;
        ep->done = true;
        co_return;
      }
      co_await s->WaitWritable();
    }
  }
  std::vector<uint8_t> buf(4096);
  while (ep->received.size() < expect_bytes) {
    const size_t n = s->Read({buf.data(), buf.size()});
    if (n > 0) {
      ep->received.insert(ep->received.end(), buf.begin(), buf.begin() + n);
    } else {
      if (s->eof() || s->has_error()) {
        break;
      }
      co_await s->WaitReadable();
    }
  }
  if (close_when_done) {
    s->Close();
  }
  ep->done = true;
}

SimTask AcceptEchoAll(Testbed* tb, Endpoint* ep, size_t expect_bytes) {
  Socket* listener = tb->server_tcp().Listen(kEchoPort);
  Socket* s = nullptr;
  while (s == nullptr) {
    s = listener->Accept();
    if (s == nullptr) {
      co_await listener->WaitAcceptable();
    }
  }
  ep->sock = s;
  std::vector<uint8_t> buf(4096);
  while (ep->received.size() < expect_bytes) {
    const size_t n = s->Read({buf.data(), buf.size()});
    if (n > 0) {
      size_t echoed = 0;
      while (echoed < n) {
        const size_t w = s->Write({buf.data() + echoed, n - echoed});
        echoed += w;
        if (w == 0) {
          co_await s->WaitWritable();
        }
      }
      ep->received.insert(ep->received.end(), buf.begin(), buf.begin() + n);
    } else {
      if (s->eof() || s->has_error()) {
        break;
      }
      co_await s->WaitReadable();
    }
  }
  s->Close();
  ep->done = true;
}

// Receives without echoing.
SimTask AcceptSinkAll(Testbed* tb, Endpoint* ep, size_t expect_bytes, SimDuration initial_delay) {
  Socket* listener = tb->server_tcp().Listen(kEchoPort);
  Socket* s = nullptr;
  while (s == nullptr) {
    s = listener->Accept();
    if (s == nullptr) {
      co_await listener->WaitAcceptable();
    }
  }
  ep->sock = s;
  if (initial_delay.nanos() > 0) {
    co_await tb->server_host().SleepFor(initial_delay);
  }
  std::vector<uint8_t> buf(4096);
  while (ep->received.size() < expect_bytes) {
    const size_t n = s->Read({buf.data(), buf.size()});
    if (n > 0) {
      ep->received.insert(ep->received.end(), buf.begin(), buf.begin() + n);
    } else {
      if (s->eof() || s->has_error()) {
        break;
      }
      co_await s->WaitReadable();
    }
  }
  ep->done = true;
}

class TcpTest : public ::testing::Test {
 protected:
  void RunEcho(Testbed& tb, size_t bytes, uint64_t seed = 1) {
    const auto data = RandomData(bytes, seed);
    client_ = {};
    server_ = {};
    tb.server_host().Spawn("server", AcceptEchoAll(&tb, &server_, bytes));
    tb.client_host().Spawn("client",
                           ConnectSendRecv(&tb, &client_, data, bytes, /*close=*/true));
    tb.sim().RunToCompletion();
    ASSERT_TRUE(client_.done);
    ASSERT_TRUE(server_.done);
    EXPECT_FALSE(client_.error);
    EXPECT_EQ(server_.received, data) << "request direction corrupted";
    EXPECT_EQ(client_.received, data) << "reply direction corrupted";
  }

  Endpoint client_;
  Endpoint server_;
};

TEST_F(TcpTest, HandshakeNegotiatesAtmMss) {
  Testbed tb{TestbedConfig{}};
  RunEcho(tb, 16);
  EXPECT_EQ(tb.client_tcp().stats().conns_established, 1u);
  EXPECT_EQ(tb.server_tcp().stats().conns_established, 1u);
}

TEST_F(TcpTest, EthernetSegmentsByMss) {
  TestbedConfig cfg;
  cfg.network = NetworkKind::kEthernet;
  Testbed tb(cfg);
  RunEcho(tb, 6000);
  // 6000 bytes each way with MSS 1460 needs at least 5 data segments.
  EXPECT_GE(tb.client_tcp().stats().data_segs_sent, 5u);
  EXPECT_EQ(tb.client_tcp().stats().bytes_sent, 6000u);
}

class TcpEchoSizeTest : public TcpTest, public ::testing::WithParamInterface<size_t> {};

TEST_P(TcpEchoSizeTest, DataIntegrityOverAtm) {
  Testbed tb{TestbedConfig{}};
  RunEcho(tb, GetParam(), GetParam() * 31 + 5);
}

TEST_P(TcpEchoSizeTest, DataIntegrityOverEthernet) {
  TestbedConfig cfg;
  cfg.network = NetworkKind::kEthernet;
  Testbed tb(cfg);
  RunEcho(tb, GetParam(), GetParam() * 17 + 3);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TcpEchoSizeTest,
                         ::testing::Values(1, 4, 20, 107, 108, 109, 1023, 1024, 1025, 4095,
                                           4096, 4097, 8000, 8192, 20000),
                         [](const auto& inst) {
                           return std::string("n").append(std::to_string(inst.param));
                         });

TEST_F(TcpTest, UnidirectionalBulkDeliversInOrder) {
  Testbed tb{TestbedConfig{}};
  const size_t kBytes = 64 * 1024;
  const auto data = RandomData(kBytes, 77);
  tb.server_host().Spawn("sink", AcceptSinkAll(&tb, &server_, kBytes, SimDuration()));
  tb.client_host().Spawn("sender", ConnectSendRecv(&tb, &client_, data, 0, /*close=*/true));
  tb.sim().RunToCompletion();
  ASSERT_TRUE(server_.done);
  EXPECT_EQ(server_.received, data);
}

TEST_F(TcpTest, HeaderPredictionHitsOnBulkTransfer) {
  // The fast path was "optimized for a single sender, high throughput style
  // of communication" — a one-way stream must hit both prediction cases.
  Testbed tb{TestbedConfig{}};
  const size_t kBytes = 128 * 1024;
  tb.server_host().Spawn("sink", AcceptSinkAll(&tb, &server_, kBytes, SimDuration()));
  tb.client_host().Spawn("sender",
                         ConnectSendRecv(&tb, &client_, RandomData(kBytes, 3), 0, true));
  tb.sim().RunToCompletion();
  EXPECT_GT(tb.server_tcp().stats().predict_data_hits, 10u)
      << "receiver-side pure-data fast path";
  EXPECT_GT(tb.client_tcp().stats().predict_ack_hits, 5u) << "sender-side pure-ACK fast path";
}

TEST_F(TcpTest, PredictionDisabledNeverHits) {
  TestbedConfig cfg;
  cfg.tcp.header_prediction = false;
  Testbed tb(cfg);
  RunEcho(tb, 8000);
  EXPECT_EQ(tb.client_tcp().stats().predict_ack_hits, 0u);
  EXPECT_EQ(tb.client_tcp().stats().predict_data_hits, 0u);
  EXPECT_EQ(tb.server_tcp().stats().predict_data_hits, 0u);
  EXPECT_EQ(tb.client_tcp().pcbs().stats().cache_hits, 0u);
}

TEST_F(TcpTest, DelayedAckFiresWithoutReverseTraffic) {
  Testbed tb{TestbedConfig{}};
  tb.server_host().Spawn("sink", AcceptSinkAll(&tb, &server_, 100, SimDuration()));
  tb.client_host().Spawn("sender",
                         ConnectSendRecv(&tb, &client_, RandomData(100, 4), 0, false));
  tb.sim().RunUntil(SimTime::FromSeconds(1));
  EXPECT_EQ(server_.received.size(), 100u);
  // No reply data, no second segment: the ACK came from the delack timer.
  EXPECT_GE(tb.server_tcp().stats().delayed_acks_fired, 1u);
}

TEST_F(TcpTest, EchoPiggybacksAcks) {
  Testbed tb{TestbedConfig{}};
  RunEcho(tb, 500);
  // The request is acked by the reply data itself.
  EXPECT_EQ(tb.server_tcp().stats().delayed_acks_fired, 0u);
}

TEST_F(TcpTest, NagleHoldsSecondSmallWrite) {
  // Two back-to-back small writes with no read in between: the second must
  // wait for the first's ACK (no NODELAY), so only after ~one RTT.
  Testbed tb{TestbedConfig{}};
  const auto data = RandomData(2000, 9);  // two 1000-byte writes below
  struct TwoWrites {
    static SimTask Run(Testbed* tb, const std::vector<uint8_t>* data, Endpoint* ep) {
      Socket* s = tb->client_tcp().Connect(SockAddr{kServerAddr, kEchoPort});
      ep->sock = s;
      while (!s->connected()) {
        co_await s->WaitConnected();
      }
      s->Write({data->data(), 1000});
      s->Write({data->data() + 1000, 1000});
      ep->done = true;
    }
  };
  tb.server_host().Spawn("sink", AcceptSinkAll(&tb, &server_, 2000, SimDuration()));
  tb.client_host().Spawn("writer", TwoWrites::Run(&tb, &data, &client_));
  tb.sim().RunToCompletion();
  EXPECT_EQ(server_.received, data);
  // First write goes out alone; the second was Nagle-held and coalesced.
  EXPECT_EQ(tb.client_tcp().stats().data_segs_sent, 2u);
}

TEST_F(TcpTest, PerSocketNodelayOverridesStackDefault) {
  // Stack default Nagle ON, but this one socket asks for TCP_NODELAY: its
  // second small write must go out immediately instead of coalescing.
  Testbed tb{TestbedConfig{}};
  struct TwoWrites {
    static SimTask Run(Testbed* t, Endpoint* ep) {
      Socket* s = t->client_tcp().Connect(SockAddr{kServerAddr, kEchoPort});
      s->SetNodelay(true);
      ep->sock = s;
      while (!s->connected()) {
        co_await s->WaitConnected();
      }
      std::vector<uint8_t> msg(400, 0x44);
      s->Write(msg);
      s->Write(msg);
      ep->done = true;
    }
  };
  client_ = {};
  server_ = {};
  tb.server_host().Spawn("sink", AcceptSinkAll(&tb, &server_, 800, SimDuration()));
  tb.client_host().Spawn("writer", TwoWrites::Run(&tb, &client_));
  // Well before any ACK round trip completes, both writes are on the wire.
  tb.sim().RunUntil(SimTime::FromMicros(900));
  EXPECT_EQ(tb.client_tcp().stats().data_segs_sent, 2u)
      << "NODELAY socket must not Nagle-hold the second write";
  tb.sim().RunToCompletion();
  EXPECT_EQ(server_.received.size(), 800u);
}

TEST_F(TcpTest, NodelaySendsImmediately) {
  TestbedConfig cfg;
  cfg.tcp.nodelay = true;
  Testbed tb(cfg);
  RunEcho(tb, 8000);  // with NODELAY the 3904-byte remainder isn't held
  EXPECT_FALSE(client_.error);
}

TEST_F(TcpTest, ChecksumEliminationNegotiatedWhenBothAgree) {
  TestbedConfig cfg;
  cfg.tcp.checksum = ChecksumMode::kNone;
  Testbed tb(cfg);
  RunEcho(tb, 4000);
  // Data segments were sent with checksum 0 and accepted.
  EXPECT_EQ(tb.client_tcp().stats().checksum_errors, 0u);
  EXPECT_EQ(tb.server_tcp().stats().checksum_errors, 0u);
}

TEST_F(TcpTest, CombinedChecksumModePreservesIntegrity) {
  TestbedConfig cfg;
  cfg.tcp.checksum = ChecksumMode::kCombined;
  Testbed tb(cfg);
  RunEcho(tb, 8000);
  EXPECT_EQ(tb.client_tcp().stats().checksum_errors, 0u);
}

TEST_F(TcpTest, CombinedModeFallsBackForHeaderMbufData) {
  TestbedConfig cfg;
  cfg.tcp.checksum = ChecksumMode::kCombined;
  Testbed tb(cfg);
  RunEcho(tb, 4);  // 4 bytes ride in the header mbuf: partials unusable
  EXPECT_GT(tb.client_tcp().stats().checksum_fallbacks, 0u);
}

TEST_F(TcpTest, CellCorruptionRecoveredByRetransmission) {
  Testbed tb{TestbedConfig{}};
  // Corrupt exactly one cell mid-run on the request direction.
  int countdown = 40;
  tb.atm_link()->dir(0).set_corrupt_hook([&countdown](std::vector<uint8_t>& cell) {
    if (--countdown == 0) {
      cell[30] ^= 0x40;
    }
  });
  RunEcho(tb, 1400);
  EXPECT_GE(tb.client_tcp().stats().rexmt_timeouts +
                tb.server_tcp().stats().rexmt_timeouts,
            1u);
  const auto& sar = tb.server_atm()->sar_stats();
  EXPECT_EQ(sar.crc_errors + tb.client_atm()->sar_stats().crc_errors, 1u);
}

TEST_F(TcpTest, LostSegmentMidStreamUsesReassemblyQueue) {
  // Ethernet bulk with a window of several segments: dropping one frame
  // makes its successors arrive out of order.
  TestbedConfig cfg;
  cfg.network = NetworkKind::kEthernet;
  Testbed tb(cfg);
  int countdown = 20;
  tb.ether_segment()->set_corrupt_hook([&countdown](std::vector<uint8_t>& frame) {
    if (--countdown == 0) {
      frame[frame.size() / 2] ^= 0x01;
    }
  });
  const size_t kBytes = 64 * 1024;
  const auto data = RandomData(kBytes, 5);
  tb.server_host().Spawn("sink", AcceptSinkAll(&tb, &server_, kBytes, SimDuration()));
  tb.client_host().Spawn("sender", ConnectSendRecv(&tb, &client_, data, 0, true));
  tb.sim().RunToCompletion();
  EXPECT_EQ(server_.received, data) << "stream must survive the loss intact";
  EXPECT_GE(tb.server_tcp().stats().out_of_order_segs, 1u);
  EXPECT_GE(tb.client_tcp().stats().retransmits, 1u);
}

TEST_F(TcpTest, ZeroWindowThenProbeRecovers) {
  // Tiny receive buffer and a sleepy reader: the sender fills the window,
  // then a zero-window probe (or the reader's window update) reopens flow.
  TestbedConfig cfg;
  cfg.tcp.rcvbuf = 2048;
  Testbed tb(cfg);
  const size_t kBytes = 16 * 1024;
  const auto data = RandomData(kBytes, 6);
  tb.server_host().Spawn(
      "sleepy", AcceptSinkAll(&tb, &server_, kBytes, SimDuration::FromSeconds(2)));
  tb.client_host().Spawn("sender", ConnectSendRecv(&tb, &client_, data, 0, true));
  tb.sim().RunToCompletion();
  EXPECT_EQ(server_.received, data);
}

TEST_F(TcpTest, CloseSequenceReachesClosedAndFreesBuffers) {
  Testbed tb{TestbedConfig{}};
  RunEcho(tb, 1000);
  // TIME_WAIT timers have drained (RunToCompletion); everything is closed
  // and no mbufs leak.
  EXPECT_EQ(tb.client_host().pool().stats().in_use, 0)
      << "client leaked mbufs after close";
  EXPECT_EQ(tb.server_host().pool().stats().in_use, 0)
      << "server leaked mbufs after close";
  ASSERT_NE(client_.sock, nullptr);
  EXPECT_TRUE(client_.sock->eof() || client_.sock->state() == SocketState::kClosed);
}

TEST_F(TcpTest, ConnectToClosedPortIsRefusedByRst) {
  Testbed tb{TestbedConfig{}};
  // No listener: the server stack answers the SYN with a RESET.
  client_ = {};
  tb.client_host().Spawn("client", ConnectSendRecv(&tb, &client_, RandomData(10, 1), 0, false));
  tb.sim().RunToCompletion();
  EXPECT_TRUE(client_.done);
  EXPECT_TRUE(client_.error);
  EXPECT_EQ(tb.server_tcp().stats().rst_sent, 1u);
  EXPECT_EQ(tb.client_tcp().stats().rst_received, 1u);
  EXPECT_EQ(tb.client_tcp().stats().rexmt_timeouts, 0u) << "refusal is instant, not a timeout";
}

TEST_F(TcpTest, ConnectOverDeadLinkFailsAfterRetries) {
  TestbedConfig cfg;
  cfg.tcp.max_rexmt = 2;
  cfg.tcp.rexmt_min = SimDuration::FromMillis(50);
  Testbed tb(cfg);
  // Black-hole the request direction: every cell is destroyed in flight.
  tb.atm_link()->dir(0).set_corrupt_hook(
      [](std::vector<uint8_t>& cell) { cell[10] ^= 0xFF; });
  client_ = {};
  tb.client_host().Spawn("client", ConnectSendRecv(&tb, &client_, RandomData(10, 1), 0, false));
  tb.sim().RunToCompletion();
  EXPECT_TRUE(client_.done);
  EXPECT_TRUE(client_.error);
  EXPECT_GE(tb.client_tcp().stats().rexmt_timeouts, 2u);
  EXPECT_GE(tb.client_tcp().stats().conns_dropped, 1u);
}

TEST_F(TcpTest, BackgroundPcbsMakeLookupRealistic) {
  TestbedConfig cfg;
  cfg.background_pcbs = 20;
  Testbed tb(cfg);
  EXPECT_EQ(tb.client_tcp().pcbs().size(), 20u);
  tb.client_tcp().Listen(9999);
  EXPECT_EQ(tb.client_tcp().pcbs().size(), 21u);  // new PCBs go to the head
  RunEcho(tb, 100);
  // Closed benchmark connections were removed again.
  EXPECT_EQ(tb.server_tcp().pcbs().size(), 21u);  // 20 daemons + the listener
}

TEST_F(TcpTest, StateNamesAreHuman) {
  EXPECT_STREQ(TcpStateName(TcpState::kEstablished), "ESTABLISHED");
  EXPECT_STREQ(TcpStateName(TcpState::kTimeWait), "TIME_WAIT");
}

}  // namespace
}  // namespace tcplat
