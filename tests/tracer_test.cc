// Unit tests for the packet-lifecycle Tracer and its exporters.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "src/sim/time.h"
#include "src/trace/binary_trace.h"
#include "src/trace/tracer.h"

namespace tcplat {
namespace {

SimTime At(int64_t ns) { return SimTime::FromNanos(ns); }

TEST(Tracer, RegisterHostAssignsSequentialIds) {
  Tracer t;
  EXPECT_EQ(t.RegisterHost("client"), 0);
  EXPECT_EQ(t.RegisterHost("server"), 1);
  EXPECT_EQ(t.RegisterHost("switch"), 2);
  ASSERT_EQ(t.host_names().size(), 3u);
  EXPECT_EQ(t.host_names()[1], "server");
}

TEST(Tracer, RecordsPacketEvents) {
  Tracer t;
  const uint8_t h = t.RegisterHost("h");
  t.RecordPacket(h, TraceLayer::kTcp, TraceEventKind::kSegTx, At(100), 0x50001389, 1, 1400);
  ASSERT_EQ(t.events().size(), 1u);
  const TraceEvent& ev = t.events()[0];
  EXPECT_EQ(ev.ts_ns, 100);
  EXPECT_EQ(ev.layer, TraceLayer::kTcp);
  EXPECT_EQ(ev.kind, TraceEventKind::kSegTx);
  EXPECT_EQ(ev.flow, 0x50001389u);
  EXPECT_EQ(ev.bytes, 1400u);
}

TEST(Tracer, DisabledRecordsNothing) {
  Tracer t;
  const uint8_t h = t.RegisterHost("h");
  t.set_enabled(false);
  t.RecordPacket(h, TraceLayer::kIp, TraceEventKind::kPktTx, At(5), 0, 0, 40);
  t.RecordSpanBegin(h, SpanId::kTxUser, At(5));
  t.RecordSpanEnd(h, SpanId::kTxUser, At(9), SimDuration::FromNanos(4));
  EXPECT_TRUE(t.events().empty());
  t.set_enabled(true);
  t.RecordPacket(h, TraceLayer::kIp, TraceEventKind::kPktTx, At(5), 0, 0, 40);
  EXPECT_EQ(t.events().size(), 1u);
}

TEST(Tracer, SpanSelfTotalsCountSelfAndIntervals) {
  Tracer t;
  const uint8_t a = t.RegisterHost("a");
  const uint8_t b = t.RegisterHost("b");
  t.RecordSpanBegin(a, SpanId::kTxUser, At(0));
  t.RecordSpanEnd(a, SpanId::kTxUser, At(100), SimDuration::FromNanos(60));
  t.RecordSpanInterval(a, SpanId::kRxIpq, At(200), SimDuration::FromNanos(30));
  t.RecordSpanEnd(b, SpanId::kTxUser, At(100), SimDuration::FromNanos(999));

  const auto totals = t.SpanSelfTotalsNanos(a);
  EXPECT_EQ(totals[static_cast<size_t>(SpanId::kTxUser)], 60);
  EXPECT_EQ(totals[static_cast<size_t>(SpanId::kRxIpq)], 30);
  EXPECT_EQ(totals[static_cast<size_t>(SpanId::kTxIp)], 0);
}

TEST(Tracer, SpanSelfTotalsRestartAtReset) {
  Tracer t;
  const uint8_t h = t.RegisterHost("h");
  t.RecordSpanEnd(h, SpanId::kTxUser, At(10), SimDuration::FromNanos(7));
  t.RecordSpanReset(h, At(20));
  t.RecordSpanEnd(h, SpanId::kTxUser, At(30), SimDuration::FromNanos(5));
  EXPECT_EQ(t.SpanSelfTotalsNanos(h)[static_cast<size_t>(SpanId::kTxUser)], 5);
}

TEST(Tracer, ClearDropsEventsKeepsHosts) {
  Tracer t;
  const uint8_t h = t.RegisterHost("h");
  t.RecordPacket(h, TraceLayer::kSock, TraceEventKind::kUserWrite, At(1), 0, 0, 8);
  t.Clear();
  EXPECT_TRUE(t.events().empty());
  EXPECT_EQ(t.host_names().size(), 1u);
}

TEST(Tracer, PerfettoJsonShapesEvents) {
  Tracer t;
  const uint8_t h = t.RegisterHost("client");
  t.RecordSpanBegin(h, SpanId::kTxUser, At(1500));
  t.RecordSpanEnd(h, SpanId::kTxUser, At(2500), SimDuration::FromNanos(1000));
  t.RecordSpanInterval(h, SpanId::kRxIpq, At(5000), SimDuration::FromNanos(2000));
  t.RecordPacket(h, TraceLayer::kTcp, TraceEventKind::kSegTx, At(2000), 1, 2, 1400);

  const std::string json = t.ToPerfettoJson();
  // Process metadata, one B/E pair, an X interval and an instant.
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"client\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"tcp.seg.tx\""), std::string::npos);
  // Timestamps are exact fixed-point microseconds: 1500 ns -> "1.500".
  EXPECT_NE(json.find("\"ts\":1.500"), std::string::npos);
  // The X event starts at interval begin: 5000-2000 = 3000 ns -> 3.000 us.
  EXPECT_NE(json.find("\"ts\":3.000,\"dur\":2.000"), std::string::npos);
  EXPECT_NE(json.find("\"self_ns\":1000"), std::string::npos);
}

TEST(Tracer, CsvHasHeaderAndOneRowPerEvent) {
  Tracer t;
  const uint8_t h = t.RegisterHost("client");
  t.RecordPacket(h, TraceLayer::kAtm, TraceEventKind::kPduTx, At(42), 7, 30, 9180);
  t.RecordSpanInterval(h, SpanId::kRxIpq, At(100), SimDuration::FromNanos(58));
  const std::string csv = t.ToCsv();
  EXPECT_EQ(csv.find("ts_ns,host,layer,kind,span,dur_ns,self_ns,flow,packet,bytes\n"), 0u);
  EXPECT_NE(csv.find("42,client,atm,pdu.tx,,0,0,7,30,9180"), std::string::npos);
  ASSERT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
}

TEST(Tracer, EveryLayerAndKindHasAUniqueNonEmptyName) {
  // Full-enum coverage: iterate to the kCount sentinels so adding an enum
  // value without a name (the lookup returns "?") fails here, and the
  // constexpr static_asserts in tracer.cc catch it at compile time too.
  for (int i = 0; i < static_cast<int>(TraceEventKind::kCount); ++i) {
    const auto name_i = TraceEventKindName(static_cast<TraceEventKind>(i));
    EXPECT_FALSE(name_i.empty()) << "kind " << i;
    EXPECT_NE(name_i, "?") << "kind " << i;
    for (int j = i + 1; j < static_cast<int>(TraceEventKind::kCount); ++j) {
      EXPECT_NE(name_i, TraceEventKindName(static_cast<TraceEventKind>(j))) << i << " vs " << j;
    }
  }
  for (int i = 0; i < static_cast<int>(TraceLayer::kCount); ++i) {
    const auto name_i = TraceLayerName(static_cast<TraceLayer>(i));
    EXPECT_FALSE(name_i.empty()) << "layer " << i;
    EXPECT_NE(name_i, "?") << "layer " << i;
    for (int j = i + 1; j < static_cast<int>(TraceLayer::kCount); ++j) {
      EXPECT_NE(name_i, TraceLayerName(static_cast<TraceLayer>(j))) << i << " vs " << j;
    }
  }
}

// A sampler decides which events reach the log, so it must be chosen
// before the first event is recorded; enabling one later is a programming
// error and dies loudly.
TEST(TracerSamplingDeathTest, SamplersAfterRecordingStartsDie) {
  Tracer t;
  const uint8_t h = t.RegisterHost("h");
  t.RecordPacket(h, TraceLayer::kTcp, TraceEventKind::kSegTx, At(1), 1, 1, 100);
  EXPECT_DEATH(t.EnableFlowSampling(FlowSampleConfig{}), "before recording starts");
}

// Encoding the recorded log as TLBT and decoding it must reproduce the
// exporters byte for byte.
TEST(TracerBinary, RoundTripMatchesExporters) {
  Tracer t;
  const uint8_t c = t.RegisterHost("client");
  const uint8_t s = t.RegisterHost("server");
  t.RecordSpanReset(c, At(0));
  t.RecordSpanBegin(c, SpanId::kTxUser, At(100));
  t.RecordPacket(c, TraceLayer::kTcp, TraceEventKind::kSegTx, At(150), 0x50001389, 1, 1400);
  t.RecordSpanEnd(c, SpanId::kTxUser, At(200), SimDuration::FromNanos(80));
  t.RecordPacket(s, TraceLayer::kAtm, TraceEventKind::kPduRx, At(400), 5, 30, 9180);
  t.RecordSpanInterval(s, SpanId::kRxIpq, At(500), SimDuration::FromNanos(58));

  Tracer decoded;
  ASSERT_TRUE(DecodeBinaryTrace(EncodeBinaryTrace(t), &decoded));
  EXPECT_EQ(decoded.events().size(), t.events().size());
  EXPECT_EQ(decoded.ToPerfettoJson(), t.ToPerfettoJson());
  EXPECT_EQ(decoded.ToCsv(), t.ToCsv());
  EXPECT_EQ(decoded.SpanSelfTotalsNanos(0), t.SpanSelfTotalsNanos(0));
}

// Flow sampling is a pure function of (canonical flow id, seed): two
// tracers with the same seed keep the same flows, and the verdict is
// symmetric across the two directed ids of one connection.
TEST(TracerSampling, VerdictIsDeterministicAndDirectionSymmetric) {
  const auto record_flows = [](Tracer* t, bool reversed) {
    const uint8_t h = t->RegisterHost("h");
    for (uint64_t i = 1; i <= 64; ++i) {
      const uint64_t local = 0x5000 + i, remote = 0x1389;
      const uint64_t flow = reversed ? (remote << 16 | local) : (local << 16 | remote);
      t->RecordPacket(h, TraceLayer::kTcp, TraceEventKind::kSegTx, At(int64_t(i) * 10), flow, i,
                      100);
    }
  };
  FlowSampleConfig config;
  config.one_in = 4;
  config.seed = 7;

  Tracer a, b, rev;
  for (Tracer* t : {&a, &b, &rev}) t->EnableFlowSampling(config);
  record_flows(&a, false);
  record_flows(&b, false);
  record_flows(&rev, true);

  EXPECT_EQ(a.flows_seen().size(), 64u);
  EXPECT_FALSE(a.flows_kept().empty());
  EXPECT_LT(a.flows_kept().size(), a.flows_seen().size());
  EXPECT_EQ(a.flows_kept(), b.flows_kept());
  // Canonical ids are direction-independent, so the reversed stream keeps
  // the same connections.
  EXPECT_EQ(rev.flows_kept(), a.flows_kept());
  // The event log only holds kept flows' events.
  EXPECT_EQ(a.events().size(), a.flows_kept().size());

  Tracer other_seed;
  FlowSampleConfig reseeded = config;
  reseeded.seed = 8;
  other_seed.EnableFlowSampling(reseeded);
  record_flows(&other_seed, false);
  EXPECT_NE(other_seed.flows_kept(), a.flows_kept());
}

}  // namespace
}  // namespace tcplat
