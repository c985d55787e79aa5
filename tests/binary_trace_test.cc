// Unit tests for the TLBT compact binary trace format: encode/decode round
// trips (including backward timestamp deltas), header and record
// validation on truncated/corrupt streams, and seeded mutation fuzzing of
// the reader.

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "src/base/random.h"
#include "src/trace/binary_trace.h"
#include "src/trace/tracer.h"
#include "tests/mutate.h"

namespace tcplat {
namespace {

TraceEvent Make(int64_t ts, TraceEventKind kind, TraceLayer layer, uint8_t host,
                uint64_t flow = 0, uint64_t packet = 0, uint64_t bytes = 0, int64_t dur = 0,
                int64_t self = 0) {
  TraceEvent ev;
  ev.ts_ns = ts;
  ev.dur_ns = dur;
  ev.self_ns = self;
  ev.flow = flow;
  ev.packet = packet;
  ev.bytes = bytes;
  ev.kind = kind;
  ev.layer = layer;
  ev.host = host;
  return ev;
}

bool Same(const TraceEvent& a, const TraceEvent& b) {
  return a.ts_ns == b.ts_ns && a.dur_ns == b.dur_ns && a.self_ns == b.self_ns &&
         a.flow == b.flow && a.packet == b.packet && a.bytes == b.bytes && a.kind == b.kind &&
         a.layer == b.layer && a.span == b.span && a.host == b.host;
}

// A corpus touching every field: big values, zero values, span events,
// and a timestamp that goes backwards (a sampled stream emits deferred
// chain prefixes behind flow-agnostic anchors).
std::vector<TraceEvent> Corpus() {
  std::vector<TraceEvent> events;
  events.push_back(Make(0, TraceEventKind::kSpanReset, TraceLayer::kSched, 0));
  TraceEvent begin = Make(120, TraceEventKind::kSpanBegin, TraceLayer::kSched, 0);
  begin.span = SpanId::kTxUser;
  events.push_back(begin);
  events.push_back(Make(1'000'000'000'000LL, TraceEventKind::kSegTx, TraceLayer::kTcp, 1,
                        /*flow=*/0xDEADBEEFCAFELL, /*packet=*/0xFFFFFFFFFFFFFFFFULL,
                        /*bytes=*/1400));
  events.push_back(Make(999'999'999'000LL, TraceEventKind::kPktRx, TraceLayer::kIp, 2,
                        /*flow=*/1, /*packet=*/2, /*bytes=*/3));  // ts goes backwards
  TraceEvent end = Make(999'999'999'500LL, TraceEventKind::kSpanEnd, TraceLayer::kSched, 1);
  end.span = SpanId::kOther;
  end.self_ns = -250;  // zigzag must survive negative self/dur too
  end.dur_ns = 40;
  events.push_back(end);
  events.push_back(Make(999'999'999'500LL, TraceEventKind::kImpairDelay, TraceLayer::kLink, 2,
                        /*flow=*/7, /*packet=*/8, /*bytes=*/0, /*dur=*/123456));
  return events;
}

const std::vector<std::string> kHosts = {"client", "server", "switch"};

std::string EncodeEvents(const std::vector<std::string>& hosts,
                         const std::vector<TraceEvent>& events) {
  Tracer tracer;
  for (const std::string& host : hosts) {
    tracer.RegisterHost(host);
  }
  for (const TraceEvent& ev : events) {
    tracer.Append(ev);
  }
  return EncodeBinaryTrace(tracer);
}

TEST(BinaryTrace, RoundTripPreservesEveryField) {
  const std::vector<TraceEvent> events = Corpus();
  const std::string blob = EncodeEvents(kHosts, events);

  BinaryTraceReader reader(blob);
  ASSERT_TRUE(reader.ok()) << reader.error_message();
  EXPECT_EQ(reader.host_names(), kHosts);
  ASSERT_EQ(reader.record_count(), events.size());
  TraceEvent ev;
  for (size_t i = 0; i < events.size(); ++i) {
    ASSERT_TRUE(reader.Next(&ev)) << "record " << i << ": " << reader.error_message();
    EXPECT_TRUE(Same(ev, events[i])) << "record " << i << " diverged";
  }
  EXPECT_FALSE(reader.Next(&ev));
  EXPECT_FALSE(reader.error());
}

TEST(BinaryTrace, DecodeIntoTracerMatchesOriginal) {
  const std::vector<TraceEvent> events = Corpus();
  Tracer decoded;
  ASSERT_TRUE(DecodeBinaryTrace(EncodeEvents(kHosts, events), &decoded));
  EXPECT_EQ(decoded.host_names(), kHosts);
  ASSERT_EQ(decoded.events().size(), events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_TRUE(Same(decoded.events()[i], events[i])) << "event " << i;
  }
}

TEST(BinaryTrace, EncodingIsAPureFunctionOfTheSequence) {
  const std::vector<TraceEvent> events = Corpus();
  EXPECT_EQ(EncodeEvents(kHosts, events), EncodeEvents(kHosts, events));
}

TEST(BinaryTrace, RejectsBadMagicAndVersion) {
  std::string blob = EncodeEvents(kHosts, Corpus());
  std::string bad_magic = blob;
  bad_magic[0] = 'X';
  EXPECT_FALSE(BinaryTraceReader(bad_magic).ok());

  std::string bad_version = blob;
  bad_version[4] = static_cast<char>(0xFF);
  EXPECT_FALSE(BinaryTraceReader(bad_version).ok());

  EXPECT_FALSE(BinaryTraceReader(std::string_view("TLB")).ok());
  EXPECT_FALSE(BinaryTraceReader(std::string_view()).ok());
}

TEST(BinaryTrace, TruncatedStreamFailsGracefully) {
  const std::string blob = EncodeEvents(kHosts, Corpus());
  // Every proper prefix must either fail header validation or decode some
  // records and then flag an error — never crash, never fabricate records.
  for (size_t len = 0; len < blob.size(); ++len) {
    BinaryTraceReader reader(std::string_view(blob).substr(0, len));
    if (!reader.ok()) {
      continue;
    }
    TraceEvent ev;
    uint64_t decoded = 0;
    while (reader.Next(&ev)) {
      ++decoded;
    }
    EXPECT_TRUE(reader.error()) << "prefix " << len << " decoded " << decoded
                                << " records and reported clean EOF";
    EXPECT_LT(decoded, reader.record_count());
  }
}

TEST(BinaryTrace, CorruptTagBytesAreRangeChecked) {
  // Append a record with kind/layer/span bytes past the enum sentinels by
  // hand-corrupting an encoded single-record stream.
  const std::string good =
      EncodeEvents({"h"}, {Make(5, TraceEventKind::kSegTx, TraceLayer::kTcp, 0, 1, 2, 3)});

  // The record is the stream tail: varint delta (1 byte), four tag bytes
  // kind/layer/span/host, then five 1-byte varints (flow/packet/bytes/dur/self).
  const size_t tag0 = good.size() - 9;
  ASSERT_EQ(static_cast<uint8_t>(good[tag0]), static_cast<uint8_t>(TraceEventKind::kSegTx));

  for (size_t tag = 0; tag < 4; ++tag) {
    std::string bad = good;
    bad[tag0 + tag] = static_cast<char>(0xEE);
    BinaryTraceReader reader(bad);
    ASSERT_TRUE(reader.ok());
    TraceEvent ev;
    EXPECT_FALSE(reader.Next(&ev)) << "corrupt tag " << tag << " decoded";
    EXPECT_TRUE(reader.error());
    Tracer out;
    EXPECT_FALSE(DecodeBinaryTrace(bad, &out));
  }
}

// A corrupt delta chain must wrap rather than overflow a signed integer,
// which the sanitizer build turns into an abort.
TEST(BinaryTrace, CorruptTimestampDeltasWrap) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  std::string blob = EncodeEvents({"h"}, {Make(kMax, TraceEventKind::kSegTx, TraceLayer::kTcp, 0),
                                          Make(kMax, TraceEventKind::kSegTx, TraceLayer::kTcp, 0)});
  // The second record is the 10-byte tail; its zero delta becomes +1.
  blob[blob.size() - 10] = 2;
  BinaryTraceReader reader(blob);
  TraceEvent ev;
  ASSERT_TRUE(reader.Next(&ev));
  ASSERT_TRUE(reader.Next(&ev)) << reader.error_message();
  EXPECT_EQ(ev.ts_ns, std::numeric_limits<int64_t>::min());
}

// Seeded mutation fuzzing of the reader: bit flips, byte overwrites,
// truncation, insertion and deletion applied to the corpus stream. Every
// mutant must either fail header validation or decode at most
// record_count() records, each with kind, layer, span and host in range,
// and a reader that stops short of record_count() must say why.
TEST(BinaryTrace, MutatedStreamsDecodeInRangeOrReportAnError) {
  const std::string blob = EncodeEvents(kHosts, Corpus());
  Rng rng(20260517);
  for (int iter = 0; iter < 20000; ++iter) {
    std::string mutant = blob;
    Mutate(rng, &mutant);
    BinaryTraceReader reader(mutant);
    if (!reader.ok()) {
      EXPECT_TRUE(reader.error()) << "mutant " << iter;
      continue;
    }
    TraceEvent ev;
    uint64_t decoded = 0;
    while (reader.Next(&ev)) {
      ++decoded;
      ASSERT_LE(decoded, reader.record_count()) << "mutant " << iter;
      ASSERT_LT(static_cast<int>(ev.kind), static_cast<int>(TraceEventKind::kCount));
      ASSERT_LT(static_cast<int>(ev.layer), static_cast<int>(TraceLayer::kCount));
      ASSERT_LT(static_cast<int>(ev.span), static_cast<int>(SpanId::kCount));
      ASSERT_LT(ev.host, reader.host_names().size()) << "mutant " << iter;
    }
    if (decoded < reader.record_count()) {
      ASSERT_TRUE(reader.error()) << "mutant " << iter << " stopped after " << decoded << " of "
                                  << reader.record_count() << " records without an error";
    }
  }
}

}  // namespace
}  // namespace tcplat
