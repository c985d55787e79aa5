// Tests for the named-metrics registry: log-bucketed histograms, counter
// and gauge views over live stats structs, and deterministic export.

#include <gtest/gtest.h>

#include <string>

#include "src/trace/metrics.h"

namespace tcplat {
namespace {

TEST(Histogram, BucketIndexIsLogBase2) {
  EXPECT_EQ(Histogram::BucketIndex(0), 0);
  EXPECT_EQ(Histogram::BucketIndex(1), 1);
  EXPECT_EQ(Histogram::BucketIndex(2), 2);
  EXPECT_EQ(Histogram::BucketIndex(3), 2);
  EXPECT_EQ(Histogram::BucketIndex(4), 3);
  EXPECT_EQ(Histogram::BucketIndex(1023), 10);
  EXPECT_EQ(Histogram::BucketIndex(1024), 11);
  for (int i = 1; i < Histogram::kBuckets; ++i) {
    // Lower bound of bucket i lands in bucket i.
    EXPECT_EQ(Histogram::BucketIndex(Histogram::BucketLowerBound(i)), i) << i;
  }
}

TEST(Histogram, MomentsAndBuckets) {
  Histogram h;
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  h.Add(0);
  h.Add(5);
  h.Add(5);
  h.Add(1000);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 1010);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 1000);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(Histogram::BucketIndex(5)), 2u);
  EXPECT_EQ(h.bucket(Histogram::BucketIndex(1000)), 1u);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0);
}

TEST(Histogram, PercentileUpperBound) {
  Histogram h;
  EXPECT_EQ(h.PercentileUpperBound(50), 0);
  for (int i = 0; i < 99; ++i) {
    h.Add(10);  // bucket [8,16)
  }
  h.Add(100000);  // bucket [65536,131072)
  EXPECT_EQ(h.PercentileUpperBound(50), 16);
  EXPECT_EQ(h.PercentileUpperBound(99), 16);
  EXPECT_EQ(h.PercentileUpperBound(100), 131072);
}

TEST(MetricsRegistry, OwnedMetricsAreStableAndFindable) {
  MetricsRegistry m;
  Histogram& h = m.histogram("ip.wait_ns");
  h.Add(100);
  EXPECT_EQ(&m.histogram("ip.wait_ns"), &h);
  EXPECT_EQ(m.histogram("ip.wait_ns").count(), 1u);
  uint64_t sent = 3;
  int64_t depth = -2;
  m.AddCounterView("tcp.segs_sent", &sent);
  m.AddGaugeView("sock.depth", &depth);
  EXPECT_EQ(m.size(), 3u);
  EXPECT_TRUE(m.contains("sock.depth"));
  EXPECT_FALSE(m.contains("sock.missing"));
}

TEST(MetricsRegistry, ViewsTrackTheLiveField) {
  MetricsRegistry m;
  uint64_t sent = 0;
  int64_t in_use = 0;
  m.AddCounterView("tcp.segs_sent", &sent);
  m.AddGaugeView("mbuf.in_use", &in_use);

  sent = 17;
  in_use = -4;
  bool saw_counter = false;
  bool saw_gauge = false;
  for (const MetricsRegistry::Sample& s : m.Snapshot()) {
    if (s.name == "tcp.segs_sent") {
      saw_counter = true;
      EXPECT_EQ(s.type, "counter");
      EXPECT_EQ(s.value, 17);
    }
    if (s.name == "mbuf.in_use") {
      saw_gauge = true;
      EXPECT_EQ(s.type, "gauge");
      EXPECT_EQ(s.value, -4);
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_gauge);
}

TEST(MetricsRegistry, SnapshotIsNameSorted) {
  MetricsRegistry m;
  uint64_t v = 0;
  m.AddCounterView("zeta", &v);
  m.histogram("alpha");
  m.AddCounterView("mid", &v);
  const auto snap = m.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "alpha");
  EXPECT_EQ(snap[1].name, "mid");
  EXPECT_EQ(snap[2].name, "zeta");
}

TEST(MetricsRegistry, ExportFormats) {
  MetricsRegistry m;
  uint64_t count = 2;
  m.AddCounterView("a.count", &count);
  m.histogram("b.wait_ns").Add(1000);
  const std::string json = m.ToJson();
  EXPECT_NE(json.find("\"a.count\""), std::string::npos);
  EXPECT_NE(json.find("\"b.wait_ns\""), std::string::npos);
  const std::string csv = m.ToCsv();
  EXPECT_NE(csv.find("a.count"), std::string::npos);
}

using MetricsDeathTest = ::testing::Test;

TEST(MetricsDeathTest, DuplicateNameDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  MetricsRegistry m;
  uint64_t v = 0;
  m.AddCounterView("dup", &v);
  EXPECT_DEATH(m.AddCounterView("dup", &v), "duplicate metric");
}

TEST(MetricsDeathTest, TypeMismatchDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  MetricsRegistry m;
  uint64_t v = 0;
  m.AddCounterView("x", &v);
  EXPECT_DEATH(m.histogram("x"), "type mismatch");
}

}  // namespace
}  // namespace tcplat
