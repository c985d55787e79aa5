// Named metrics: counter and gauge views, and log-bucketed histograms.
//
// Every per-layer stats struct in the stack (TcpStats, IpStats, MbufStats,
// ...) is a plain value type so benchmarks can snapshot and reset it by
// assignment. A MetricsRegistry overlays a flat, enumerable namespace on
// those live structs: each field is registered once, by name, as a *view*
// (a pointer into the struct), and the registry can also own histograms for
// distributions no struct records (queue waits, payload sizes). One
// registry per host; export is a deterministic name-sorted snapshot in JSON
// or CSV.
//
// Naming convention: lowercase dotted paths, "<layer>.<metric>", e.g.
// "tcp.segs_sent", "ip.ipq_wait_ns", "mbuf.cluster_allocs". Histogram
// metrics that record durations end in "_ns".

#ifndef SRC_TRACE_METRICS_H_
#define SRC_TRACE_METRICS_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace tcplat {

// Power-of-two bucketed histogram for non-negative samples. Bucket 0 holds
// value 0; bucket i (i >= 1) holds values in [2^(i-1), 2^i). 64 buckets
// cover the full int64 range.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  static int BucketIndex(int64_t v);
  // Inclusive lower bound of bucket i.
  static int64_t BucketLowerBound(int i);

  void Add(int64_t v);

  uint64_t count() const { return count_; }
  int64_t sum() const { return sum_; }
  int64_t min() const { return count_ == 0 ? 0 : min_; }
  int64_t max() const { return count_ == 0 ? 0 : max_; }
  uint64_t bucket(int i) const { return buckets_[static_cast<size_t>(i)]; }
  // Upper bound (exclusive) of the bucket containing the nearest-rank
  // p-th percentile sample; 0 when empty. Resolution is the bucket width.
  int64_t PercentileUpperBound(double p) const;

  void Reset();

 private:
  uint64_t count_ = 0;
  int64_t sum_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
  std::array<uint64_t, kBuckets> buckets_{};
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // An owned histogram, created on first use. The returned reference is
  // stable for the registry's lifetime; hot paths should cache it.
  Histogram& histogram(std::string_view name);

  // Views over fields of live stats structs. The pointee must outlive the
  // registry (stats structs are members of their stack objects, which they
  // do). Registering a name twice is a CHECK failure.
  void AddCounterView(std::string_view name, const uint64_t* value);
  void AddGaugeView(std::string_view name, const int64_t* value);

  struct Sample {
    std::string_view name;
    std::string_view type;  // "counter" | "gauge" | "histogram"
    int64_t value = 0;      // counter/gauge value; histogram count
    const Histogram* hist = nullptr;
  };
  // Name-sorted (deterministic) snapshot of every registered metric.
  std::vector<Sample> Snapshot() const;

  std::string ToJson() const;
  std::string ToCsv() const;

  size_t size() const { return entries_.size(); }
  bool contains(std::string_view name) const { return entries_.find(name) != entries_.end(); }

 private:
  struct Entry {
    std::unique_ptr<Histogram> histogram;
    const uint64_t* counter_view = nullptr;
    const int64_t* gauge_view = nullptr;
  };
  Entry& NewEntry(std::string_view name);

  // std::map: iteration order is the export order, so it must be sorted.
  std::map<std::string, Entry, std::less<>> entries_;
};

}  // namespace tcplat

#endif  // SRC_TRACE_METRICS_H_
