#include "src/trace/metrics.h"

#include <bit>
#include <cinttypes>
#include <cstdio>

#include "src/base/check.h"

namespace tcplat {

int Histogram::BucketIndex(int64_t v) {
  TCPLAT_CHECK_GE(v, 0) << "histogram samples must be non-negative";
  if (v == 0) {
    return 0;
  }
  return 64 - std::countl_zero(static_cast<uint64_t>(v));
}

int64_t Histogram::BucketLowerBound(int i) {
  TCPLAT_CHECK_GE(i, 0);
  TCPLAT_CHECK_LT(i, kBuckets);
  if (i == 0) {
    return 0;
  }
  return int64_t{1} << (i - 1);
}

void Histogram::Add(int64_t v) {
  ++buckets_[static_cast<size_t>(BucketIndex(v))];
  if (count_ == 0 || v < min_) {
    min_ = v;
  }
  if (count_ == 0 || v > max_) {
    max_ = v;
  }
  ++count_;
  sum_ += v;
}

int64_t Histogram::PercentileUpperBound(double p) const {
  TCPLAT_CHECK_GE(p, 0.0);
  TCPLAT_CHECK_LE(p, 100.0);
  if (count_ == 0) {
    return 0;
  }
  uint64_t rank = static_cast<uint64_t>(p / 100.0 * static_cast<double>(count_));
  if (rank > 0) {
    --rank;
  }
  uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[static_cast<size_t>(i)];
    if (seen > rank) {
      return i + 1 >= kBuckets ? max_ : BucketLowerBound(i + 1);
    }
  }
  return max_;
}

void Histogram::Reset() {
  count_ = 0;
  sum_ = 0;
  min_ = 0;
  max_ = 0;
  buckets_.fill(0);
}

MetricsRegistry::Entry& MetricsRegistry::NewEntry(std::string_view name) {
  auto [it, inserted] = entries_.emplace(std::string(name), Entry{});
  TCPLAT_CHECK(inserted) << "duplicate metric: " << std::string(name);
  return it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  auto it = entries_.find(name);
  if (it != entries_.end()) {
    TCPLAT_CHECK(it->second.histogram != nullptr)
        << "metric type mismatch: " << std::string(name);
    return *it->second.histogram;
  }
  Entry& e = NewEntry(name);
  e.histogram = std::make_unique<Histogram>();
  return *e.histogram;
}

void MetricsRegistry::AddCounterView(std::string_view name, const uint64_t* value) {
  TCPLAT_CHECK(value != nullptr);
  NewEntry(name).counter_view = value;
}

void MetricsRegistry::AddGaugeView(std::string_view name, const int64_t* value) {
  TCPLAT_CHECK(value != nullptr);
  NewEntry(name).gauge_view = value;
}

std::vector<MetricsRegistry::Sample> MetricsRegistry::Snapshot() const {
  std::vector<Sample> out;
  out.reserve(entries_.size());
  for (const auto& [name, e] : entries_) {
    Sample s;
    s.name = name;
    if (e.counter_view != nullptr) {
      s.type = "counter";
      s.value = static_cast<int64_t>(*e.counter_view);
    } else if (e.gauge_view != nullptr) {
      s.type = "gauge";
      s.value = *e.gauge_view;
    } else {
      s.type = "histogram";
      s.value = static_cast<int64_t>(e.histogram->count());
      s.hist = e.histogram.get();
    }
    out.push_back(s);
  }
  return out;
}

std::string MetricsRegistry::ToJson() const {
  std::string out = "{\n";
  char buf[160];
  bool first = true;
  for (const Sample& s : Snapshot()) {
    if (!first) {
      out += ",\n";
    }
    first = false;
    if (s.hist != nullptr) {
      std::snprintf(buf, sizeof(buf),
                    "  \"%.*s\": {\"count\": %" PRIu64 ", \"sum\": %" PRId64 ", \"min\": %" PRId64
                    ", \"max\": %" PRId64 ", \"p50\": %" PRId64 ", \"p99\": %" PRId64 "}",
                    static_cast<int>(s.name.size()), s.name.data(), s.hist->count(),
                    s.hist->sum(), s.hist->min(), s.hist->max(),
                    s.hist->PercentileUpperBound(50), s.hist->PercentileUpperBound(99));
    } else {
      std::snprintf(buf, sizeof(buf), "  \"%.*s\": %" PRId64,
                    static_cast<int>(s.name.size()), s.name.data(), s.value);
    }
    out += buf;
  }
  out += "\n}\n";
  return out;
}

std::string MetricsRegistry::ToCsv() const {
  std::string out = "name,type,value\n";
  char buf[160];
  for (const Sample& s : Snapshot()) {
    std::snprintf(buf, sizeof(buf), "%.*s,%.*s,%" PRId64 "\n", static_cast<int>(s.name.size()),
                  s.name.data(), static_cast<int>(s.type.size()), s.type.data(), s.value);
    out += buf;
  }
  return out;
}

}  // namespace tcplat
