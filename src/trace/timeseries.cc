#include "src/trace/timeseries.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace tcplat {
namespace {

constexpr const char* kMetricNames[] = {
    "tcp.cwnd",          "tcp.ssthresh",    "tcp.pipe",        "tcp.srtt_us",
    "tcp.rto_us",        "vc.occupancy",    "vc.hiwat",        "vc.drops_cum",
    "flow.goodput_bps",  "flow.inflight",   "tcp.loss_enter",  "tcp.loss_exit",
    "tcp.rto_fire",      "vc.epd_refusal",
};
static_assert(sizeof(kMetricNames) / sizeof(kMetricNames[0]) ==
                  static_cast<size_t>(TsMetric::kCount),
              "every TsMetric needs a name");

// Track key: 8 bits of host, 8 of metric, low 48 of the flow/VCI key. Flow
// ids are (local port << 16) | remote port and VCIs are 16-bit, so 48 bits
// never truncate.
uint64_t TrackKey(uint8_t host, TsMetric metric, uint64_t key) {
  return (static_cast<uint64_t>(host) << 56) |
         (static_cast<uint64_t>(metric) << 48) | (key & ((uint64_t{1} << 48) - 1));
}

}  // namespace

const char* TsMetricName(TsMetric m) {
  return kMetricNames[static_cast<size_t>(m)];
}

void TimeseriesSampler::Push(uint8_t host, TsMetric metric, uint64_t key, SimTime ts,
                             int64_t value) {
  if (!active()) {
    return;
  }
  const int64_t bucket = ts.nanos() / period_ns_;
  auto [it, inserted] = tracks_.try_emplace(TrackKey(host, metric, key));
  TrackState& track = it->second;
  if (!inserted) {
    if (bucket <= track.last_bucket) {
      // Same period as the last recorded point: fold the change into the
      // next one (dirty marks that the recorded value is stale).
      track.dirty = track.dirty || value != track.last_value;
      return;
    }
    if (value == track.last_value && !track.dirty) {
      return;  // nothing changed since the last point
    }
  }
  track.last_bucket = bucket;
  track.last_value = value;
  track.dirty = false;
  points_.push_back({ts.nanos(), value, key, host, static_cast<uint8_t>(metric),
                     /*edge=*/false});
}

void TimeseriesSampler::PushEdge(uint8_t host, TsMetric metric, uint64_t key, SimTime ts,
                                 int64_t value) {
  if (!active()) {
    return;
  }
  // Edges also refresh the periodic track state, so a post-edge periodic
  // push does not duplicate the edge's value.
  auto [it, inserted] = tracks_.try_emplace(TrackKey(host, metric, key));
  it->second.last_bucket = ts.nanos() / period_ns_;
  it->second.last_value = value;
  it->second.dirty = false;
  points_.push_back({ts.nanos(), value, key, host, static_cast<uint8_t>(metric),
                     /*edge=*/true});
}

void SortTimeseriesPoints(std::vector<TimeseriesPoint>* points) {
  std::stable_sort(points->begin(), points->end(),
                   [](const TimeseriesPoint& a, const TimeseriesPoint& b) {
                     if (a.ts_ns != b.ts_ns) {
                       return a.ts_ns < b.ts_ns;
                     }
                     return a.host < b.host;
                   });
}

const char* TimeseriesCsvHeader() { return "ts_ns,host,metric,key,value,edge\n"; }

void AppendTimeseriesCsvRow(std::string* out, const TimeseriesPoint& p,
                            const std::vector<std::string>& host_names) {
  char buf[192];
  const char* host = p.host < host_names.size() ? host_names[p.host].c_str() : "?";
  std::snprintf(buf, sizeof(buf), "%" PRId64 ",%s,%s,%" PRIu64 ",%" PRId64 ",%d\n",
                p.ts_ns, host, TsMetricName(static_cast<TsMetric>(p.metric)), p.key,
                p.value, p.edge ? 1 : 0);
  *out += buf;
}

std::string TimeseriesToCsv(const std::vector<TimeseriesPoint>& points,
                            const std::vector<std::string>& host_names) {
  std::string out = TimeseriesCsvHeader();
  for (const TimeseriesPoint& p : points) {
    AppendTimeseriesCsvRow(&out, p, host_names);
  }
  return out;
}

}  // namespace tcplat
