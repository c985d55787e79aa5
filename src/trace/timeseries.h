// Time-series telemetry plane: deterministic counter timelines over
// simulated time.
//
// Producers (TcpConnection, AtmSwitch, RunWorkload) push samples whenever a
// tracked value changes; the sampler thins them to at most one point per
// track per sampling period, so a timeline costs O(run length / period) per
// track instead of O(events). Discontinuities bypass the thinning as "edge"
// samples (loss-episode entry/exit, EPD frame refusal, RTO fire, and the
// peak/valley pair of a cwnd sawtooth corner), so the corners of every
// sawtooth are exact rather than aliased by the sampling clock.
//
// Everything is driven by simulated time: there are no self-rescheduling
// sampling events (which would keep the event queue alive forever).
// Timelines are finalized by a stable sort on (ts_ns, host): each host's
// push stream is simulated-deterministic, so the sorted timeline is
// byte-identical across TCPLAT_JOBS.

#ifndef SRC_TRACE_TIMESERIES_H_
#define SRC_TRACE_TIMESERIES_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/sim/time.h"

namespace tcplat {

// One track per (host, metric, key): key is the flow id for TCP/flow
// metrics and the VCI for switch metrics.
enum class TsMetric : uint8_t {
  // Periodic (change-driven, thinned to the sampling period).
  kTcpCwnd = 0,
  kTcpSsthresh,
  kTcpPipe,          // snd_max - snd_una, bytes outstanding
  kTcpSrttUs,
  kTcpRtoUs,
  kVcOccupancy,      // switch per-VC output buffer, in cells
  kVcHiwat,
  kVcDropsCum,       // cumulative per-VC cells dropped
  kFlowGoodputBps,
  kFlowInflightBytes,
  // Edge-only (never thinned; mark discontinuities exactly).
  kTcpLossEnter,     // value = cwnd at the peak, before the halving
  kTcpLossExit,      // value = cwnd after recovery deflation
  kTcpRtoFire,       // value = the fired RTO in ns (the dead-air length)
  kVcEpdRefusal,     // value = occupancy that refused the frame
  kCount,
};

const char* TsMetricName(TsMetric m);

struct TimeseriesPoint {
  int64_t ts_ns = 0;
  int64_t value = 0;
  uint64_t key = 0;   // flow id or VCI
  uint8_t host = 0;   // Tracer::RegisterHost id
  uint8_t metric = 0; // TsMetric
  bool edge = false;
};

struct TimeseriesConfig {
  // Sampling period. At most one non-edge point per track per period.
  // <= 0 disables recording entirely while leaving the producer hooks
  // live — the configuration the `timeseries_overhead_pct` gate measures.
  int64_t period_ns = 1'000'000;
};

class TimeseriesSampler {
 public:
  explicit TimeseriesSampler(const TimeseriesConfig& config)
      : period_ns_(config.period_ns) {}

  bool active() const { return period_ns_ > 0; }
  int64_t period_ns() const { return period_ns_; }

  // Change-driven sample: recorded if this track has no point yet, or if
  // the value differs from the last recorded point and at least one full
  // period has elapsed since it. Values that change and settle within one
  // period are folded into the next recorded point.
  void Push(uint8_t host, TsMetric metric, uint64_t key, SimTime ts, int64_t value);

  // Discontinuity: always recorded (subject only to active()).
  void PushEdge(uint8_t host, TsMetric metric, uint64_t key, SimTime ts, int64_t value);

  const std::vector<TimeseriesPoint>& points() const { return points_; }

 private:
  struct TrackState {
    int64_t last_bucket = 0;
    int64_t last_value = 0;
    bool dirty = false;  // a change was thinned away since the last point
  };

  int64_t period_ns_;
  std::unordered_map<uint64_t, TrackState> tracks_;
  std::vector<TimeseriesPoint> points_;
};

// Finalizes a timeline: stable sort on (ts_ns, host). Per-host sub-order
// (the push order) is preserved.
void SortTimeseriesPoints(std::vector<TimeseriesPoint>* points);

// Long-format timeline CSV (ts_ns,host,metric,key,value,edge).
// `host_names` indexes by TimeseriesPoint::host.
std::string TimeseriesToCsv(const std::vector<TimeseriesPoint>& points,
                            const std::vector<std::string>& host_names);

}  // namespace tcplat

#endif  // SRC_TRACE_TIMESERIES_H_
