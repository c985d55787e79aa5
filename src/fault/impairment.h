// Seeded per-link network impairment.
//
// The paper's §4.2.1 argument for eliminating the TCP checksum rests on the
// local ATM link being nearly error-free; the testbed never exercises the
// regime where TCP's recovery machinery earns its keep. An ImpairmentPolicy
// makes that regime reachable: attached to a Wire (or EtherSegment, DuplexLink
// direction, or ATM switch output) it applies deterministic, seeded cell or
// frame loss — uniform or Gilbert-Elliott bursty — plus duplication,
// reorder-by-delay, and uniform jitter. Every decision comes from the
// policy's own xoshiro stream, so a fixed seed reproduces the exact drop
// schedule, including inside the parallel grid runner.
//
// Observability: per-link counters register as MetricsRegistry views
// ("link.<name>.*") and each drop/dup/delay emits a TraceLayer::kLink event
// when a Tracer is attached, so impaired runs stay fully inspectable.

#ifndef SRC_FAULT_IMPAIRMENT_H_
#define SRC_FAULT_IMPAIRMENT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/base/random.h"
#include "src/link/wire.h"
#include "src/trace/metrics.h"
#include "src/trace/tracer.h"

namespace tcplat {

struct ImpairmentConfig {
  // Uniform per-unit loss probability.
  double drop_prob = 0.0;

  // Gilbert-Elliott bursty loss, enabled when ge_bad_loss > 0. The chain
  // advances one step per unit: good->bad with ge_good_to_bad, bad->good
  // with ge_bad_to_good; the unit is then lost with the state's loss
  // probability. Mean burst length is 1 / ge_bad_to_good units.
  double ge_good_to_bad = 0.0;
  double ge_bad_to_good = 0.25;
  double ge_good_loss = 0.0;
  double ge_bad_loss = 0.0;

  // Per-unit duplication: a second copy arrives duplicate_lag after the
  // original.
  double duplicate_prob = 0.0;
  SimDuration duplicate_lag = SimDuration::FromMicros(5);

  // Reordering: hold the selected unit back by reorder_hold so that units
  // serialized after it can overtake it in flight.
  double reorder_prob = 0.0;
  SimDuration reorder_hold = SimDuration::FromMicros(10);

  // Uniform extra delay in [0, jitter_max) added to every unit.
  SimDuration jitter_max;

  uint64_t seed = 1;

  // True when any impairment can actually fire.
  bool active() const {
    return drop_prob > 0.0 || ge_bad_loss > 0.0 || duplicate_prob > 0.0 ||
           reorder_prob > 0.0 || jitter_max.nanos() > 0;
  }
};

// All counters are per-link. Invariant: delivered + dropped == offered
// (duplicates are extra copies and counted separately).
struct ImpairmentStats {
  uint64_t offered = 0;
  uint64_t delivered = 0;
  uint64_t dropped = 0;
  uint64_t duplicated = 0;
  uint64_t reordered = 0;
  uint64_t jittered = 0;
  uint64_t ge_bursts = 0;  // entries into the Gilbert-Elliott bad state
  uint64_t bytes_offered = 0;
  uint64_t bytes_dropped = 0;

  ImpairmentStats& operator+=(const ImpairmentStats& o);
};

class ImpairmentPolicy : public LinkImpairment {
 public:
  explicit ImpairmentPolicy(const ImpairmentConfig& config);

  // LinkImpairment.
  Verdict OnTransmit(SimTime departure, const std::vector<uint8_t>& data) override;

  const ImpairmentConfig& config() const { return config_; }
  const ImpairmentStats& stats() const { return stats_; }

  // Registers counter views under "link.<prefix>.*" (e.g. "link.tx.offered").
  // Skipped quietly if the names are already taken (a second policy on the
  // same host keeps its stats reachable through stats()).
  void RegisterMetrics(MetricsRegistry& metrics, std::string_view prefix = "tx");

  // Emits kImpair* events as participant `trace_id` (from
  // Tracer::RegisterHost). Pass nullptr to detach.
  void AttachTracer(Tracer* tracer, uint8_t trace_id) {
    tracer_ = tracer;
    trace_id_ = trace_id;
  }

 private:
  ImpairmentConfig config_;
  Rng rng_;
  ImpairmentStats stats_;
  bool ge_bad_ = false;
  Tracer* tracer_ = nullptr;
  uint8_t trace_id_ = 0;
};

}  // namespace tcplat

#endif  // SRC_FAULT_IMPAIRMENT_H_
