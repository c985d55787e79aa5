#include "src/link/wire.h"

#include <utility>

#include "src/base/check.h"

namespace tcplat {

Wire::Wire(Simulator* sim, double bits_per_second, SimDuration propagation, size_t gap_bytes)
    : sim_(sim), bits_per_second_(bits_per_second), propagation_(propagation),
      gap_bytes_(gap_bytes) {
  TCPLAT_CHECK(sim != nullptr);
  TCPLAT_CHECK_GT(bits_per_second, 0.0);
  lane_ = sim->NewLane();
}

SimDuration Wire::SerializationDelay(size_t bytes) const {
  return SimDuration::FromSeconds(static_cast<double>(bytes) * 8.0 / bits_per_second_);
}

SimTime Wire::Transmit(SimTime earliest, std::vector<uint8_t> data, DeliverFn deliver) {
  TCPLAT_CHECK(!data.empty());
  const SimTime start = earliest > busy_until_ ? earliest : busy_until_;
  const SimTime last_bit_out = start + SerializationDelay(data.size() + gap_bytes_);
  busy_until_ = last_bit_out;
  ++units_sent_;
  bytes_sent_ += data.size();

  // Fate hooks compose corrupt-then-drop: a corrupted unit can still be
  // discarded, and either way the sender already paid serialization — loss
  // happens in flight, never refunding wire time.
  if (corrupt_) {
    corrupt_(data);
  }
  if (drop_ && drop_(data)) {
    ++units_dropped_;
    return last_bit_out;
  }
  LinkImpairment::Verdict verdict;
  if (impairment_ != nullptr) {
    verdict = impairment_->OnTransmit(last_bit_out, data);
    if (verdict.drop) {
      ++units_dropped_;
      return last_bit_out;
    }
  }
  const SimTime arrival = last_bit_out + propagation_ + verdict.extra_delay;
  if (verdict.duplicate) {
    // The original is scheduled first so it is also delivered first when the
    // duplicate lag is zero (event order at equal times is insertion order).
    const SimTime dup_arrival = arrival + verdict.duplicate_lag;
    ScheduleDelivery(arrival, data, deliver);
    ScheduleDelivery(dup_arrival, std::move(data), std::move(deliver));
    return last_bit_out;
  }
  ScheduleDelivery(arrival, std::move(data), std::move(deliver));
  return last_bit_out;
}

void Wire::ScheduleDelivery(SimTime arrival, std::vector<uint8_t> data, DeliverFn deliver) {
  sim_->ScheduleInLane(lane_, arrival,
                       [arrival, data = std::move(data), deliver = std::move(deliver)]() mutable {
                         deliver(arrival, std::move(data));
                       });
}

SharedBus::SharedBus(Simulator* sim, double bits_per_second, SimDuration propagation,
                     size_t gap_bytes)
    : wire_(sim, bits_per_second, propagation, gap_bytes) {}

SimTime SharedBus::Transmit(SimTime earliest, std::vector<uint8_t> data, DeliverFn deliver) {
  return wire_.Transmit(earliest, std::move(data), std::move(deliver));
}

}  // namespace tcplat
