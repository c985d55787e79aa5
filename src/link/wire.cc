#include "src/link/wire.h"

#include <algorithm>
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

CellBytes ToCellBytes(std::span<const uint8_t> bytes) {
  TCPLAT_CHECK_EQ(bytes.size(), kAtmCellBytes) << "a cell is " << kAtmCellBytes << " bytes";
  CellBytes cell{};
  std::copy(bytes.begin(), bytes.end(), cell.begin());
  return cell;
}

void CellSink::DeliverCell(SimTime arrival, const CellBytes& cell) {
  DeliverCell(arrival, std::vector<uint8_t>(cell.begin(), cell.end()));
}

void CellSink::DeliverCell(SimTime arrival, std::vector<uint8_t> wire_bytes) {
  DeliverCell(arrival, ToCellBytes(wire_bytes));
}

SimDuration Wire::SerializationDelay(size_t bytes) const {
  return SimDuration::FromSeconds(static_cast<double>(bytes) * 8.0 / bits_per_second_);
}

SimTime Wire::Serialize(SimTime earliest, size_t bytes) {
  const SimTime start = earliest > busy_until_ ? earliest : busy_until_;
  busy_until_ = start + SerializationDelay(bytes + gap_bytes_);
  ++units_sent_;
  bytes_sent_ += bytes;
  return busy_until_;
}

bool Wire::RunFateHooks(SimTime last_bit_out, std::vector<uint8_t>& data,
                        LinkImpairment::Verdict* verdict) {
  // Fate hooks compose corrupt-then-drop: a corrupted unit can still be
  // discarded, and either way the sender already paid serialization — loss
  // happens in flight, never refunding wire time.
  if (corrupt_) {
    corrupt_(data);
  }
  if (drop_ && drop_(data)) {
    ++units_dropped_;
    return false;
  }
  if (impairment_ != nullptr) {
    *verdict = impairment_->OnTransmit(last_bit_out, data);
    if (verdict->drop) {
      ++units_dropped_;
      return false;
    }
  }
  return true;
}

SimTime Wire::Transmit(SimTime earliest, std::vector<uint8_t> data, DeliverFn deliver) {
  TCPLAT_CHECK(!data.empty());
  const SimTime last_bit_out = Serialize(earliest, data.size());
  LinkImpairment::Verdict verdict;
  if (!RunFateHooks(last_bit_out, data, &verdict)) {
    return last_bit_out;
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

SimTime Wire::Transmit(SimTime earliest, const CellBytes& cell, CellSink* sink) {
  const SimTime last_bit_out = Serialize(earliest, cell.size());
  // With no hook set, no vector is built.
  if (!has_fate_hooks()) {
    ScheduleCell(last_bit_out + propagation_, cell, sink);
    return last_bit_out;
  }
  std::vector<uint8_t> data(cell.begin(), cell.end());
  LinkImpairment::Verdict verdict;
  if (!RunFateHooks(last_bit_out, data, &verdict)) {
    return last_bit_out;
  }
  const CellBytes fated = ToCellBytes(data);
  const SimTime arrival = last_bit_out + propagation_ + verdict.extra_delay;
  ScheduleCell(arrival, fated, sink);
  if (verdict.duplicate) {  // after the original, as above
    ScheduleCell(arrival + verdict.duplicate_lag, fated, sink);
  }
  return last_bit_out;
}

void Wire::ScheduleDelivery(SimTime arrival, std::vector<uint8_t> data, DeliverFn deliver) {
  sim_->ScheduleInLane(lane_, arrival,
                       [arrival, data = std::move(data), deliver = std::move(deliver)]() mutable {
                         deliver(arrival, std::move(data));
                       });
}

void Wire::ScheduleCell(SimTime arrival, const CellBytes& cell, CellSink* sink) {
  // Captures no Wire: the lane outlives it.
  auto deliver = [sink, arrival, cell] { sink->DeliverCell(arrival, cell); };
  using Callback = EventQueue::Callback;
  static_assert(Callback::kStoredInline<decltype(deliver)> &&
                    Callback::kByteRelocatable<decltype(deliver)>,
                "a cell delivery must sit inline in the event queue and move as bytes");
  sim_->ScheduleInLane(lane_, arrival, std::move(deliver));
}

}  // namespace tcplat
