#include "src/sim/event_queue.h"

#include <algorithm>

#include "src/base/check.h"

namespace tcplat {

namespace {
// Compaction triggers only past this many dead keys, so small queues never
// pay for it; above it, compaction runs when dead keys outnumber live ones,
// which keeps the heap within 2x the peak live count while amortizing the
// O(n) sweep over at least n/2 cancellations.
constexpr size_t kCompactMinDead = 64;
}  // namespace

EventId EventQueue::ScheduleAt(SimTime when, Callback&& fn) {
  TCPLAT_CHECK(static_cast<bool>(fn));
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    TCPLAT_CHECK_LT(slots_.size(), kSlotMask + 1) << "too many pending events";
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  TCPLAT_CHECK_LT(next_seq_, uint64_t{1} << (64 - kSlotBits)) << "event sequence exhausted";
  const uint64_t seq = next_seq_++;
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.seq = seq;
  const Key key{when.nanos(), (seq << kSlotBits) | slot};
  heap_.push_back(key);
  std::push_heap(heap_.begin(), heap_.end(), KeyGreater{});
  ++live_;
  return key.seq_slot;
}

void EventQueue::ReleaseSlot(uint32_t slot) {
  slots_[slot].seq = 0;
  free_slots_.push_back(slot);
  --live_;
}

bool EventQueue::Cancel(EventId id) {
  const Key key{0, id};
  if (key.seq() == 0 || key.slot() >= slots_.size() || !IsLive(key)) {
    return false;
  }
  slots_[key.slot()].fn.Reset();  // the captured state dies now, not at pop time
  ReleaseSlot(key.slot());
  ++dead_in_heap_;
  CompactIfWorthIt();
  return true;
}

void EventQueue::DropDeadHead() {
  while (!heap_.empty() && !IsLive(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), KeyGreater{});
    heap_.pop_back();
    --dead_in_heap_;
  }
}

void EventQueue::CompactIfWorthIt() {
  if (dead_in_heap_ < kCompactMinDead || dead_in_heap_ * 2 < heap_.size()) {
    return;
  }
  std::erase_if(heap_, [this](const Key& k) { return !IsLive(k); });
  std::make_heap(heap_.begin(), heap_.end(), KeyGreater{});
  dead_in_heap_ = 0;
}

SimTime EventQueue::NextTime() {
  DropDeadHead();
  TCPLAT_CHECK(!heap_.empty());
  return SimTime::FromNanos(heap_.front().time);
}

EventQueue::Dispatched EventQueue::PopNext() {
  DropDeadHead();
  TCPLAT_CHECK(!heap_.empty());
  std::pop_heap(heap_.begin(), heap_.end(), KeyGreater{});
  const Key key = heap_.back();
  heap_.pop_back();
  Dispatched out{SimTime::FromNanos(key.time), std::move(slots_[key.slot()].fn)};
  ReleaseSlot(key.slot());
  return out;
}

}  // namespace tcplat
