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

uint64_t EventQueue::NextSeq() {
  TCPLAT_CHECK_LT(next_seq_, uint64_t{1} << (64 - kSlotBits)) << "event sequence exhausted";
  return next_seq_++;
}

EventId EventQueue::ScheduleAt(SimTime when, Callback&& fn) {
  TCPLAT_CHECK(static_cast<bool>(fn));
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    TCPLAT_CHECK_LT(slots_.size(), kFirstLaneSlot) << "too many pending events";
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  const uint64_t seq = NextSeq();
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

LaneId EventQueue::NewLane() {
  TCPLAT_CHECK_LT(lanes_.size(), kMaxLanes) << "too many event lanes";
  lanes_.emplace_back();
  return static_cast<LaneId>(lanes_.size() - 1);
}

void EventQueue::ScheduleInLane(LaneId lane_id, SimTime when, Callback&& fn) {
  TCPLAT_DCHECK(lane_id < lanes_.size());
  Lane& lane = lanes_[lane_id];
  if (lane.count > 0 && when.nanos() < lane.tail_time) {
    ScheduleAt(when, std::move(fn));  // it would overtake the lane's tail
    return;
  }
  TCPLAT_CHECK(static_cast<bool>(fn));
  if (lane.count == lane.ring.size()) {
    std::vector<LaneEntry> grown(std::max<size_t>(8, 2 * lane.ring.size()));
    for (size_t i = 0; i < lane.count; ++i) {
      grown[i] = std::move(lane.ring[(lane.head + i) & (lane.ring.size() - 1)]);
    }
    lane.ring = std::move(grown);
    lane.head = 0;
  }
  const Key key{when.nanos(), (NextSeq() << kSlotBits) | (kFirstLaneSlot + lane_id)};
  LaneEntry& entry = lane.ring[(lane.head + lane.count) & (lane.ring.size() - 1)];
  entry.key = key;
  entry.fn = std::move(fn);
  lane.tail_time = key.time;
  if (lane.count++ == 0) {
    heap_.push_back(key);
    std::push_heap(heap_.begin(), heap_.end(), KeyGreater{});
    ++live_;
  }
}

bool EventQueue::Cancel(EventId id) {
  const Key key{0, id};
  // A lane's slot index is never below slots_.size(), so no id reaches a
  // lane event.
  if (key.seq() == 0 || key.slot() >= slots_.size() || slots_[key.slot()].seq != key.seq()) {
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
  const Key key = heap_.front();
  if (key.slot() >= kFirstLaneSlot) {
    return PopLaneHead(key);
  }
  std::pop_heap(heap_.begin(), heap_.end(), KeyGreater{});
  heap_.pop_back();
  ReleaseSlot(key.slot());  // leaves the callback in place
  // Built in the return statement, so the callback moves once, straight into
  // the result (a named local would not get NRVO beside the lane return).
  return Dispatched{SimTime::FromNanos(key.time), key.seq(), std::move(slots_[key.slot()].fn)};
}

EventQueue::Dispatched EventQueue::PopLaneHead(const Key& top) {
  Lane& lane = lanes_[top.slot() - kFirstLaneSlot];
  Dispatched out{SimTime::FromNanos(top.time), top.seq(), std::move(lane.ring[lane.head].fn)};
  lane.head = (lane.head + 1) & (lane.ring.size() - 1);
  if (--lane.count > 0) {
    ReplaceTop(lane.ring[lane.head].key);
  } else {
    std::pop_heap(heap_.begin(), heap_.end(), KeyGreater{});
    heap_.pop_back();
    --live_;
  }
  return out;
}

void EventQueue::ReplaceTop(const Key& key) {
  const size_t n = heap_.size();
  size_t hole = 0;
  for (size_t child = 1; child < n; child = 2 * hole + 1) {
    if (child + 1 < n && KeyGreater{}(heap_[child], heap_[child + 1])) {
      ++child;
    }
    if (!KeyGreater{}(key, heap_[child])) {
      break;
    }
    heap_[hole] = heap_[child];
    hole = child;
  }
  heap_[hole] = key;
}

}  // namespace tcplat
