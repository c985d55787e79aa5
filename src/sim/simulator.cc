#include "src/sim/simulator.h"

#include "src/base/check.h"

namespace tcplat {

Simulator::Simulator(uint64_t seed) : rng_(seed) {}

EventId Simulator::Schedule(SimDuration delay, EventQueue::Callback&& fn) {
  TCPLAT_CHECK_GE(delay.nanos(), 0) << "cannot schedule into the past";
  return events_.ScheduleAt(now_ + delay, std::move(fn));
}

EventId Simulator::ScheduleAt(SimTime when, EventQueue::Callback&& fn) {
  TCPLAT_CHECK_GE(when.nanos(), now_.nanos()) << "cannot schedule into the past";
  return events_.ScheduleAt(when, std::move(fn));
}

void Simulator::ScheduleInLane(LaneId lane, SimTime when, EventQueue::Callback&& fn) {
  TCPLAT_CHECK_GE(when.nanos(), now_.nanos()) << "cannot schedule into the past";
  events_.ScheduleInLane(lane, when, std::move(fn));
}

uint64_t Simulator::RunUntil(SimTime deadline) {
  uint64_t n = 0;
  while (!events_.empty() && events_.NextTime() <= deadline) {
    DispatchNext();
    ++n;
  }
  if (now_ <= deadline) {
    // Every event due by the deadline has run, so every key drawn so far
    // at the new Now() has passed.
    now_seq_ = events_.next_seq();
    if (deadline != SimTime::Max()) {
      now_ = deadline;
    }
  }
  return n;
}

uint64_t Simulator::RunToCompletion() {
  uint64_t n = 0;
  while (Step()) {
    ++n;
  }
  return n;
}

bool Simulator::Step() {
  if (events_.empty()) {
    return false;
  }
  DispatchNext();
  return true;
}

void Simulator::DispatchNext() {
  auto ev = events_.PopNext();
  TCPLAT_CHECK_GE(ev.time.nanos(), now_.nanos());
  now_ = ev.time;
  now_seq_ = ev.seq;
  ev.fn();
  ++dispatched_;
}

}  // namespace tcplat
