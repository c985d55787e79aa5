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
    auto ev = events_.PopNext();
    TCPLAT_CHECK_GE(ev.time.nanos(), now_.nanos());
    now_ = ev.time;
    ev.fn();
    ++n;
    ++dispatched_;
  }
  if (events_.empty() || events_.NextTime() > deadline) {
    if (deadline > now_ && deadline != SimTime::Max()) {
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
  auto ev = events_.PopNext();
  TCPLAT_CHECK_GE(ev.time.nanos(), now_.nanos());
  now_ = ev.time;
  ev.fn();
  ++dispatched_;
  return true;
}

}  // namespace tcplat
