// The discrete-event simulator driving a whole experiment.
//
// A Simulator owns the virtual clock and the pending-event set. All other
// components (hosts, links, device models) schedule callbacks against it.
// Execution is strictly single-threaded and deterministic.

#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cstdint>

#include "src/base/random.h"
#include "src/sim/event_queue.h"
#include "src/sim/time.h"

namespace tcplat {

class Simulator {
 public:
  explicit Simulator(uint64_t seed = 1);
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime Now() const { return now_; }
  Rng& rng() { return rng_; }

  // Schedules `fn` at Now() + delay (delay >= 0).
  EventId Schedule(SimDuration delay, EventQueue::Callback&& fn);

  // Schedules `fn` at the absolute time `when` (>= Now()).
  EventId ScheduleAt(SimTime when, EventQueue::Callback&& fn);

  bool Cancel(EventId id) { return events_.Cancel(id); }

  // FIFO lanes for sources whose event times never decrease (see
  // EventQueue::NewLane). ScheduleInLane takes an absolute time (>= Now())
  // and dispatches exactly as ScheduleAt would; lane events cannot be
  // cancelled.
  LaneId NewLane() { return events_.NewLane(); }
  void ScheduleInLane(LaneId lane, SimTime when, EventQueue::Callback&& fn);

  // For a source that applies its own updates late instead of scheduling an
  // event for each (see EventQueue::DrawSeq). DrawSeq draws the sequence
  // number an event scheduled now would get. KeyPassed says whether an event
  // scheduled under (when, seq) would already have run: during a dispatch,
  // whether the key sorts before the running event's; after Step, before
  // the event it ran; after RunUntil, which runs everything due by its
  // deadline, whether `when` is before Now() or the key was drawn at Now().
  uint64_t DrawSeq() { return events_.DrawSeq(); }
  bool KeyPassed(SimTime when, uint64_t seq) const {
    return when < now_ || (when == now_ && seq < now_seq_);
  }

  // Runs events until the queue is empty or `deadline` is passed. Events
  // scheduled exactly at the deadline still run. Returns the number of
  // events dispatched.
  uint64_t RunUntil(SimTime deadline);

  // Runs until the queue drains completely.
  uint64_t RunToCompletion();

  // Runs a single event if one is pending; returns false if the queue was
  // empty.
  bool Step();

  uint64_t events_dispatched() const { return dispatched_; }
  // What the event heap orders: pending ordinary events plus one per
  // non-empty lane. Entries queued behind a lane's head are not counted, so
  // this is the heap depth, not the number of events still to run; zero
  // still means nothing is pending.
  size_t pending_events() const { return events_.size(); }

 private:
  // Pops the next event, moves the clock to its key and runs it.
  void DispatchNext();

  SimTime now_;
  uint64_t now_seq_ = 0;  // with now_, the key KeyPassed compares against
  EventQueue events_;
  Rng rng_;
  uint64_t dispatched_ = 0;
};

}  // namespace tcplat

#endif  // SRC_SIM_SIMULATOR_H_
