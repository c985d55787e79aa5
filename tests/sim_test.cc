// Unit tests for the discrete-event core: SimTime/SimDuration arithmetic,
// event-queue ordering and cancellation, simulator execution.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/base/random.h"
#include "src/sim/event_queue.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"

namespace tcplat {
namespace {

TEST(SimTime, ConversionRoundTrips) {
  EXPECT_EQ(SimTime::FromNanos(1500).nanos(), 1500);
  EXPECT_DOUBLE_EQ(SimTime::FromMicros(2.5).micros(), 2.5);
  EXPECT_DOUBLE_EQ(SimTime::FromMillis(1.0).millis(), 1.0);
  EXPECT_DOUBLE_EQ(SimTime::FromSeconds(0.25).seconds(), 0.25);
}

TEST(SimTime, Arithmetic) {
  const SimTime t = SimTime::FromMicros(10);
  const SimDuration d = SimDuration::FromMicros(3);
  EXPECT_EQ((t + d).nanos(), 13000);
  EXPECT_EQ((t - d).nanos(), 7000);
  EXPECT_EQ((t + d) - t, d);
  EXPECT_EQ((d + d).nanos(), 6000);
  EXPECT_EQ((d - d).nanos(), 0);
  EXPECT_EQ((d * 3).nanos(), 9000);
  EXPECT_EQ((3 * d).nanos(), 9000);
  EXPECT_EQ((d / 3).nanos(), 1000);
}

TEST(SimTime, Comparisons) {
  EXPECT_LT(SimTime::FromNanos(1), SimTime::FromNanos(2));
  EXPECT_GE(SimDuration::FromNanos(5), SimDuration::FromNanos(5));
}

TEST(SimTime, QuantizeToClockTick) {
  // The paper's AN-1 clock ticks every 40 ns.
  EXPECT_EQ(SimTime::FromNanos(0).QuantizeToClockTick().nanos(), 0);
  EXPECT_EQ(SimTime::FromNanos(39).QuantizeToClockTick().nanos(), 0);
  EXPECT_EQ(SimTime::FromNanos(40).QuantizeToClockTick().nanos(), 40);
  EXPECT_EQ(SimTime::FromNanos(1234567).QuantizeToClockTick().nanos(), 1234560);
}

TEST(SimTime, ToStringPicksUnits) {
  EXPECT_EQ(SimTime::FromNanos(123).ToString(), "123ns");
  EXPECT_EQ(SimDuration::FromMicros(123.456).ToString(), "123.456us");
  EXPECT_EQ(SimTime::FromMillis(12.5).ToString(), "12.500ms");
  EXPECT_EQ(SimTime::FromSeconds(11).ToString(), "11.000s");
}

TEST(EventQueue, DispatchesInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(SimTime::FromNanos(30), [&] { order.push_back(3); });
  q.ScheduleAt(SimTime::FromNanos(10), [&] { order.push_back(1); });
  q.ScheduleAt(SimTime::FromNanos(20), [&] { order.push_back(2); });
  while (!q.empty()) {
    q.PopNext().fn();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimestampIsFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.ScheduleAt(SimTime::FromNanos(5), [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) {
    q.PopNext().fn();
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(EventQueue, CancelPreventsDispatch) {
  EventQueue q;
  bool ran = false;
  const EventId id = q.ScheduleAt(SimTime::FromNanos(10), [&] { ran = true; });
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.Cancel(id));  // second cancel is a no-op
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelMiddleEventKeepsOthers) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(SimTime::FromNanos(10), [&] { order.push_back(1); });
  const EventId id = q.ScheduleAt(SimTime::FromNanos(20), [&] { order.push_back(2); });
  q.ScheduleAt(SimTime::FromNanos(30), [&] { order.push_back(3); });
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) {
    q.PopNext().fn();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, NextTimeSkipsCancelledHead) {
  EventQueue q;
  const EventId id = q.ScheduleAt(SimTime::FromNanos(5), [] {});
  q.ScheduleAt(SimTime::FromNanos(9), [] {});
  q.Cancel(id);
  EXPECT_EQ(q.NextTime(), SimTime::FromNanos(9));
}

TEST(EventQueue, ScheduleCancelMillionEventsStaysBounded) {
  // Regression: cancelled entries used to linger in the heap until they
  // surfaced at pop time, so a schedule/cancel storm (TCP timers on every
  // segment) grew memory without bound. With eager reclamation + compaction
  // the footprint must track the peak *live* count, not the churn.
  EventQueue q;
  constexpr int kBatches = 10000;
  constexpr int kPerBatch = 100;  // 1M schedule/cancel pairs in total
  size_t max_allocated = 0;
  for (int batch = 0; batch < kBatches; ++batch) {
    EventId ids[kPerBatch];
    for (int i = 0; i < kPerBatch; ++i) {
      ids[i] = q.ScheduleAt(SimTime::FromNanos(1000 + batch), [] {});
    }
    for (int i = 0; i < kPerBatch; ++i) {
      EXPECT_TRUE(q.Cancel(ids[i]));
    }
    max_allocated = std::max(max_allocated, q.allocated_entries());
  }
  EXPECT_TRUE(q.empty());
  // Peak live count is kPerBatch; allow compaction slack and the pooled
  // freelist, but nothing within orders of magnitude of 1M.
  EXPECT_LT(max_allocated, 5000u);
}

TEST(EventQueue, CancelledLongTailDoesNotOutliveCompaction) {
  // Cancel events parked far in the future (they would never reach the heap
  // top) and check the heap itself shrinks.
  EventQueue q;
  q.ScheduleAt(SimTime::FromNanos(1), [] {});
  std::vector<EventId> ids;
  for (int i = 0; i < 100000; ++i) {
    ids.push_back(q.ScheduleAt(SimTime::FromSeconds(1000 + i), [] {}));
  }
  for (EventId id : ids) {
    q.Cancel(id);
  }
  EXPECT_EQ(q.size(), 1u);
  EXPECT_LT(q.heap_entries(), 1000u);
  int ran = 0;
  while (!q.empty()) {
    q.PopNext().fn();
    ++ran;
  }
  EXPECT_EQ(ran, 1);
}

TEST(EventQueue, EntriesAreRecycledThroughTheFreelist) {
  // Steady-state schedule/pop traffic should keep reusing one callback slot
  // instead of growing per event.
  EventQueue q;
  for (int round = 0; round < 1000; ++round) {
    q.ScheduleAt(SimTime::FromNanos(round + 1), [] {});
    q.PopNext();
  }
  EXPECT_LE(q.allocated_entries(), 4u);
}

TEST(EventQueue, CancelAfterCompactionKeepsOrder) {
  // Dispatch order must stay (time, seq) FIFO even after an internal heap
  // rebuild.
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> doomed;
  for (int i = 0; i < 500; ++i) {
    doomed.push_back(q.ScheduleAt(SimTime::FromNanos(10), [] {}));
  }
  for (int i = 0; i < 10; ++i) {
    q.ScheduleAt(SimTime::FromNanos(20), [&order, i] { order.push_back(i); });
  }
  for (EventId id : doomed) {
    q.Cancel(id);  // triggers compaction mid-stream
  }
  while (!q.empty()) {
    q.PopNext().fn();
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(EventQueue, StaleIdDoesNotCancelTheEventThatReusedItsSlot) {
  EventQueue q;
  const EventId ran_id = q.ScheduleAt(SimTime::FromNanos(10), [] {});
  q.PopNext().fn();
  const EventId cancelled_id = q.ScheduleAt(SimTime::FromNanos(20), [] {});
  EXPECT_TRUE(q.Cancel(cancelled_id));
  bool ran = false;
  const EventId live_id = q.ScheduleAt(SimTime::FromNanos(30), [&] { ran = true; });
  EXPECT_EQ(q.allocated_entries(), 1u);  // all three events used the same slot
  EXPECT_NE(live_id, ran_id);
  EXPECT_NE(live_id, cancelled_id);
  EXPECT_FALSE(q.Cancel(ran_id));
  EXPECT_FALSE(q.Cancel(cancelled_id));
  EXPECT_FALSE(q.Cancel(kInvalidEventId));
  ASSERT_EQ(q.size(), 1u);
  EventQueue::Dispatched next = q.PopNext();
  EXPECT_EQ(next.time, SimTime::FromNanos(30));
  EXPECT_TRUE(q.empty());
  next.fn();
  EXPECT_TRUE(ran);
}

TEST(EventQueue, RunsCallbacksLargerThanTheInlineBufferAndMoveOnlyOnes) {
  EventQueue q;
  std::array<uint64_t, 32> big{};
  static_assert(sizeof(big) > EventQueue::Callback::kInlineBytes);
  big.back() = 7;
  uint64_t seen_big = 0;
  int seen_unique = 0;
  q.ScheduleAt(SimTime::FromNanos(1), [big, &seen_big] { seen_big = big.back(); });
  q.ScheduleAt(SimTime::FromNanos(2),
               [p = std::make_unique<int>(42), &seen_unique] { seen_unique = *p; });
  while (!q.empty()) {
    q.PopNext().fn();
  }
  EXPECT_EQ(seen_big, 7u);
  EXPECT_EQ(seen_unique, 42);
}

// Counts destructions of the state a callback captured. A moved-from shell
// does not count, so each scheduled callback must add exactly one.
class DestroyCounter {
 public:
  explicit DestroyCounter(int* destroyed) : destroyed_(destroyed) {}
  DestroyCounter(DestroyCounter&& other) noexcept
      : destroyed_(std::exchange(other.destroyed_, nullptr)) {}
  DestroyCounter& operator=(DestroyCounter&&) = delete;
  ~DestroyCounter() {
    if (destroyed_ != nullptr) {
      ++*destroyed_;
    }
  }

 private:
  int* destroyed_;
};

TEST(EventQueue, EveryCallbackIsDestroyedExactlyOnce) {
  int destroyed = 0;
  int ran = 0;
  std::vector<EventId> ids;
  {
    EventQueue q;
    const LaneId lane = q.NewLane();
    // Odd times carry a capture too large for the inline buffer.
    for (int t = 1; t <= 6; ++t) {
      const SimTime when = SimTime::FromNanos(t);
      if (t % 2 == 0) {
        ids.push_back(q.ScheduleAt(when, [c = DestroyCounter(&destroyed), &ran] { ++ran; }));
      } else {
        std::array<char, 2 * EventQueue::Callback::kInlineBytes> pad{};
        ids.push_back(
            q.ScheduleAt(when, [c = DestroyCounter(&destroyed), pad, &ran] { ran += pad[0] + 1; }));
      }
    }
    // Lane entries at t = 2, 5, 7 and 9, each other one too large to store
    // inline; t = 3 is earlier than the lane's tail and becomes ordinary.
    for (int t : {2, 5, 3, 7, 9}) {
      const SimTime when = SimTime::FromNanos(t);
      if (t % 4 == 1) {
        std::array<char, 2 * EventQueue::Callback::kInlineBytes> pad{};
        q.ScheduleInLane(lane, when,
                         [c = DestroyCounter(&destroyed), pad, &ran] { ran += pad[0] + 1; });
      } else {
        q.ScheduleInLane(lane, when, [c = DestroyCounter(&destroyed), &ran] { ++ran; });
      }
    }
    EXPECT_EQ(destroyed, 0);
    EXPECT_TRUE(q.Cancel(ids[1]));
    EXPECT_TRUE(q.Cancel(ids[2]));
    EXPECT_EQ(destroyed, 2);  // cancelled: released at once
    q.PopNext().fn();         // t=1
    q.PopNext().fn();         // t=2, lane
    q.PopNext().fn();         // t=3, from the lane's fallback
    q.PopNext().fn();         // t=4
    q.PopNext().fn();         // t=5, scheduled before the lane's t=5
    EXPECT_EQ(ran, 5);
    EXPECT_EQ(destroyed, 7);  // run: released after the call
    EXPECT_EQ(q.size(), 2u);  // t=6, and the lane holding t=5, 7 and 9
  }
  EXPECT_EQ(destroyed, 11);  // still pending, in the lane too: released with the queue
  EXPECT_EQ(ran, 5);
}

// Drives an EventQueue with a seeded mix of ordinary events and lane
// entries, scheduled from outside and from inside callbacks, with
// cancellations and stale-id cancels, and mirrors what the queue must do.
class LaneMix {
 public:
  static constexpr size_t kLanes = 4;
  static constexpr size_t kMaxEvents = 6000;

  LaneMix(uint64_t seed, int* destroyed) : rng_(seed), destroyed_(destroyed) {
    for (size_t i = 0; i < kLanes; ++i) {
      lanes_.push_back(q_.NewLane());
    }
  }

  // Dispatches until the queue drains or `max_dispatches` have run.
  void Run(size_t max_dispatches) {
    while (!q_.empty() && dispatched_.size() < max_dispatches) {
      EventQueue::Dispatched ev = q_.PopNext();
      ASSERT_GE(ev.time.nanos(), now_);
      now_ = ev.time.nanos();
      ev.fn();
      ASSERT_EQ(q_.size(), ExpectedSize());
    }
  }

  // Times are drawn from a window of 16 ns, so many events share a time and
  // the tie-break by schedule order decides their order. Lane entries mostly
  // land at or just after their lane's tail, as a wire's deliveries do, and
  // now and then anywhere in the window, as an impairment delay puts them.
  void ScheduleOne() {
    const size_t index = events_.size();
    int64_t when = now_ + static_cast<int64_t>(rng_.NextBelow(16));
    Event event;
    auto fn = [this, index, c = DestroyCounter(destroyed_)] { OnRun(index); };
    if (rng_.NextBool(0.6)) {
      const size_t lane = rng_.NextBelow(kLanes);
      LaneModel& m = lane_model_[lane];
      if (m.pending > 0 && rng_.NextBool(0.8)) {
        when = m.tail + static_cast<int64_t>(rng_.NextBelow(4));
      }
      event.time = when;
      if (m.pending > 0 && when < m.tail) {
        event.kind = Event::kFallback;
        ++fallbacks_;
        ++ordinary_pending_;
      } else {
        event.kind = Event::kLane;
        event.lane = lane;
        m.tail = when;
        ++m.pending;
      }
      events_.push_back(event);
      q_.ScheduleInLane(lanes_[lane], SimTime::FromNanos(when), std::move(fn));
    } else {
      event.kind = Event::kOrdinary;
      event.time = when;
      events_.push_back(event);
      ++ordinary_pending_;
      ids_.emplace_back(q_.ScheduleAt(SimTime::FromNanos(when), std::move(fn)), index);
    }
  }

  // Cancels a random ordinary event by id: a pending one must cancel, and a
  // stale one (already run or cancelled) must not touch anything.
  void CancelOne() {
    if (ids_.empty()) {
      return;
    }
    const auto [id, index] = ids_[rng_.NextBelow(ids_.size())];
    Event& event = events_[index];
    const bool pending = !event.ran && !event.cancelled;
    ASSERT_EQ(q_.Cancel(id), pending) << "event " << index;
    if (pending) {
      event.cancelled = true;
      --ordinary_pending_;
      ++cancelled_;
    } else {
      ++stale_cancels_;
    }
  }

  // Every event not cancelled, in (time, schedule order): the order one heap
  // over all of them dispatches. A run stopped early must have dispatched a
  // prefix of it, since an event scheduled later always has a larger key.
  std::vector<size_t> ReferenceOrder() const {
    std::vector<size_t> order;
    for (size_t i = 0; i < events_.size(); ++i) {
      if (!events_[i].cancelled) {
        order.push_back(i);
      }
    }
    std::sort(order.begin(), order.end(), [this](size_t a, size_t b) {
      return events_[a].time != events_[b].time ? events_[a].time < events_[b].time : a < b;
    });
    return order;
  }

  const std::vector<size_t>& dispatched() const { return dispatched_; }
  size_t scheduled() const { return events_.size(); }
  size_t cancelled() const { return cancelled_; }
  size_t fallbacks() const { return fallbacks_; }
  size_t stale_cancels() const { return stale_cancels_; }
  size_t lane_events() const {
    return static_cast<size_t>(std::count_if(events_.begin(), events_.end(),
                                             [](const Event& e) { return e.kind == Event::kLane; }));
  }

 private:
  struct Event {
    enum Kind { kOrdinary, kLane, kFallback };
    int64_t time = 0;
    Kind kind = kOrdinary;
    size_t lane = 0;
    bool ran = false;
    bool cancelled = false;
  };
  struct LaneModel {
    size_t pending = 0;
    int64_t tail = 0;
  };

  void OnRun(size_t index) {
    Event& event = events_[index];
    ASSERT_FALSE(event.ran);
    ASSERT_FALSE(event.cancelled);
    ASSERT_EQ(event.time, now_);
    event.ran = true;
    dispatched_.push_back(index);
    if (event.kind == Event::kLane) {
      --lane_model_[event.lane].pending;
    } else {
      --ordinary_pending_;
    }
    // 1.5 successors on average, until the run has scheduled kMaxEvents.
    for (uint64_t n = rng_.NextBelow(4); n > 0 && events_.size() < kMaxEvents; --n) {
      ScheduleOne();
    }
    if (rng_.NextBool(0.3)) {
      CancelOne();
    }
  }

  // Ordinary events (fallbacks included) plus one per non-empty lane.
  size_t ExpectedSize() const {
    size_t size = ordinary_pending_;
    for (const LaneModel& m : lane_model_) {
      size += m.pending > 0 ? 1 : 0;
    }
    return size;
  }

  EventQueue q_;
  Rng rng_;
  int* destroyed_;
  int64_t now_ = 0;
  std::vector<LaneId> lanes_;
  std::array<LaneModel, kLanes> lane_model_{};
  std::vector<Event> events_;  // index = schedule order
  std::vector<std::pair<EventId, size_t>> ids_;
  std::vector<size_t> dispatched_;
  size_t ordinary_pending_ = 0;
  size_t cancelled_ = 0;
  size_t fallbacks_ = 0;
  size_t stale_cancels_ = 0;
};

TEST(EventQueue, LanesDispatchAsOneHeapWouldAmongOrdinaryEvents) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    int destroyed = 0;
    size_t scheduled = 0;
    {
      LaneMix mix(seed, &destroyed);
      for (int i = 0; i < 200; ++i) {
        mix.ScheduleOne();
        if (i % 7 == 0) {
          mix.CancelOne();
        }
      }
      // Odd seeds drain the queue; even seeds stop early and leave events,
      // lane entries among them, pending when the queue dies.
      const bool drain = seed % 2 == 1;
      mix.Run(drain ? SIZE_MAX : 3000);
      if (HasFatalFailure()) {
        return;
      }
      std::vector<size_t> reference = mix.ReferenceOrder();
      if (drain) {
        EXPECT_EQ(mix.dispatched().size(), mix.scheduled() - mix.cancelled());
      } else {
        ASSERT_EQ(mix.dispatched().size(), 3000u);
        reference.resize(mix.dispatched().size());
      }
      EXPECT_EQ(mix.dispatched(), reference);
      EXPECT_GT(mix.lane_events(), 1500u);
      EXPECT_GT(mix.fallbacks(), 300u);
      EXPECT_GT(mix.cancelled(), 50u);
      EXPECT_GT(mix.stale_cancels(), 500u);
      scheduled = mix.scheduled();
    }
    EXPECT_EQ(static_cast<size_t>(destroyed), scheduled);
  }
}

TEST(EventQueue, LaneEntryAtTheSameTimeRunsInScheduleOrder) {
  // A lane entry keeps the sequence number it was scheduled with, so an
  // ordinary event scheduled after it at the same time runs after it, even
  // though the entry reached the heap only when the lane's head ran.
  EventQueue q;
  const LaneId lane = q.NewLane();
  std::vector<int> order;
  q.ScheduleInLane(lane, SimTime::FromNanos(10), [&] { order.push_back(1); });
  q.ScheduleInLane(lane, SimTime::FromNanos(20), [&] { order.push_back(2); });
  q.ScheduleAt(SimTime::FromNanos(20), [&] { order.push_back(3); });
  q.ScheduleInLane(lane, SimTime::FromNanos(20), [&] { order.push_back(4); });
  EXPECT_EQ(q.size(), 2u);  // the lane's head and the ordinary event
  while (!q.empty()) {
    q.PopNext().fn();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(Simulator, NowAdvancesWithEvents) {
  Simulator sim;
  SimTime seen;
  sim.Schedule(SimDuration::FromMicros(7), [&] { seen = sim.Now(); });
  sim.RunToCompletion();
  EXPECT_EQ(seen, SimTime::FromMicros(7));
  EXPECT_EQ(sim.Now(), SimTime::FromMicros(7));
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.Schedule(SimDuration::FromMicros(i), [&] { ++count; });
  }
  sim.RunUntil(SimTime::FromMicros(5));
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.pending_events(), 5u);
  sim.RunToCompletion();
  EXPECT_EQ(count, 10);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) {
      sim.Schedule(SimDuration::FromNanos(100), chain);
    }
  };
  sim.Schedule(SimDuration::FromNanos(100), chain);
  sim.RunToCompletion();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.Now(), SimTime::FromNanos(500));
}

TEST(Simulator, StepRunsOneEvent) {
  Simulator sim;
  int count = 0;
  sim.Schedule(SimDuration::FromNanos(1), [&] { ++count; });
  sim.Schedule(SimDuration::FromNanos(2), [&] { ++count; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
  EXPECT_EQ(count, 2);
}

TEST(Simulator, ZeroDelayRunsAfterCurrentEvent) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(SimDuration::FromNanos(10), [&] {
    order.push_back(1);
    sim.Schedule(SimDuration(), [&] { order.push_back(2); });
  });
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// A key from DrawSeq has passed once an event scheduled under it would have
// run: before the running event's key, before the key of the event Step
// ran, and at or before RunUntil's deadline if drawn before it returned.
TEST(Simulator, KeyPassedComparesWithTheRunningEventsKey) {
  Simulator sim;
  const SimTime t = SimTime::FromNanos(5);
  const uint64_t before = sim.DrawSeq();
  bool ran = false;
  sim.ScheduleAt(t, [&] {
    EXPECT_TRUE(sim.KeyPassed(t, before));
    EXPECT_FALSE(sim.KeyPassed(t, sim.DrawSeq()));
    EXPECT_TRUE(sim.KeyPassed(t - SimDuration::FromNanos(1), sim.DrawSeq()));
    ran = true;
  });
  const uint64_t after = sim.DrawSeq();
  sim.ScheduleAt(t, [] {});
  EXPECT_FALSE(sim.KeyPassed(SimTime(), before));

  ASSERT_TRUE(sim.Step());  // the first event at t only
  EXPECT_TRUE(ran);
  EXPECT_TRUE(sim.KeyPassed(t, before));
  EXPECT_FALSE(sim.KeyPassed(t, after));

  const uint64_t last = sim.DrawSeq();  // after every event at t
  sim.RunUntil(t);
  EXPECT_TRUE(sim.KeyPassed(t, after));
  EXPECT_TRUE(sim.KeyPassed(t, last));
  EXPECT_FALSE(sim.KeyPassed(t, sim.DrawSeq()));
  EXPECT_FALSE(sim.KeyPassed(t + SimDuration::FromNanos(1), 0));
}

TEST(SimulatorDeathTest, SchedulingIntoThePastAborts) {
  Simulator sim;
  sim.Schedule(SimDuration::FromMicros(5), [] {});
  sim.RunToCompletion();
  EXPECT_DEATH(sim.ScheduleAt(SimTime::FromMicros(1), [] {}), "past");
}

}  // namespace
}  // namespace tcplat
