// Unit tests for the discrete-event core: SimTime/SimDuration arithmetic,
// event-queue ordering and cancellation, simulator execution.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

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
    EXPECT_EQ(destroyed, 0);
    EXPECT_TRUE(q.Cancel(ids[1]));
    EXPECT_TRUE(q.Cancel(ids[2]));
    EXPECT_EQ(destroyed, 2);  // cancelled: released at once
    q.PopNext().fn();         // t=1
    q.PopNext().fn();         // t=4
    EXPECT_EQ(ran, 2);
    EXPECT_EQ(destroyed, 4);  // run: released after the call
    EXPECT_EQ(q.size(), 2u);
  }
  EXPECT_EQ(destroyed, 6);  // still pending: released with the queue
  EXPECT_EQ(ran, 2);
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

TEST(SimulatorDeathTest, SchedulingIntoThePastAborts) {
  Simulator sim;
  sim.Schedule(SimDuration::FromMicros(5), [] {});
  sim.RunToCompletion();
  EXPECT_DEATH(sim.ScheduleAt(SimTime::FromMicros(1), [] {}), "past");
}

}  // namespace
}  // namespace tcplat
