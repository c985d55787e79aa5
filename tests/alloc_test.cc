// Allocation regression tests for the per-cell, per-event hot path: the
// paper's 8000-byte echo benchmark must average at most 0.1 operator new
// calls per dispatched event, on the two-host ATM testbed and on the
// switched one. A cell crosses each fiber and the switch as a 53-byte value
// inside its lane event, so neither hop allocates; event-queue entries, lane
// rings, callbacks and SAR cells allocate nothing either. What remains is
// per packet: the PDU-sized buffers of CPCS framing, segmentation and
// reassembly. A lane whose ring has grown schedules and dispatches without
// allocating.
//
// Replacing the global operator new makes this its own executable. Under
// AddressSanitizer, which supplies its own allocator, the test is skipped.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "src/core/rpc_benchmark.h"
#include "src/core/testbed.h"
#include "src/sim/simulator.h"

#if defined(__SANITIZE_ADDRESS__)
#define TCPLAT_ALLOC_TEST_ENABLED 0
#else
#define TCPLAT_ALLOC_TEST_ENABLED 1

namespace {
uint64_t g_operator_new_calls = 0;
}  // namespace

void* operator new(std::size_t bytes) {
  ++g_operator_new_calls;
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) {
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace tcplat {
namespace {

#if TCPLAT_ALLOC_TEST_ENABLED
// Runs the 8000-byte echo on `config`'s testbed and checks the operator new
// calls per dispatched event against the bound.
void ExpectAtMostATenthPerEvent(const TestbedConfig& config) {
  Testbed bed(config);
  RpcOptions options;
  options.size = 8000;
  const uint64_t events0 = bed.sim().events_dispatched();
  const uint64_t news0 = g_operator_new_calls;
  const RpcResult result = RunRpcBenchmark(bed, options);
  const uint64_t news = g_operator_new_calls - news0;
  const uint64_t events = bed.sim().events_dispatched() - events0;
  ASSERT_FALSE(result.aborted);
  ASSERT_EQ(result.data_mismatches, 0u);
  ASSERT_GT(events, 0u);
  const double per_event = static_cast<double>(news) / static_cast<double>(events);
  ::testing::Test::RecordProperty("operator_new_calls", static_cast<int>(news));
  ::testing::Test::RecordProperty("events", static_cast<int>(events));
  EXPECT_LE(per_event, 0.1) << news << " operator new calls over " << events << " events";
}
#endif

TEST(Allocations, AtMostATenthPerDispatchedEvent) {
#if !TCPLAT_ALLOC_TEST_ENABLED
  GTEST_SKIP() << "AddressSanitizer replaces operator new";
#else
  ExpectAtMostATenthPerEvent(TestbedConfig{});
#endif
}

// The same echo through the cell switch: every cell crosses two fibers and
// the switch, which together dispatch about twice the events per cell.
TEST(Allocations, AtMostATenthPerDispatchedEventThroughTheSwitch) {
#if !TCPLAT_ALLOC_TEST_ENABLED
  GTEST_SKIP() << "AddressSanitizer replaces operator new";
#else
  TestbedConfig config;
  config.switched = true;
  ExpectAtMostATenthPerEvent(config);
#endif
}

// Keeps `in_flight` entries pending in one lane: each run schedules its
// successor one cell time later, until `remaining` runs out.
struct LaneChain {
  Simulator* sim;
  LaneId lane;
  uint64_t remaining;

  void Start(int in_flight) {
    for (int i = 0; i < in_flight; ++i) {
      sim->ScheduleInLane(lane, sim->Now() + SimDuration::FromNanos(i), [this] { Step(); });
    }
  }
  void Step() {
    if (remaining > 0) {
      --remaining;
      sim->ScheduleInLane(lane, sim->Now() + SimDuration::FromNanos(3029), [this] { Step(); });
    }
  }
};

TEST(Allocations, LaneEventsAllocateNothingOnceTheRingHasGrown) {
#if !TCPLAT_ALLOC_TEST_ENABLED
  GTEST_SKIP() << "AddressSanitizer replaces operator new";
#else
  constexpr int kInFlight = 100;
  constexpr uint64_t kEvents = 100000;
  Simulator sim;
  LaneChain chain{&sim, sim.NewLane(), 1000};
  chain.Start(kInFlight);  // grows the ring to its peak
  sim.RunToCompletion();

  chain.remaining = kEvents - kInFlight;
  const uint64_t events0 = sim.events_dispatched();
  const uint64_t news0 = g_operator_new_calls;
  chain.Start(kInFlight);
  sim.RunToCompletion();
  const uint64_t news = g_operator_new_calls - news0;
  ASSERT_EQ(sim.events_dispatched() - events0, kEvents);
  EXPECT_EQ(news, 0u) << news << " operator new calls over " << kEvents << " lane events";
#endif
}

}  // namespace
}  // namespace tcplat
