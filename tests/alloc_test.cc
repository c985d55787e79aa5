// Allocation regression tests, for the per-cell, per-event hot path and for
// the workload driver's memory. On the hot path, the paper's 8000-byte echo
// benchmark must average at most 0.1 operator new calls per dispatched
// event, on the two-host ATM testbed and on the 1 x 1 star. A cell crosses
// each fiber and the switch as a 53-byte value inside its lane event, so
// neither hop allocates; event-queue entries, lane rings, callbacks and SAR
// cells allocate nothing either. What remains is per packet: the PDU-sized
// buffers of CPCS framing, segmentation and reassembly. A lane whose ring
// has grown schedules and dispatches without allocating. A closed-loop
// run's peak live heap grows only by the round-trip samples it returns.
//
// Replacing the global operator new makes this its own executable. Under
// AddressSanitizer, which supplies its own allocator, the test is skipped.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "src/core/rpc_benchmark.h"
#include "src/core/testbed.h"
#include "src/sim/simulator.h"
#include "src/workload/generator.h"
#include "src/workload/star_testbed.h"

#if defined(__SANITIZE_ADDRESS__)
#define TCPLAT_ALLOC_TEST_ENABLED 0
#else
#define TCPLAT_ALLOC_TEST_ENABLED 1

namespace {
uint64_t g_operator_new_calls = 0;
// Bytes live from operator new, and their high-water mark. Each block
// carries its size in a header, so an unsized delete can subtract it.
size_t g_live_bytes = 0;
size_t g_peak_live_bytes = 0;
constexpr size_t kSizeHeader = alignof(std::max_align_t);
}  // namespace

void* operator new(std::size_t bytes) {
  ++g_operator_new_calls;
  if (void* p = std::malloc(kSizeHeader + bytes)) {
    *static_cast<std::size_t*>(p) = bytes;
    g_live_bytes += bytes;
    g_peak_live_bytes = std::max(g_peak_live_bytes, g_live_bytes);
    return static_cast<char*>(p) + kSizeHeader;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept {
  if (p != nullptr) {
    void* block = static_cast<char*>(p) - kSizeHeader;
    g_live_bytes -= *static_cast<std::size_t*>(block);
    std::free(block);
  }
}
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
#endif

namespace tcplat {
namespace {

#if TCPLAT_ALLOC_TEST_ENABLED
// Runs the 8000-byte echo on `bed` and checks the operator new calls per
// dispatched event against the bound.
void ExpectAtMostATenthPerEvent(WorkloadHosts& bed) {
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
  Testbed bed(TestbedConfig{});
  ExpectAtMostATenthPerEvent(bed);
#endif
}

// The same echo through the cell switch: every cell crosses two fibers and
// the switch, which together dispatch about twice the events per cell.
TEST(Allocations, AtMostATenthPerDispatchedEventThroughTheSwitch) {
#if !TCPLAT_ALLOC_TEST_ENABLED
  GTEST_SKIP() << "AddressSanitizer replaces operator new";
#else
  StarTestbed star(StarTestbedConfig{});
  ExpectAtMostATenthPerEvent(star);
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

#if TCPLAT_ALLOC_TEST_ENABLED
// Peak live heap, above what was live before, of building a 4 x 2 star and
// running 16 closed-loop 200-byte echo flows of `iterations` measured round
// trips each on it.
size_t PeakLiveHeapOf16Flows(int iterations) {
  const size_t live0 = g_live_bytes;
  g_peak_live_bytes = live0;
  {
    StarTestbedConfig star_cfg;
    star_cfg.clients = 4;
    star_cfg.servers = 2;
    StarTestbed star(star_cfg);
    ClosedLoopConfig cfg;
    cfg.flows = 16;
    cfg.clients = 4;
    cfg.servers = 2;
    cfg.size = 200;
    cfg.iterations = iterations;
    cfg.warmup = 8;
    const WorkloadResult result = RunWorkload(star, BuildClosedLoop(cfg));
    EXPECT_EQ(result.completed, 16u);
  }
  return g_peak_live_bytes - live0;
}
#endif

// Doubling the round trips may grow the peak live heap only by what the run
// returns: 8 bytes per sample in each flow's LatencyStats and 8 more in the
// merged WorkloadResult::rtt, with vector slack on both. Driver state that
// grows per round trip (a log of every round trip's interval, say) fails it.
TEST(Allocations, PeakLiveHeapGrowsAtMost48BytesPerRoundTrip) {
#if !TCPLAT_ALLOC_TEST_ENABLED
  GTEST_SKIP() << "AddressSanitizer replaces operator new";
#else
  constexpr int kIterations = 256;
  const size_t peak_n = PeakLiveHeapOf16Flows(kIterations);
  const size_t peak_2n = PeakLiveHeapOf16Flows(2 * kIterations);
  ASSERT_GE(peak_2n, peak_n);
  const double per_round_trip =
      static_cast<double>(peak_2n - peak_n) / static_cast<double>(16 * kIterations);
  ::testing::Test::RecordProperty("peak_live_bytes_n", static_cast<int>(peak_n));
  ::testing::Test::RecordProperty("peak_live_bytes_2n", static_cast<int>(peak_2n));
  EXPECT_LE(per_round_trip, 48.0) << "peak live heap " << peak_n << " B at " << kIterations
                                  << " round trips per flow, " << peak_2n << " B at "
                                  << 2 * kIterations;
#endif
}

}  // namespace
}  // namespace tcplat
