// Allocation regression test for the per-cell, per-event hot path: the
// two-host ATM testbed running the paper's 8000-byte echo benchmark must
// average at most 1.5 operator new calls per dispatched event. Event-queue
// entries, callbacks and SAR cells allocate nothing; what remains is about
// one 53-byte wire image per cell plus per-PDU buffers.
//
// Replacing the global operator new makes this its own executable. Under
// AddressSanitizer, which supplies its own allocator, the test is skipped.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "src/core/rpc_benchmark.h"
#include "src/core/testbed.h"

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

TEST(Allocations, AtMostOneAndAHalfPerDispatchedEvent) {
#if !TCPLAT_ALLOC_TEST_ENABLED
  GTEST_SKIP() << "AddressSanitizer replaces operator new";
#else
  Testbed bed(TestbedConfig{});
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
  RecordProperty("operator_new_calls", static_cast<int>(news));
  RecordProperty("events", static_cast<int>(events));
  EXPECT_LE(per_event, 1.5) << news << " operator new calls over " << events << " events";
#endif
}

}  // namespace
}  // namespace tcplat
