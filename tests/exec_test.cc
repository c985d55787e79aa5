// Tests for the parallel experiment executor: submission-order merging,
// byte-identical determinism vs the serial path, crash isolation, and
// TCPLAT_JOBS handling.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/paper_data.h"
#include "src/core/rpc_benchmark.h"
#include "src/core/table.h"
#include "src/core/testbed.h"
#include "src/exec/executor.h"

namespace tcplat {
namespace {

TEST(Executor, ResultsComeBackInSubmissionOrder) {
  Executor ex(4);
  std::vector<std::function<int()>> thunks;
  for (int i = 0; i < 64; ++i) {
    // Uneven work so completion order scrambles under real parallelism.
    thunks.emplace_back([i] {
      volatile int sink = 0;
      for (int k = 0; k < (64 - i) * 1000; ++k) {
        sink = sink + k;
      }
      return i;
    });
  }
  const auto outcomes = ex.Run<int>(thunks);
  ASSERT_EQ(outcomes.size(), 64u);
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(outcomes[i].ok());
    EXPECT_EQ(*outcomes[i].value, i);
  }
}

TEST(Executor, ReusableAcrossBatches) {
  Executor ex(2);
  for (int round = 0; round < 10; ++round) {
    std::vector<std::function<int()>> thunks;
    for (int i = 0; i < 8; ++i) {
      thunks.emplace_back([i, round] { return i * round; });
    }
    const auto outcomes = ex.Run<int>(thunks);
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(outcomes[i].ok());
      EXPECT_EQ(*outcomes[i].value, i * round);
    }
  }
}

TEST(Executor, CrashIsolationOneFailingConfigDoesNotPoisonSiblings) {
  Executor ex(4);
  std::atomic<int> completed{0};
  std::vector<std::function<int()>> thunks;
  for (int i = 0; i < 16; ++i) {
    thunks.emplace_back([i, &completed]() -> int {
      if (i == 5) {
        throw std::runtime_error("config 5 exploded");
      }
      ++completed;
      return i;
    });
  }
  const auto outcomes = ex.Run<int>(thunks);
  EXPECT_EQ(completed.load(), 15);
  for (int i = 0; i < 16; ++i) {
    if (i == 5) {
      EXPECT_FALSE(outcomes[i].ok());
      EXPECT_EQ(outcomes[i].error, "config 5 exploded");
    } else {
      ASSERT_TRUE(outcomes[i].ok()) << "sibling " << i << " was poisoned";
      EXPECT_EQ(*outcomes[i].value, i);
    }
  }
  // The executor survives a failing batch and keeps working.
  const auto again = ex.Run<int>({[]() { return 42; }});
  ASSERT_TRUE(again[0].ok());
  EXPECT_EQ(*again[0].value, 42);
}

TEST(Executor, EmptyBatchReturnsImmediately) {
  Executor ex(2);
  EXPECT_TRUE(ex.Run<int>({}).empty());
}

TEST(Executor, DefaultJobsRespectsEnvOverride) {
  ASSERT_EQ(setenv("TCPLAT_JOBS", "3", 1), 0);
  EXPECT_EQ(DefaultExecutorJobs(), 3u);
  ASSERT_EQ(setenv("TCPLAT_JOBS", "not-a-number", 1), 0);
  EXPECT_GE(DefaultExecutorJobs(), 1u);  // malformed value falls back
  ASSERT_EQ(setenv("TCPLAT_JOBS", "0", 1), 0);
  EXPECT_GE(DefaultExecutorJobs(), 1u);  // zero is not a pool size
  ASSERT_EQ(unsetenv("TCPLAT_JOBS"), 0);
  EXPECT_GE(DefaultExecutorJobs(), 1u);
}

// The tentpole guarantee: an experiment grid pushed through the parallel
// executor renders the exact same table, byte for byte, as the serial loop.
TEST(Executor, GridRunIsByteIdenticalToSerial) {
  const std::array<size_t, 4> sizes = {4, 200, 1400, 8000};
  const auto measure = [&](size_t i) {
    TestbedConfig cfg;
    cfg.network = (i % 2 == 0) ? NetworkKind::kAtm : NetworkKind::kEthernet;
    Testbed tb(cfg);
    RpcOptions opt;
    opt.size = sizes[i % sizes.size()];
    opt.iterations = 20;
    opt.warmup = 4;
    return RunRpcBenchmark(tb, opt);
  };
  const auto render = [&](const std::vector<RpcResult>& results) {
    TextTable t({"Config", "RTT (us)", "Iterations"});
    for (size_t i = 0; i < results.size(); ++i) {
      t.AddRow({std::to_string(i), TextTable::Us(results[i].MeanRtt().micros(), 3),
                std::to_string(results[i].iterations)});
    }
    return t.ToString() + t.ToCsv();
  };

  // Serial reference: a plain loop on this thread.
  std::vector<RpcResult> serial;
  for (size_t i = 0; i < 8; ++i) {
    serial.push_back(measure(i));
  }

  // Parallel: same grid through a 4-worker pool, twice (reproducible).
  Executor ex(4);
  std::vector<std::function<RpcResult()>> thunks;
  for (size_t i = 0; i < 8; ++i) {
    thunks.emplace_back([&, i] { return measure(i); });
  }
  for (int round = 0; round < 2; ++round) {
    const auto outcomes = ex.Run<RpcResult>(thunks);
    std::vector<RpcResult> parallel;
    for (const auto& o : outcomes) {
      ASSERT_TRUE(o.ok()) << o.error;
      parallel.push_back(*o.value);
    }
    EXPECT_EQ(render(serial), render(parallel));
    // Not just the rendering: the underlying virtual-time measurements are
    // bit-identical too.
    for (size_t i = 0; i < 8; ++i) {
      EXPECT_EQ(serial[i].MeanRtt().nanos(), parallel[i].MeanRtt().nanos());
      EXPECT_EQ(serial[i].rtt.count(), parallel[i].rtt.count());
    }
  }
}

TEST(Executor, ParallelMapPropagatesFirstError) {
  EXPECT_THROW(
      ParallelMap<int>(4,
                       [](size_t i) -> int {
                         if (i == 2) {
                           throw std::runtime_error("boom");
                         }
                         return static_cast<int>(i);
                       }),
      std::runtime_error);
  const auto ok = ParallelMap<int>(4, [](size_t i) { return static_cast<int>(i * 2); });
  EXPECT_EQ(ok, (std::vector<int>{0, 2, 4, 6}));
}

}  // namespace
}  // namespace tcplat
