// Ablation A7: the paper's processes "ran on otherwise idle machines" —
// this ablation un-idles them. A background bulk transfer shares the same
// hosts and fiber with the RPC workload; run-to-completion CPUs and the
// shared link turn the quiet-testbed numbers into loaded-system numbers,
// showing how much of the paper's latency story depends on idleness.

#include <cstdio>
#include <vector>

#include <array>

#include "bench/bench_flags.h"
#include "src/core/rpc_benchmark.h"
#include "src/core/table.h"
#include "src/core/testbed.h"
#include "src/exec/executor.h"
#include "src/os/task.h"

namespace tcplat {
namespace {

constexpr uint16_t kBulkPort = 7000;

// Long (but bounded — the simulator runs the event queue dry) bulk
// sender/sink between the same two hosts, sharing everything.
SimTask BulkSink(Testbed* tb) {
  Socket* listener = tb->server_tcp().Listen(kBulkPort);
  Socket* s = nullptr;
  while (s == nullptr) {
    s = listener->Accept();
    if (s == nullptr) {
      co_await listener->WaitAcceptable();
    }
  }
  std::vector<uint8_t> buf(16384);
  while (!s->eof() && !s->has_error()) {
    if (s->Read(buf) == 0) {
      co_await s->WaitReadable();
    }
  }
}

SimTask BulkSender(Testbed* tb, size_t total_bytes) {
  Socket* s = tb->client_tcp().Connect(SockAddr{kServerAddr, kBulkPort});
  while (!s->connected() && !s->has_error()) {
    co_await s->WaitConnected();
  }
  std::vector<uint8_t> block(8192, 0xB5);
  size_t sent = 0;
  while (sent < total_bytes && !s->has_error()) {
    const size_t n = s->Write(block);
    sent += n;
    if (n == 0) {
      co_await s->WaitWritable();
    }
  }
  s->Close();
}

double MeasureRtt(size_t size, bool with_cross_traffic) {
  TestbedConfig cfg;
  Testbed tb(cfg);
  if (with_cross_traffic) {
    // ~10 s of 2 MB/s bulk: comfortably outlasts the measured region.
    tb.server_host().Spawn("bulk-sink", BulkSink(&tb));
    tb.client_host().Spawn("bulk-sender", BulkSender(&tb, 20u << 20));
  }
  RpcOptions opt;
  opt.size = size;
  const RpcResult r = RunRpcBenchmark(tb, opt);
  return r.MeanRtt().micros();
}

void Run() {
  std::printf("Ablation A7: RPC latency with a competing bulk transfer on the same\n"
              "hosts and fiber (the paper measured idle machines)\n\n");
  TextTable t({"Size", "Idle testbed (us)", "With cross-traffic (us)", "Inflation"});
  const std::array<size_t, 4> sizes = {4u, 200u, 1400u, 4000u};
  struct Pair {
    double idle;
    double loaded;
  };
  const std::vector<Pair> rows = ParallelMap<Pair>(sizes.size(), [&sizes](size_t i) {
    return Pair{MeasureRtt(sizes[i], false), MeasureRtt(sizes[i], true)};
  });
  for (size_t i = 0; i < sizes.size(); ++i) {
    const auto& [idle, loaded] = rows[i];
    t.AddRow({std::to_string(sizes[i]), TextTable::Us(idle), TextTable::Us(loaded),
              TextTable::Pct(100.0 * (loaded - idle) / idle)});
  }
  t.Print();
  std::printf(
      "\nReadings: the bulk stream's per-cell driver work and checksum passes\n"
      "occupy the same CPUs the RPC needs, and its 4 KB segments occupy the\n"
      "fiber — small-RPC latency inflates far more than proportionally. The\n"
      "paper's clean per-layer accounting (Tables 2/3) is an idle-system\n"
      "property; production latency budgets must add contention.\n");
}

}  // namespace
}  // namespace tcplat

int main(int argc, char** argv) {
  tcplat::BenchFlags flags;
  if (!tcplat::ParseBenchFlags(argc, argv, &flags, "")) return 2;
  tcplat::Run();
  return 0;
}
