// The paper's measurement workload (§1.2): two user-level processes in a
// client/server arrangement. The client connects with TCP, then repeatedly
// sends `size` bytes and waits to receive `size` bytes back, timing each
// round trip with the mapped real-time clock.
//
// RunWorkload runs F such flows at once over any WorkloadHosts: the
// two-host Testbed, or the K x M StarTestbed of src/workload/. Flows take
// optional start offsets (open-loop arrivals), think times (closed-loop
// load) and request/response shapes, and the driver also carries the
// one-way bulk push. RunRpcBenchmark is its one-flow run on the Testbed.
//
// Every flow gets a dedicated server port (kEchoPort + flow index), so a
// listener always knows its flow's message sizes — the protocol is
// read-exactly-then-write, as in the original benchmark.

#ifndef SRC_CORE_RPC_BENCHMARK_H_
#define SRC_CORE_RPC_BENCHMARK_H_

#include <array>
#include <cstdint>
#include <numeric>
#include <optional>
#include <vector>

#include "src/core/testbed.h"
#include "src/tcp/congestion.h"
#include "src/trace/latency_stats.h"
#include "src/trace/span.h"

namespace tcplat {

struct FlowSpec {
  int client = 0;  // client host index in [0, K)
  int server = 0;  // server host index in [0, M)
  size_t size = 4;
  int iterations = 200;  // measured round trips
  int warmup = 32;       // untimed round trips first
  SimDuration start_delay;  // open-loop arrival offset before connecting
  SimDuration think_time;   // closed-loop pause after each round trip
  // A connection error normally aborts the run (CHECK failure). With this
  // set the flow instead ends `aborted` with whatever RTTs completed.
  bool tolerate_errors = false;

  // --- request/response shape ---
  // Request written as these chunks, each a separate write syscall — the
  // small-write shape that arms the Nagle × delayed-ACK pathology. Empty =
  // one `size`-byte write.
  std::vector<size_t> request_chunks;
  // Server reply per request; 0 = echo the request back, and count the
  // measured round trips whose echo differs from the request (the
  // application-level check of §4.2.1).
  size_t response_size = 0;
  // Per-flow socket options: TCP_NODELAY on the client socket, delayed ACKs
  // on or off on the server's accepted connection. Unset = stack config.
  std::optional<bool> client_nodelay;
  std::optional<bool> server_delack;

  // --- congestion-era extensions (all default-off) ---
  // Congestion-control variant for this flow's connection: set on the client
  // socket before the active open and on the server's listener (accepted
  // connections inherit it). Unset = the stack config's variant.
  std::optional<CongestionVariant> congestion;
  // Bulk-transfer mode: the client pushes `bulk_bytes` one way as fast as
  // the windows allow; the server sinks them and answers with a 1-byte
  // completion token. Goodput is bulk_bytes over first-write to token
  // arrival. `size`/`iterations`/`warmup` are ignored.
  uint64_t bulk_bytes = 0;

  size_t request_bytes() const {
    return request_chunks.empty()
               ? size
               : std::accumulate(request_chunks.begin(), request_chunks.end(), size_t{0});
  }
  size_t response_bytes() const { return response_size != 0 ? response_size : request_bytes(); }
};

struct BulkStats {
  uint64_t bytes = 0;        // payload delivered (the spec's bulk_bytes)
  int64_t start_ns = -1;     // client's first write entry
  int64_t done_ns = -1;      // completion token arrival at the client
  double goodput_bps() const {
    return done_ns > start_ns ? static_cast<double>(bytes) * 8e9 /
                                    static_cast<double>(done_ns - start_ns)
                              : 0.0;
  }
};

struct FlowResult {
  LatencyStats rtt;
  uint64_t iterations = 0;
  bool completed = false;  // every iteration finished and the flow closed
  bool aborted = false;    // connection died first (tolerate_errors runs)
  uint64_t data_mismatches = 0;
  BulkStats bulk;  // populated only in bulk-transfer mode
};

struct WorkloadOptions {
  // Flow 0 clears the span trackers when it crosses its warmup boundary
  // (the single-flow measured-region convention). Disable for mixes where
  // no single flow owns the measured region.
  bool reset_trackers_at_warmup = true;
};

struct WorkloadResult {
  std::vector<FlowResult> flows;
  LatencyStats rtt;  // all flows' measured round trips merged
  uint64_t completed = 0;
  uint64_t aborted = 0;
  uint64_t data_mismatches = 0;
  // Peak number of flows simultaneously inside an echo round trip; a
  // closed-loop run can never exceed its flow count (concurrency invariant).
  size_t max_concurrent = 0;
};

// Runs every flow to completion on the hosts' simulator, after zeroing
// every stack's TcpStats and span trackers. The hosts can be reused for
// further runs.
WorkloadResult RunWorkload(WorkloadHosts& hosts, const std::vector<FlowSpec>& specs,
                           const WorkloadOptions& options = {});

struct RpcOptions {
  size_t size = 4;
  int iterations = 200;  // measured round trips (paper: 40000; the simulator
                         // is deterministic, so a few hundred converge)
  int warmup = 32;       // untimed round trips first (opens cwnd, warms PCBs)
  // As FlowSpec::tolerate_errors: impairment sweeps can push TCP past
  // max_rexmt, and the run then returns with `aborted` raised.
  bool tolerate_errors = false;
};

struct RpcResult {
  LatencyStats rtt;
  uint64_t iterations = 0;
  bool aborted = false;          // connection died before all iterations finished
  uint64_t data_mismatches = 0;  // end-to-end application check failures
  // Total span time accumulated across both hosts during the measured
  // region. Each iteration contains two transfers (request + reply), so the
  // per-transfer mean of a row is spans[id] / (2 * iterations).
  std::array<SimDuration, static_cast<size_t>(SpanId::kCount)> spans{};
  TcpStats client_tcp;
  TcpStats server_tcp;

  SimDuration MeanRtt() const { return rtt.Mean(); }
  // Per-transfer mean for one span row (the paper's Tables 2/3 cells).
  SimDuration SpanMean(SpanId id) const {
    const int64_t n = static_cast<int64_t>(2 * iterations);
    return n == 0 ? SimDuration()
                  : SimDuration::FromNanos(spans[static_cast<size_t>(id)].nanos() / n);
  }
};

// Runs the echo benchmark on an existing testbed: one RunWorkload flow,
// plus the span totals and both stacks' TCP statistics. The testbed can be
// reused for further runs.
RpcResult RunRpcBenchmark(Testbed& testbed, const RpcOptions& options);

}  // namespace tcplat

#endif  // SRC_CORE_RPC_BENCHMARK_H_
