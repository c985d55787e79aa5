// Deterministic loss/recovery scenarios.
//
// The paper eliminates the TCP checksum on the strength of a clean local
// link (§4.2.1); this engine opens the complementary question — what does
// the recovery machinery cost when the link is *not* clean? A scenario
// builds a testbed, attaches seeded ImpairmentPolicy instances to every
// link, runs the echo workload, and reports goodput, retransmission
// activity, and RTT inflation. Scenarios are pure functions of their config,
// so grids of them run on the parallel executor with byte-identical output.

#ifndef SRC_FAULT_SCENARIO_H_
#define SRC_FAULT_SCENARIO_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/rpc_benchmark.h"
#include "src/core/testbed.h"
#include "src/fault/impairment.h"

namespace tcplat {

// Owns one seeded ImpairmentPolicy per link of a testbed and wires them in:
//  * ATM      — one policy per fiber direction;
//  * Ethernet — one for the shared bus.
// Per-direction seeds are derived from config.seed so the directions see
// independent schedules. Must outlive the testbed's traffic.
class TestbedImpairment {
 public:
  TestbedImpairment(Testbed& testbed, const ImpairmentConfig& config);
  TestbedImpairment(const TestbedImpairment&) = delete;
  TestbedImpairment& operator=(const TestbedImpairment&) = delete;
  ~TestbedImpairment();

  struct Link {
    std::string name;  // "c2s" | "s2c" | "bus"
    std::unique_ptr<ImpairmentPolicy> policy;
  };
  const std::vector<Link>& links() const { return links_; }
  ImpairmentPolicy* link(std::string_view name);

  // Registers each policy with `tracer` as participant "link:<name>".
  void AttachTracer(Tracer* tracer);

  // Sum over every link; delivered + dropped == offered holds per link and
  // therefore for the total.
  ImpairmentStats TotalStats() const;

 private:
  Testbed* testbed_;
  std::vector<Link> links_;
};

struct LossScenarioConfig {
  NetworkKind network = NetworkKind::kAtm;
  ImpairmentConfig impairment;  // applied per link, seeds derived per direction
  ChecksumMode checksum = ChecksumMode::kStandard;
  size_t size = 1024;  // echo payload bytes per direction per round trip
  int iterations = 100;
  int warmup = 8;
  uint64_t seed = 1;
  // Capture trace CSV + metrics JSON into the result (the determinism
  // tests compare these byte-for-byte).
  bool capture_observability = false;
};

struct LossScenarioResult {
  bool completed = false;  // every iteration echoed; connection survived
  RpcResult rpc;
  ImpairmentStats link;          // summed across all links
  uint64_t retransmits = 0;      // client + server
  uint64_t rexmt_timeouts = 0;   // client + server
  double goodput_mbps = 0;       // app payload bits echoed / measured time
  double mean_rtt_us = 0;
  double p99_rtt_us = 0;
  std::string trace_csv;     // only with capture_observability
  std::string metrics_json;  // only with capture_observability
};

LossScenarioResult RunLossScenario(const LossScenarioConfig& config);

// One stable report row: integers and fixed-decimal fields only, so output
// is byte-identical across runs and thread counts. `baseline_rtt_us` is the
// clean-link mean RTT for the same size (pass 0 to suppress the inflation
// column).
std::string LossScenarioRow(const LossScenarioConfig& config, const LossScenarioResult& result,
                            double baseline_rtt_us);

}  // namespace tcplat

#endif  // SRC_FAULT_SCENARIO_H_
