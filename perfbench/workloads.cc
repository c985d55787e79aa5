#include "workloads.h"

#include <cstdio>
#include <map>
#include <string_view>
#include <utility>

#include "spans.h"
#include "src/base/random.h"
#include "src/core/paper_data.h"
#include "src/core/rpc_benchmark.h"
#include "src/core/testbed.h"
#include "src/link/link_profile.h"
#include "src/link/wire.h"
#include "src/tcp/congestion.h"
#include "src/workload/flow_driver.h"
#include "src/workload/generator.h"
#include "src/workload/star_testbed.h"

namespace perfbench {
namespace {

using tcplat::AtmNetIf;
using tcplat::Host;
using tcplat::LatencyStats;
using tcplat::MetricsRegistry;
using tcplat::NetworkKind;
using tcplat::SimDuration;
using tcplat::Simulator;
using tcplat::TcpStack;

// --- workload parameters (changing any of them redefines the benchmark) ---

// paper_sweep: Table 1 exactly as bench/table1_atm_vs_ethernet runs it.
constexpr int kPaperIterations = 200;
constexpr int kPaperWarmup = 32;

// star64: bench/capacity's 64-flow closed-loop cell on the serial engine.
constexpr int kStarClients = 4;
constexpr int kStarServers = 2;
constexpr int kStarFlows = 64;
constexpr size_t kStarSize = 200;
constexpr int kStarIterations = 300;
constexpr int kStarWarmup = 8;
constexpr int64_t kStarStartSpreadUs = 200;  // seeded per-flow start offset

// bulk16_loss: bench/congestion's cell shape with SACK and tail drop.
constexpr int kBulkFlows = 16;
constexpr uint64_t kBulkBytes = 384 * 1024;
constexpr size_t kBulkBufferCells = 128;
constexpr double kBulkTrunkBps = 6e6;
constexpr int64_t kBulkStaggerUs = 200;
constexpr int64_t kBulkJitterUs = 100;  // seeded, on top of the stagger

// FNV-1a, 64-bit.
class Digest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void Add(int64_t v) { Add(static_cast<uint64_t>(v)); }
  void Add(std::string_view s) {
    for (unsigned char c : s) {
      hash_ ^= c;
      hash_ *= 0x100000001b3ULL;
    }
    Add(static_cast<uint64_t>(s.size()));
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void AddRtt(const LatencyStats& rtt, Digest* d) {
  d->Add(rtt.count());
  d->Add(rtt.sum().nanos());
  d->Add(rtt.Min().nanos());
  d->Add(rtt.Max().nanos());
  d->Add(rtt.Stddev().nanos());
  const LatencyStats::Summary p = rtt.Percentiles();
  d->Add(p.p50.nanos());
  d->Add(p.p90.nanos());
  d->Add(p.p99.nanos());
  d->Add(p.p999.nanos());
}

// Folds a whole registry (every counter, gauge and histogram, name-sorted)
// into the digest and returns the values by name for the counts below.
std::map<std::string, int64_t, std::less<>> AddRegistry(const MetricsRegistry& m, Digest* d) {
  std::map<std::string, int64_t, std::less<>> values;
  for (const MetricsRegistry::Sample& s : m.Snapshot()) {
    d->Add(s.name);
    d->Add(s.value);
    if (s.hist != nullptr) {
      d->Add(s.hist->sum());
      d->Add(s.hist->min());
      d->Add(s.hist->max());
    }
    values.emplace(std::string(s.name), s.value);
  }
  return values;
}

uint64_t Get(const std::map<std::string, int64_t, std::less<>>& v, std::string_view name) {
  auto it = v.find(name);
  return it == v.end() ? 0 : static_cast<uint64_t>(it->second);
}

void AddHost(Host& host, TcpStack& tcp, AtmNetIf* atm, LayerCounts* c, Digest* d) {
  const auto v = AddRegistry(host.metrics(), d);
  c->cells_sent += Get(v, "atm.cells_sent");
  c->cells_parsed += Get(v, "atm.cells_received") - Get(v, "atm.rx_fifo_drops");
  c->rx_fifo_drops += Get(v, "atm.rx_fifo_drops");
  c->frames_sent += Get(v, "ether.frames_sent");
  c->frames_checked += Get(v, "ether.frames_received") + Get(v, "ether.crc_errors");
  c->mbuf_small_allocs += Get(v, "mbuf.small_allocs");
  c->mbuf_cluster_allocs += Get(v, "mbuf.cluster_allocs");
  c->mbuf_cluster_refs += Get(v, "mbuf.cluster_refs");
  c->mbuf_freelist_hits += Get(v, "mbuf.freelist_hits");
  c->mbuf_bytes_copied += Get(v, "mbuf.bytes_copied");
  c->tcp_segs_sent += Get(v, "tcp.segs_sent");
  c->tcp_segs_received += Get(v, "tcp.segs_received");
  c->tcp_fastpath_hits += Get(v, "tcp.predict_ack_hits") + Get(v, "tcp.predict_data_hits");
  c->tcp_bytes_sent += Get(v, "tcp.bytes_sent");
  c->tcp_retransmits += Get(v, "tcp.retransmits");
  c->ip_packets_sent += Get(v, "ip.packets_sent");

  const tcplat::PcbStats& pcb = tcp.pcbs().stats();
  c->pcb_lookups += pcb.lookups;
  c->pcb_examined += pcb.entries_examined;
  d->Add(pcb.lookups);
  d->Add(pcb.cache_hits);
  d->Add(pcb.entries_examined);
  d->Add(pcb.not_found);

  if (atm != nullptr) {
    const tcplat::SarReassemblerStats& sar = atm->sar_stats();
    c->sar_frames_ok += sar.pdus_ok;
    c->sar_frames_dropped += sar.pdus_dropped;
    for (uint64_t x : {sar.cells, sar.crc_errors, sar.sequence_errors, sar.protocol_errors,
                       sar.cpcs_errors, sar.pdus_ok, sar.pdus_dropped}) {
      d->Add(x);
    }
  }
}

void AddSwitch(tcplat::AtmSwitch* sw, LayerCounts* c, Digest* d) {
  if (sw == nullptr) return;
  AddRegistry(sw->metrics(), d);
  const tcplat::AtmSwitchStats& s = sw->stats();
  c->switch_cells += s.cells_switched;
  c->switch_drops += s.cells_dropped_tail + s.cells_dropped_epd + s.cells_dropped_ppd;
  for (uint64_t x : {s.cells_switched, s.no_route, s.cells_dropped_tail, s.cells_dropped_epd,
                     s.cells_dropped_ppd, s.frames_discarded}) {
    d->Add(x);
  }
}

// Observe-only hooks: the drop hook always keeps the unit, the impairment
// always returns the default (no-op) verdict, so the simulation is unchanged.
tcplat::DropFn ObserveHook(UnitObserver observer, Simulator* sim) {
  return [observer = std::move(observer), sim](const std::vector<uint8_t>& unit) {
    observer(sim, unit);
    return false;
  };
}

class ObserveImpairment : public tcplat::LinkImpairment {
 public:
  ObserveImpairment(UnitObserver observer, Simulator* sim)
      : observer_(std::move(observer)), sim_(sim) {}
  Verdict OnTransmit(tcplat::SimTime, const std::vector<uint8_t>& data) override {
    observer_(sim_, data);
    return Verdict{};
  }

 private:
  UnitObserver observer_;
  Simulator* sim_;
};

// Round trips of a closed-loop client that did not complete correctly: all
// of them if the connection died or the flow never finished.
uint64_t FailedRtts(uint64_t want, const LatencyStats& rtt, uint64_t mismatches,
                    bool finished) {
  if (!finished) return want;
  const uint64_t failed = (rtt.count() < want ? want - rtt.count() : 0) + mismatches;
  return failed < want ? failed : want;
}

std::string CellName(size_t idx) {
  const size_t n = tcplat::paper::kSizes.size();
  return std::string(idx < n ? "ether" : "atm") + "/" +
         std::to_string(tcplat::paper::kSizes[idx % n]);
}

// ---------------------------------------------------------------------------
// paper_sweep: the 16 Table 1 cells, each a fresh two-host switchless
// testbed with one closed-loop echo client, run back to back. The seed only
// shuffles the order the cells run in; each cell's result is seed-free.
class PaperSweepRun : public WorkloadRun {
 public:
  explicit PaperSweepRun(uint64_t seed) {
    const size_t n = 2 * tcplat::paper::kSizes.size();
    for (size_t i = 0; i < n; ++i) order_.push_back(i);
    tcplat::Rng rng(seed);
    for (size_t i = n - 1; i > 0; --i) {
      std::swap(order_[i], order_[rng.NextBelow(i + 1)]);
    }
  }

  void Setup() override {
    beds_.resize(order_.size());
    results_.resize(order_.size());
    for (size_t idx : order_) {
      tcplat::TestbedConfig config;
      config.network =
          idx < tcplat::paper::kSizes.size() ? NetworkKind::kEthernet : NetworkKind::kAtm;
      beds_[idx] = std::make_unique<tcplat::Testbed>(config);
    }
  }

  void Execute(SpanLog* spans) override {
    for (size_t idx : order_) {
      ScopedSpan span(spans, "cell " + CellName(idx));
      tcplat::RpcOptions options;
      options.size = tcplat::paper::kSizes[idx % tcplat::paper::kSizes.size()];
      options.iterations = kPaperIterations;
      options.warmup = kPaperWarmup;
      results_[idx] = tcplat::RunRpcBenchmark(*beds_[idx], options);
    }
  }

  Outcome Finish() override {
    Outcome out;
    Digest d;
    for (size_t idx = 0; idx < beds_.size(); ++idx) {
      const tcplat::RpcResult& r = results_[idx];
      const size_t size = tcplat::paper::kSizes[idx % tcplat::paper::kSizes.size()];
      out.ops_attempted += kPaperIterations;
      const uint64_t failed = FailedRtts(kPaperIterations, r.rtt, r.data_mismatches, !r.aborted);
      out.ops_failed += failed;
      if (failed != 0) {
        out.problems.push_back(CellName(idx) + ": " + std::to_string(failed) + " failed RTTs");
      }
      if (r.rtt.count() > 0 && r.MeanRtt().nanos() <= 0) {
        out.problems.push_back(CellName(idx) + ": non-positive mean RTT");
      }
      out.table1_rtt_us.push_back(r.MeanRtt().micros());
      d.Add(static_cast<uint64_t>(idx));
      AddRtt(r.rtt, &d);
      d.Add(r.iterations);
      d.Add(r.data_mismatches);
      for (SimDuration span : r.spans) d.Add(span.nanos());

      tcplat::Testbed& bed = *beds_[idx];
      out.counts.sim_events += bed.sim().events_dispatched();
      d.Add(bed.sim().events_dispatched());
      d.Add(bed.sim().Now().nanos());
      AddHost(bed.client_host(), bed.client_tcp(), bed.client_atm(), &out.counts, &d);
      AddHost(bed.server_host(), bed.server_tcp(), bed.server_atm(), &out.counts, &d);
      out.counts.app_payload_bytes +=
          2 * static_cast<uint64_t>(kPaperIterations + kPaperWarmup) * size;
    }
    out.digest = d.value();
    return out;
  }

  void AttachTracer(tcplat::Tracer* tracer) override {
    for (auto& bed : beds_) bed->AttachTracer(tracer);
  }

  void AttachObserver(UnitObserver observer) override {
    for (auto& bed : beds_) {
      Simulator* sim = &bed->sim();
      if (bed->atm_link() != nullptr) {
        bed->atm_link()->dir(0).set_drop_hook(ObserveHook(observer, sim));
        bed->atm_link()->dir(1).set_drop_hook(ObserveHook(observer, sim));
      } else {
        bed->ether_segment()->set_drop_hook(ObserveHook(observer, sim));
      }
    }
  }

 private:
  std::vector<size_t> order_;
  std::vector<std::unique_ptr<tcplat::Testbed>> beds_;
  std::vector<tcplat::RpcResult> results_;
};

// ---------------------------------------------------------------------------
// star64 and bulk16_loss: one StarTestbed driven by RunWorkload.
class StarRun : public WorkloadRun {
 public:
  StarRun(tcplat::StarTestbedConfig config, std::vector<tcplat::FlowSpec> specs,
          tcplat::WorkloadOptions options)
      : config_(std::move(config)), specs_(std::move(specs)), options_(options) {}

  void Setup() override { bed_ = std::make_unique<tcplat::StarTestbed>(config_); }

  void Execute(SpanLog* spans) override {
    ScopedSpan span(spans, "cell flows");
    result_ = tcplat::RunWorkload(*bed_, specs_, options_);
  }

  Outcome Finish() override {
    Outcome out;
    Digest d;
    for (size_t f = 0; f < specs_.size(); ++f) {
      const tcplat::FlowSpec& spec = specs_[f];
      const tcplat::FlowResult& flow = result_.flows[f];
      const std::string name = "flow " + std::to_string(f);
      if (spec.bulk_bytes > 0) {
        ++out.ops_attempted;
        const bool ok = flow.completed && !flow.aborted && flow.data_mismatches == 0 &&
                        flow.bulk.bytes == spec.bulk_bytes &&
                        flow.bulk.done_ns > flow.bulk.start_ns && flow.bulk.start_ns >= 0;
        if (!ok) {
          ++out.ops_failed;
          out.problems.push_back(name + ": bulk transfer did not complete");
        } else if (flow.bulk.goodput_bps() > config_.server_trunk_bps) {
          out.problems.push_back(name + ": goodput above the trunk rate");
        }
        out.counts.app_payload_bytes += spec.bulk_bytes + 1;  // + completion token
      } else {
        const uint64_t want = static_cast<uint64_t>(spec.iterations);
        out.ops_attempted += want;
        const uint64_t failed = FailedRtts(want, flow.rtt, flow.data_mismatches,
                                           flow.completed && !flow.aborted);
        out.ops_failed += failed;
        if (failed != 0) {
          out.problems.push_back(name + ": " + std::to_string(failed) + " failed RTTs");
        }
        out.counts.app_payload_bytes +=
            2 * static_cast<uint64_t>(spec.iterations + spec.warmup) * spec.size;
      }
      d.Add(static_cast<uint64_t>(f));
      AddRtt(flow.rtt, &d);
      d.Add(flow.iterations);
      d.Add(static_cast<uint64_t>(flow.completed));
      d.Add(static_cast<uint64_t>(flow.aborted));
      d.Add(flow.data_mismatches);
      d.Add(flow.bulk.bytes);
      d.Add(flow.bulk.start_ns);
      d.Add(flow.bulk.done_ns);
    }
    if (result_.max_concurrent > specs_.size()) {
      out.problems.push_back("more concurrent round trips than flows");
    }
    d.Add(static_cast<uint64_t>(result_.max_concurrent));
    out.counts.sim_events = bed_->EventsDispatched();
    d.Add(out.counts.sim_events);
    d.Add(bed_->EndTime().nanos());
    for (int idx = 0; idx < bed_->host_count(); ++idx) {
      AddHost(bed_->host(idx), bed_->tcp(idx), bed_->atm_netif(idx), &out.counts, &d);
    }
    AddSwitch(bed_->atm_switch(), &out.counts, &d);
    out.digest = d.value();
    out.vc_buffer_cells = config_.vc_buffers.buffer_cells;
    return out;
  }

  void AttachTracer(tcplat::Tracer* tracer) override { bed_->AttachTracer(tracer); }

  void AttachObserver(UnitObserver observer) override {
    tap_ = std::make_unique<ObserveImpairment>(std::move(observer), &bed_->sim());
    bed_->atm_switch()->set_output_impairment(tap_.get());
  }

 private:
  tcplat::StarTestbedConfig config_;
  std::vector<tcplat::FlowSpec> specs_;
  tcplat::WorkloadOptions options_;
  std::unique_ptr<ObserveImpairment> tap_;  // outlives bed_'s use of it
  std::unique_ptr<tcplat::StarTestbed> bed_;
  tcplat::WorkloadResult result_;
};

std::unique_ptr<WorkloadRun> MakeStar64(uint64_t seed) {
  tcplat::StarTestbedConfig config;
  config.network = NetworkKind::kAtm;
  config.clients = kStarClients;
  config.servers = kStarServers;
  config.seed = seed;
  tcplat::ClosedLoopConfig closed;
  closed.flows = kStarFlows;
  closed.clients = kStarClients;
  closed.servers = kStarServers;
  closed.size = kStarSize;
  closed.iterations = kStarIterations;
  closed.warmup = kStarWarmup;
  std::vector<tcplat::FlowSpec> specs = tcplat::BuildClosedLoop(closed);
  tcplat::Rng rng(seed);
  for (tcplat::FlowSpec& spec : specs) {
    spec.start_delay =
        SimDuration::FromMicros(static_cast<double>(rng.NextInRange(0, kStarStartSpreadUs)));
  }
  return std::make_unique<StarRun>(config, std::move(specs), tcplat::WorkloadOptions{});
}

std::unique_ptr<WorkloadRun> MakeBulk16Loss(uint64_t seed) {
  tcplat::StarTestbedConfig config;
  config.network = NetworkKind::kAtm;
  config.clients = kBulkFlows;
  config.servers = 1;
  config.seed = seed;
  config.propagation = tcplat::GetLinkProfile(tcplat::LinkProfileKind::kLocalFiber).propagation;
  config.vc_buffers.buffer_cells = kBulkBufferCells;
  config.vc_buffers.policy = tcplat::DropPolicy::kTailDrop;
  config.server_trunk_bps = kBulkTrunkBps;
  config.tcp.sndbuf = 32768;
  config.tcp.rcvbuf = 32768;
  config.tcp.mss_clamp = 1460;
  tcplat::Rng rng(seed);
  std::vector<tcplat::FlowSpec> specs;
  for (int f = 0; f < kBulkFlows; ++f) {
    tcplat::FlowSpec spec;
    spec.client = f;
    spec.server = 0;
    spec.bulk_bytes = kBulkBytes;
    spec.congestion = tcplat::CongestionVariant::kSack;
    spec.start_delay = SimDuration::FromMicros(
        static_cast<double>(kBulkStaggerUs * f + rng.NextInRange(0, kBulkJitterUs)));
    spec.tolerate_errors = true;  // an abort is counted as a failed flow
    specs.push_back(spec);
  }
  tcplat::WorkloadOptions options;
  options.reset_trackers_at_warmup = false;
  return std::make_unique<StarRun>(config, std::move(specs), options);
}

}  // namespace

std::unique_ptr<WorkloadRun> MakeRun(const std::string& workload, uint64_t seed) {
  if (workload == "paper_sweep") return std::make_unique<PaperSweepRun>(seed);
  if (workload == "star64") return MakeStar64(seed);
  if (workload == "bulk16_loss") return MakeBulk16Loss(seed);
  return nullptr;
}

std::string WorkloadParams(const std::string& workload, uint64_t seed) {
  char buf[512];
  if (workload == "paper_sweep") {
    std::snprintf(buf, sizeof(buf),
                  "{\"cells\":16,\"networks\":[\"ether\",\"atm\"],\"sizes\":[4,20,80,200,500,"
                  "1400,4000,8000],\"iterations\":%d,\"warmup\":%d,\"order_seed\":%llu}",
                  kPaperIterations, kPaperWarmup, static_cast<unsigned long long>(seed));
  } else if (workload == "star64") {
    std::snprintf(buf, sizeof(buf),
                  "{\"clients\":%d,\"servers\":%d,\"flows\":%d,\"size\":%zu,\"iterations\":%d,"
                  "\"warmup\":%d,\"start_spread_us\":%lld,\"loop\":\"closed\",\"seed\":%llu}",
                  kStarClients, kStarServers, kStarFlows, kStarSize, kStarIterations,
                  kStarWarmup, static_cast<long long>(kStarStartSpreadUs),
                  static_cast<unsigned long long>(seed));
  } else {
    std::snprintf(buf, sizeof(buf),
                  "{\"flows\":%d,\"variant\":\"sack\",\"policy\":\"tail\",\"buffer_cells\":%zu,"
                  "\"trunk_bps\":%.0f,\"bulk_bytes\":%llu,\"stagger_us\":%lld,\"jitter_us\":%lld,"
                  "\"seed\":%llu}",
                  kBulkFlows, kBulkBufferCells, kBulkTrunkBps,
                  static_cast<unsigned long long>(kBulkBytes),
                  static_cast<long long>(kBulkStaggerUs), static_cast<long long>(kBulkJitterUs),
                  static_cast<unsigned long long>(seed));
  }
  return buf;
}

std::vector<double> PaperTable1Us() {
  std::vector<double> out(tcplat::paper::kTable1Ethernet.begin(),
                          tcplat::paper::kTable1Ethernet.end());
  out.insert(out.end(), tcplat::paper::kTable1Atm.begin(), tcplat::paper::kTable1Atm.end());
  return out;
}

}  // namespace perfbench
