#include "src/fault/scenario.h"

#include <cinttypes>
#include <cstdio>

#include "src/base/check.h"

namespace tcplat {
namespace {

// Golden-ratio mixing keeps per-direction streams decorrelated even for
// adjacent scenario seeds.
constexpr uint64_t kSeedMix = 0x9e3779b97f4a7c15ull;

}  // namespace

TestbedImpairment::TestbedImpairment(Testbed& testbed, const ImpairmentConfig& config)
    : testbed_(&testbed) {
  auto make = [&](const char* name, uint64_t salt) {
    ImpairmentConfig c = config;
    c.seed = config.seed + salt * kSeedMix;
    links_.push_back({name, std::make_unique<ImpairmentPolicy>(c)});
    return links_.back().policy.get();
  };

  if (testbed.config().network == NetworkKind::kAtm) {
    testbed.atm_link()->dir(0).set_impairment(make("c2s", 1));
    testbed.atm_link()->dir(1).set_impairment(make("s2c", 2));
    link("c2s")->RegisterMetrics(testbed.client_host().metrics(), "c2s");
    link("s2c")->RegisterMetrics(testbed.server_host().metrics(), "s2c");
  } else {
    testbed.ether_segment()->set_impairment(make("bus", 1));
    link("bus")->RegisterMetrics(testbed.client_host().metrics(), "bus");
  }
}

TestbedImpairment::~TestbedImpairment() {
  if (testbed_->config().network == NetworkKind::kAtm) {
    testbed_->atm_link()->dir(0).set_impairment(nullptr);
    testbed_->atm_link()->dir(1).set_impairment(nullptr);
  } else {
    testbed_->ether_segment()->set_impairment(nullptr);
  }
}

ImpairmentPolicy* TestbedImpairment::link(std::string_view name) {
  for (auto& l : links_) {
    if (l.name == name) {
      return l.policy.get();
    }
  }
  return nullptr;
}

void TestbedImpairment::AttachTracer(Tracer* tracer) {
  for (auto& l : links_) {
    if (tracer != nullptr) {
      l.policy->AttachTracer(tracer, tracer->RegisterHost("link:" + l.name));
    } else {
      l.policy->AttachTracer(nullptr, 0);
    }
  }
}

ImpairmentStats TestbedImpairment::TotalStats() const {
  ImpairmentStats total;
  for (const auto& l : links_) {
    total += l.policy->stats();
  }
  return total;
}

LossScenarioResult RunLossScenario(const LossScenarioConfig& config) {
  TestbedConfig tb_cfg;
  tb_cfg.network = config.network;
  tb_cfg.tcp.checksum = config.checksum;
  Testbed tb(tb_cfg);

  ImpairmentConfig imp_cfg = config.impairment;
  imp_cfg.seed = config.seed * 1000003ull + config.impairment.seed;
  TestbedImpairment impairment(tb, imp_cfg);

  Tracer tracer;
  if (config.capture_observability) {
    tb.AttachTracer(&tracer);
    impairment.AttachTracer(&tracer);
  }

  RpcOptions rpc;
  rpc.size = config.size;
  rpc.iterations = config.iterations;
  rpc.warmup = config.warmup;
  rpc.tolerate_errors = true;

  LossScenarioResult out;
  out.rpc = RunRpcBenchmark(tb, rpc);
  out.link = impairment.TotalStats();
  out.retransmits = out.rpc.client_tcp.retransmits + out.rpc.server_tcp.retransmits;
  out.rexmt_timeouts = out.rpc.client_tcp.rexmt_timeouts + out.rpc.server_tcp.rexmt_timeouts;
  out.completed = !out.rpc.aborted &&
                  out.rpc.rtt.count() == static_cast<uint64_t>(config.iterations);
  out.mean_rtt_us = out.rpc.MeanRtt().micros();
  out.p99_rtt_us = out.rpc.rtt.Percentile(99).micros();
  const double measured_s = out.rpc.rtt.sum().micros() / 1e6;
  if (measured_s > 0) {
    // Application payload crosses the network twice per echo.
    const double bits =
        static_cast<double>(out.rpc.rtt.count()) * static_cast<double>(config.size) * 8.0 * 2.0;
    out.goodput_mbps = bits / measured_s / 1e6;
  }

  if (config.capture_observability) {
    out.trace_csv = tracer.ToCsv();
    out.metrics_json = "{\"client\":" + tb.client_host().metrics().ToJson() +
                       ",\"server\":" + tb.server_host().metrics().ToJson() + "}";
    tb.AttachTracer(nullptr);
    impairment.AttachTracer(nullptr);
  }
  return out;
}

std::string LossScenarioRow(const LossScenarioConfig& config, const LossScenarioResult& result,
                            double baseline_rtt_us) {
  const double drop_pct =
      result.link.offered == 0
          ? 0.0
          : 100.0 * static_cast<double>(result.link.dropped) /
                static_cast<double>(result.link.offered);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%7zu  %10" PRIu64 "  %8" PRIu64 " (%6.3f%%)  %6" PRIu64 "  %8" PRIu64
                "  %9.3f  %10.1f  %10.1f",
                config.size, result.link.offered, result.link.dropped, drop_pct,
                result.retransmits, result.rexmt_timeouts, result.goodput_mbps,
                result.mean_rtt_us, result.p99_rtt_us);
  std::string row = buf;
  if (baseline_rtt_us > 0) {
    std::snprintf(buf, sizeof(buf), "  %7.2fx", result.mean_rtt_us / baseline_rtt_us);
    row += buf;
  }
  row += result.completed ? "  ok" : "  DEAD";
  return row;
}

}  // namespace tcplat
