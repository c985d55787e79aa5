#include "src/workload/star_testbed.h"

#include <string>

#include "src/base/check.h"

namespace tcplat {

StarTestbed::StarTestbed(StarTestbedConfig config)
    : config_(std::move(config)), sim_(config_.seed) {
  TCPLAT_CHECK_GT(config_.clients, 0);
  TCPLAT_CHECK_GT(config_.servers, 0);
  const int n = host_count();
  TCPLAT_CHECK_LE(n, 250) << "star exceeds the address/VCI plan";

  for (int idx = 0; idx < n; ++idx) {
    const bool is_client = idx < config_.clients;
    const std::string name = (is_client ? "client" : "server") +
                             std::to_string(is_client ? idx : idx - config_.clients);
    hosts_.push_back(std::make_unique<Host>(&sim_, name, CostProfile::Decstation5000_200()));
    const Ipv4Addr addr =
        is_client ? StarClientAddr(idx) : StarServerAddr(idx - config_.clients);
    ips_.push_back(std::make_unique<IpStack>(hosts_.back().get(), addr));
  }

  if (config_.network == NetworkKind::kAtm) {
    atm_switch_ = std::make_unique<AtmSwitch>(&sim_, kTaxiBitsPerSecond, config_.propagation,
                                              kSwitchLatency);
    if (config_.vc_buffers.buffer_cells > 0) {
      atm_switch_->ConfigureVcBuffers(config_.vc_buffers);
    }
    const bool integrated = config_.tcp.checksum == ChecksumMode::kCombined;
    for (int idx = 0; idx < n; ++idx) {
      // Each host owns a private fiber into the switch; the switch creates
      // the return fiber in AttachOutput. Port number = host index.
      fibers_.push_back(
          std::make_unique<Wire>(&sim_, kTaxiBitsPerSecond, config_.propagation));
      adapters_.push_back(std::make_unique<Tca100>(hosts_[static_cast<size_t>(idx)].get(),
                                                   fibers_.back().get()));
      const bool server_port = idx >= config_.clients;
      atm_switch_->AttachOutput(idx, adapters_.back().get(),
                                server_port ? config_.server_trunk_bps : 0);
      adapters_.back()->ConnectSink(atm_switch_->input(idx));
      atm_ifs_.push_back(std::make_unique<AtmNetIf>(ips_[static_cast<size_t>(idx)].get(),
                                                    adapters_.back().get(),
                                                    PairVci(idx, idx)));
      atm_ifs_.back()->set_rx_integrated_checksum(integrated);
    }
    for (int src = 0; src < n; ++src) {
      for (int dst = 0; dst < n; ++dst) {
        if (src == dst) {
          continue;
        }
        const uint16_t vci = PairVci(src, dst);
        const Ipv4Addr dst_addr = dst < config_.clients
                                      ? StarClientAddr(dst)
                                      : StarServerAddr(dst - config_.clients);
        atm_ifs_[static_cast<size_t>(src)]->AddVc(dst_addr, vci);
        atm_switch_->AddRoute(vci, dst);
      }
    }
  } else {
    ether_segment_ = std::make_unique<EtherSegment>(&sim_, config_.propagation);
    for (int idx = 0; idx < n; ++idx) {
      const MacAddr mac{0x02, 0, 0, 0, 0, static_cast<uint8_t>(idx + 1)};
      ether_ifs_.push_back(std::make_unique<EtherNetIf>(ips_[static_cast<size_t>(idx)].get(),
                                                        hosts_[static_cast<size_t>(idx)].get(),
                                                        ether_segment_.get(), mac));
    }
    // Static all-to-all ARP, as the paper's warm two-host cache generalizes.
    for (int a = 0; a < n; ++a) {
      for (int b = 0; b < n; ++b) {
        if (a == b) {
          continue;
        }
        const Ipv4Addr b_addr =
            b < config_.clients ? StarClientAddr(b) : StarServerAddr(b - config_.clients);
        ether_ifs_[static_cast<size_t>(a)]->AddRoute(b_addr, ether_ifs_[static_cast<size_t>(b)]->mac());
      }
    }
  }

  for (int idx = 0; idx < n; ++idx) {
    tcps_.push_back(std::make_unique<TcpStack>(ips_[static_cast<size_t>(idx)].get(), config_.tcp));
    tcps_.back()->AddBackgroundPcbs(kBackgroundPcbs);
  }
}

void StarTestbed::AttachTracer(Tracer* tracer) {
  for (auto& host : hosts_) {
    host->AttachTracer(tracer);
  }
  if (atm_switch_ != nullptr) {
    atm_switch_->AttachTracer(tracer, tracer != nullptr ? tracer->RegisterHost("switch") : 0);
  }
}

void StarTestbed::ResetTrackers() {
  for (auto& host : hosts_) {
    host->tracker().Reset();
  }
}

}  // namespace tcplat
