#include "src/core/routed_testbed.h"

namespace tcplat {
namespace {
constexpr Ipv4Addr kMask24 = MakeAddr(255, 255, 255, 0);
}  // namespace

RoutedTestbed::RoutedTestbed(const TcpConfig& tcp) {
  const CostProfile profile = CostProfile::Decstation5000_200();
  client_host_ = std::make_unique<Host>(&sim_, "client", profile);
  gw_host_ = std::make_unique<Host>(&sim_, "gateway", profile);
  server_host_ = std::make_unique<Host>(&sim_, "server", profile);
  client_ip_ = std::make_unique<IpStack>(client_host_.get(), kRoutedClientAddr);
  gw_ip_ = std::make_unique<IpStack>(gw_host_.get(), kRoutedGatewayLeft);
  server_ip_ = std::make_unique<IpStack>(server_host_.get(), kRoutedServerAddr);

  left_ = std::make_unique<EtherSegment>(&sim_, kLabPropagation);
  right_ = std::make_unique<EtherSegment>(&sim_, kLabPropagation);

  const MacAddr client_mac{2, 0, 0, 0, 1, 1};
  const MacAddr gw_left_mac{2, 0, 0, 0, 1, 0xFE};
  const MacAddr gw_right_mac{2, 0, 0, 0, 2, 0xFE};
  const MacAddr server_mac{2, 0, 0, 0, 2, 1};
  client_if_ = std::make_unique<EtherNetIf>(client_ip_.get(), client_host_.get(), left_.get(),
                                            client_mac);
  gw_left_if_ = std::make_unique<EtherNetIf>(gw_ip_.get(), gw_host_.get(), left_.get(),
                                             gw_left_mac);
  gw_right_if_ = std::make_unique<EtherNetIf>(gw_ip_.get(), gw_host_.get(), right_.get(),
                                              gw_right_mac);
  server_if_ = std::make_unique<EtherNetIf>(server_ip_.get(), server_host_.get(), right_.get(),
                                            server_mac);

  // Static ARP.
  client_if_->AddRoute(kRoutedGatewayLeft, gw_left_mac);
  gw_left_if_->AddRoute(kRoutedClientAddr, client_mac);
  gw_right_if_->AddRoute(kRoutedServerAddr, server_mac);
  server_if_->AddRoute(kRoutedGatewayRight, gw_right_mac);

  // IP routing: end hosts default via the gateway; the gateway knows both
  // connected subnets and forwards.
  client_ip_->AddRoute(MakeAddr(10, 0, 1, 0), kMask24, client_if_.get());
  client_ip_->AddRoute(0, 0, client_if_.get(), kRoutedGatewayLeft);
  server_ip_->AddRoute(MakeAddr(10, 0, 2, 0), kMask24, server_if_.get());
  server_ip_->AddRoute(0, 0, server_if_.get(), kRoutedGatewayRight);
  gw_ip_->AddRoute(MakeAddr(10, 0, 1, 0), kMask24, gw_left_if_.get());
  gw_ip_->AddRoute(MakeAddr(10, 0, 2, 0), kMask24, gw_right_if_.get());
  gw_ip_->set_forwarding(true);

  client_tcp_ = std::make_unique<TcpStack>(client_ip_.get(), tcp);
  server_tcp_ = std::make_unique<TcpStack>(server_ip_.get(), tcp);
}

void RoutedTestbed::ResetTrackers() {
  client_host_->tracker().Reset();
  gw_host_->tracker().Reset();
  server_host_->tracker().Reset();
}

}  // namespace tcplat
