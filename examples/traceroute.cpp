// ping + traceroute on the simulated internetwork.
//
// Demonstrates the ICMP substrate over the routed topology (client —
// gateway — server on two Ethernet segments): first a plain ping to the
// server with per-probe round-trip times, then the classic
// increasing-TTL walk that discovers the path hop by hop via ICMP
// time-exceeded messages.
//
//   $ ./traceroute

#include <cstdio>
#include <vector>

#include "src/core/routed_testbed.h"
#include "src/icmp/icmp.h"
#include "src/os/task.h"

using namespace tcplat;

namespace {

SimTask PingAndTrace(RoutedTestbed* net, IcmpStack* icmp, bool* done) {
  Host& host = net->client_host();
  const std::vector<uint8_t> payload(56, 0x5A);

  std::printf("PING %s: 56 data bytes\n", AddrToString(kRoutedServerAddr).c_str());
  for (int i = 0; i < 4; ++i) {
    const SimTime t0 = host.CurrentTime();
    const uint16_t seq = icmp->SendEcho(kRoutedServerAddr, 1, payload);
    IcmpStack::Event ev;
    while (!icmp->PollEvent(&ev)) {
      co_await icmp->WaitReadable();
    }
    std::printf("64 bytes from %s: icmp_seq=%u time=%.3f ms\n",
                AddrToString(ev.from).c_str(), seq,
                (host.CurrentTime() - t0).millis());
  }

  std::printf("\ntraceroute to %s, 8 hops max:\n",
              AddrToString(kRoutedServerAddr).c_str());
  for (uint8_t ttl = 1; ttl <= 8; ++ttl) {
    const SimTime t0 = host.CurrentTime();
    icmp->SendEcho(kRoutedServerAddr, 2, payload, ttl);
    IcmpStack::Event ev;
    while (!icmp->PollEvent(&ev)) {
      co_await icmp->WaitReadable();
    }
    std::printf(" %2u  %-12s %.3f ms%s\n", ttl, AddrToString(ev.from).c_str(),
                (host.CurrentTime() - t0).millis(),
                ev.message.type == IcmpType::kTimeExceeded ? "  (time exceeded)" : "");
    if (ev.message.type == IcmpType::kEchoReply) {
      break;  // reached the destination
    }
  }
  *done = true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    std::fprintf(stderr, "usage: %s (takes no arguments)\n", argv[0]);
    return 2;
  }
  RoutedTestbed net;
  IcmpStack client_icmp(&net.client_ip());
  IcmpStack gateway_icmp(&net.gateway_ip());
  IcmpStack server_icmp(&net.server_ip());

  bool done = false;
  net.client_host().Spawn("traceroute", PingAndTrace(&net, &client_icmp, &done));
  net.sim().RunToCompletion();
  if (!done) {
    std::fprintf(stderr, "probe did not complete\n");
    return 1;
  }
  std::printf("\n(Everything above crossed a real simulated gateway: TTLs decremented,\n"
              "ICMP errors generated by the forwarding path, ~1994 Ethernet timings.)\n");
  return 0;
}
