// Bulk (throughput-style) transfer — the unidirectional workload the BSD
// header-prediction fast path was actually optimized for (§3: "a single
// sender, high throughput style of communication"). Streams a buffer one
// way, reports throughput, and shows the fast path earning its keep —
// contrast with the RPC workload where it almost never fires.
//
//   $ ./bulk_transfer [megabytes]

#include <charconv>
#include <cstdio>
#include <cstring>
#include <vector>

#include "src/base/random.h"
#include "src/core/testbed.h"
#include "src/os/task.h"

using namespace tcplat;

namespace {

struct Transfer {
  size_t bytes = 0;
  std::vector<uint8_t> received;
  SimTime started;
  SimTime finished;
  bool ok = false;
};

SimTask Sender(Testbed* tb, Transfer* xfer) {
  Socket* s = tb->client_tcp().Connect(SockAddr{kServerAddr, kEchoPort});
  while (!s->connected() && !s->has_error()) {
    co_await s->WaitConnected();
  }
  Rng rng(1234);
  std::vector<uint8_t> block(64 * 1024);
  for (auto& b : block) {
    b = static_cast<uint8_t>(rng.Next());
  }
  xfer->started = tb->client_host().CurrentTime();
  size_t sent = 0;
  while (sent < xfer->bytes) {
    const size_t want = std::min(block.size(), xfer->bytes - sent);
    size_t off = 0;
    while (off < want) {
      const size_t n = s->Write({block.data() + off, want - off});
      off += n;
      if (n == 0) {
        co_await s->WaitWritable();
      }
    }
    sent += want;
  }
  s->Close();
}

SimTask Receiver(Testbed* tb, Transfer* xfer) {
  Socket* listener = tb->server_tcp().Listen(kEchoPort);
  Socket* s = nullptr;
  while (s == nullptr) {
    s = listener->Accept();
    if (s == nullptr) {
      co_await listener->WaitAcceptable();
    }
  }
  std::vector<uint8_t> buf(64 * 1024);
  size_t got = 0;
  while (got < xfer->bytes) {
    const size_t n = s->Read({buf.data(), buf.size()});
    if (n > 0) {
      got += n;
    } else {
      if (s->eof() || s->has_error()) {
        break;
      }
      co_await s->WaitReadable();
    }
  }
  xfer->finished = tb->server_host().CurrentTime();
  xfer->ok = got == xfer->bytes;
}

void RunOne(NetworkKind net, const char* label, size_t bytes) {
  TestbedConfig cfg;
  cfg.network = net;
  Testbed tb(cfg);
  Transfer xfer;
  xfer.bytes = bytes;
  tb.server_host().Spawn("rx", Receiver(&tb, &xfer));
  tb.client_host().Spawn("tx", Sender(&tb, &xfer));
  tb.sim().RunToCompletion();
  if (!xfer.ok) {
    std::printf("%s: transfer failed!\n", label);
    return;
  }
  const double secs = (xfer.finished - xfer.started).seconds();
  const TcpStats& snd = tb.client_tcp().stats();
  const TcpStats& rcv = tb.server_tcp().stats();
  std::printf("%-10s %6.2f Mbit/s  (%llu segments, %.1f%% of receives took the TCP fast\n"
              "           path, %.1f%% of the sender's ACKs did)\n",
              label, static_cast<double>(bytes) * 8.0 / secs / 1e6,
              static_cast<unsigned long long>(snd.data_segs_sent),
              100.0 * static_cast<double>(rcv.predict_data_hits) /
                  static_cast<double>(rcv.segs_received),
              100.0 * static_cast<double>(snd.predict_ack_hits) /
                  static_cast<double>(snd.segs_received));
}

// A whole decimal number of megabytes, 1 to 1024.
bool ParseMegabytes(const char* arg, size_t* mb) {
  const char* end = arg + std::strlen(arg);
  const auto [ptr, ec] = std::from_chars(arg, end, *mb);
  return ec == std::errc() && ptr == end && *mb >= 1 && *mb <= 1024;
}

}  // namespace

int main(int argc, char** argv) {
  size_t mb = 4;
  if (argc > 2 || (argc == 2 && !ParseMegabytes(argv[1], &mb))) {
    std::fprintf(stderr, "usage: %s [megabytes, 1 to 1024]\n", argv[0]);
    return 2;
  }
  const size_t bytes = mb * 1024 * 1024;
  std::printf("One-way bulk transfer of %zu MiB (simulated 1994 hardware):\n\n", mb);
  RunOne(NetworkKind::kAtm, "ATM:", bytes);
  RunOne(NetworkKind::kEthernet, "Ethernet:", bytes);
  std::printf("\nCompare with the RPC workload (examples/rpc_latency), where the paper\n"
              "found the same fast path almost never fires: it was built for this\n"
              "workload, not for request/response traffic.\n");
  return 0;
}
