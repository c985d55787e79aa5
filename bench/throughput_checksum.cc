// Throughput under the three checksum strategies — §4.2's closing claim:
// "with proper support ... eliminating the TCP checksum can also benefit
// throughput oriented applications", while "even an integrated copy and
// checksum routine limits bandwidth to about 9% of the bus bandwidth on the
// DECstation 5000/200". Streams bulk data one way and reports goodput,
// plus the per-byte data-touching budget that explains it.

#include <array>
#include <cstdio>
#include <vector>

#include "bench/bench_flags.h"
#include "src/base/random.h"
#include "src/core/table.h"
#include "src/core/testbed.h"
#include "src/exec/executor.h"
#include "src/os/task.h"

namespace tcplat {
namespace {

struct Transfer {
  size_t bytes = 0;
  SimTime start;
  SimTime end;
  bool ok = false;
};

SimTask Sender(Testbed* tb, Transfer* x) {
  Socket* s = tb->client_tcp().Connect(SockAddr{kServerAddr, kEchoPort});
  while (!s->connected() && !s->has_error()) {
    co_await s->WaitConnected();
  }
  Rng rng(7);
  std::vector<uint8_t> block(32 * 1024);
  for (auto& b : block) {
    b = static_cast<uint8_t>(rng.Next());
  }
  x->start = tb->client_host().CurrentTime();
  size_t sent = 0;
  while (sent < x->bytes) {
    const size_t want = std::min(block.size(), x->bytes - sent);
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

SimTask Receiver(Testbed* tb, Transfer* x) {
  Socket* listener = tb->server_tcp().Listen(kEchoPort);
  Socket* s = nullptr;
  while (s == nullptr) {
    s = listener->Accept();
    if (s == nullptr) {
      co_await listener->WaitAcceptable();
    }
  }
  std::vector<uint8_t> buf(32 * 1024);
  size_t got = 0;
  while (got < x->bytes) {
    const size_t n = s->Read(buf);
    if (n > 0) {
      got += n;
    } else {
      if (s->eof() || s->has_error()) {
        break;
      }
      co_await s->WaitReadable();
    }
  }
  x->end = tb->server_host().CurrentTime();
  x->ok = got == x->bytes;
}

double MeasureMbps(ChecksumMode mode, size_t window) {
  TestbedConfig cfg;
  cfg.tcp.checksum = mode;
  cfg.tcp.sndbuf = window;
  cfg.tcp.rcvbuf = window;
  Testbed tb(cfg);
  Transfer x;
  x.bytes = 4 * 1024 * 1024;
  tb.server_host().Spawn("rx", Receiver(&tb, &x));
  tb.client_host().Spawn("tx", Sender(&tb, &x));
  tb.sim().RunToCompletion();
  if (!x.ok) {
    return -1;
  }
  return static_cast<double>(x.bytes) * 8.0 / (x.end - x.start).seconds() / 1e6;
}

void Run() {
  std::printf("Bulk TCP throughput over ATM by checksum strategy (4 MiB one way)\n\n");
  TextTable t({"Socket buffers", "Standard (Mbit/s)", "Combined (Mbit/s)", "None (Mbit/s)",
               "None vs Standard"});
  const std::array<size_t, 4> windows = {8192u, 16384u, 32768u, 65535u};
  struct Row {
    double std_mbps;
    double comb_mbps;
    double none_mbps;
  };
  const std::vector<Row> rows = ParallelMap<Row>(windows.size(), [&windows](size_t i) {
    return Row{MeasureMbps(ChecksumMode::kStandard, windows[i]),
               MeasureMbps(ChecksumMode::kCombined, windows[i]),
               MeasureMbps(ChecksumMode::kNone, windows[i])};
  });
  for (size_t i = 0; i < windows.size(); ++i) {
    const auto& [std_mbps, comb_mbps, none_mbps] = rows[i];
    t.AddRow({std::to_string(windows[i]), TextTable::Num(std_mbps, 2),
              TextTable::Num(comb_mbps, 2), TextTable::Num(none_mbps, 2),
              TextTable::Pct(100.0 * (none_mbps - std_mbps) / std_mbps, 1)});
  }
  t.Print();

  const CostProfile p = CostProfile::Decstation5000_200();
  std::printf("\nPer-byte data-touching budget on the DECstation (us/KB, from the\n"
              "calibrated profile): checksum %.0f, copyin %.0f, driver rx %.0f —\n"
              "the integrated copy+checksum loop alone caps memory throughput at\n"
              "%.1f MB/s, the paper's '9%% of the bus bandwidth' observation.\n",
              p.in_cksum.per_byte_us * 1024, p.copyin_cluster.per_byte_us * 1024,
              (p.atm_rx_per_cell.fixed_us / 44.0) * 1024,
              1.0 / p.integrated_copy_cksum.per_byte_us);
}

}  // namespace
}  // namespace tcplat

int main(int argc, char** argv) {
  tcplat::BenchFlags flags;
  if (!tcplat::ParseBenchFlags(argc, argv, &flags, "")) return 2;
  tcplat::Run();
  return 0;
}
