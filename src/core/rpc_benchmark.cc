#include "src/core/rpc_benchmark.h"

#include <algorithm>
#include <cstring>

#include "src/base/check.h"
#include "src/os/task.h"

namespace tcplat {
namespace {

// Deterministic per-iteration payload so the client can verify the echo
// end-to-end (the application-level check of §4.2.1).
void FillPattern(std::vector<uint8_t>& buf, int iteration) {
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<uint8_t>((i * 131 + iteration * 17 + 7) & 0xFF);
  }
}

struct RunState {
  WorkloadHosts* hosts = nullptr;
  const WorkloadOptions* options = nullptr;
  std::vector<FlowResult> results;
  std::vector<uint8_t> server_done;
  std::vector<uint8_t> client_done;
  // Per-flow [enter, leave] round-trip intervals (nanos; leave = -1 while
  // open), written by the flow's client coroutine; max_concurrent is swept
  // from these after the run.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> intervals;
  // Streaming mode: per-message send-entry (client coroutine) and sink-side
  // delivery (server coroutine) timestamps, paired after the run.
  std::vector<std::vector<int64_t>> stream_send_ts;
  std::vector<std::vector<int64_t>> stream_recv_ts;
};

void BeginInterval(RunState* state, size_t flow, SimTime t0) {
  state->intervals[flow].push_back({t0.nanos(), -1});
}

void EndInterval(RunState* state, size_t flow, SimTime t1) {
  state->intervals[flow].back().second = t1.nanos();
}

// Peak number of simultaneously open intervals. Endpoints are ordered by
// (time, leaves-before-enters, flow) so a flow whose next round trip starts
// at the exact instant the previous one ended never double-counts, keeping
// the closed-loop invariant max <= population.
size_t SweepMaxConcurrent(const RunState& state) {
  struct Endpoint {
    int64_t t;
    int kind;  // 0 = leave, 1 = enter
    size_t flow;
  };
  std::vector<Endpoint> points;
  for (size_t f = 0; f < state.intervals.size(); ++f) {
    for (const auto& [enter, leave] : state.intervals[f]) {
      points.push_back({enter, 1, f});
      if (leave >= 0) {
        points.push_back({leave, 0, f});
      }
    }
  }
  std::sort(points.begin(), points.end(), [](const Endpoint& a, const Endpoint& b) {
    if (a.t != b.t) return a.t < b.t;
    if (a.kind != b.kind) return a.kind < b.kind;
    return a.flow < b.flow;
  });
  size_t current = 0;
  size_t peak = 0;
  for (const Endpoint& p : points) {
    if (p.kind == 1) {
      peak = std::max(peak, ++current);
    } else {
      --current;
    }
  }
  return peak;
}

// Creates the flow's listener, applying the per-flow congestion variant so
// accepted connections inherit it (the SYN arrives strictly later, after at
// least one propagation delay).
Socket* ListenFlow(RunState* state, const FlowSpec* spec, uint16_t port) {
  Socket* listener = state->hosts->server_tcp(spec->server).Listen(port);
  if (spec->congestion.has_value()) {
    listener->SetCongestion(*spec->congestion);
  }
  return listener;
}

// Opens the flow's client connection; the congestion variant must ride on
// the socket before Connect builds the SYN (it drives SACK negotiation).
Socket* ConnectFlow(RunState* state, const FlowSpec* spec, uint16_t port) {
  TcpStack& stack = state->hosts->client_tcp(spec->client);
  const SockAddr remote{state->hosts->server_addr(spec->server), port};
  return spec->congestion.has_value() ? stack.Connect(remote, *spec->congestion)
                                      : stack.Connect(remote);
}

// Ends a tolerate_errors flow whose connection died: marks it aborted and
// closes its open round-trip intervals at `now`.
void AbortFlow(RunState* state, size_t flow, SimTime now) {
  state->results[flow].aborted = true;
  state->client_done[flow] = true;
  auto& intervals = state->intervals[flow];
  for (auto it = intervals.rbegin(); it != intervals.rend() && it->second < 0; ++it) {
    it->second = now.nanos();
  }
}

void ApplyServerOptions(const FlowSpec* spec, Socket* conn) {
  if (spec->server_delack.has_value()) {
    conn->SetDelackEnabled(*spec->server_delack);
  }
  if (spec->server_delack_timeout.has_value()) {
    conn->SetDelackTimeout(*spec->server_delack_timeout);
  }
}

// --- request/response (the paper's echo and its interactive shapes) -------

// Reads each request whole, then answers with the request itself (an echo)
// or, when the flow sets response_size, with that many pattern bytes.
SimTask EchoServerProc(RunState* state, const FlowSpec* spec, size_t flow, uint16_t port) {
  Socket* listener = ListenFlow(state, spec, port);
  while (true) {
    Socket* conn = listener->Accept();
    if (conn != nullptr) {
      // The accept wakeup fires on the handshake ACK, one propagation ahead
      // of the client's first data, so the options are set before any
      // delayed-ACK decision is made.
      ApplyServerOptions(spec, conn);
      std::vector<uint8_t> req(spec->request_bytes());
      std::vector<uint8_t> rsp(spec->response_size);
      const std::vector<uint8_t>& reply = rsp.empty() ? req : rsp;
      const int total = spec->warmup + spec->iterations;
      for (int iter = 0; iter < total; ++iter) {
        size_t got = 0;
        while (got < req.size()) {
          const size_t n = conn->Read({req.data() + got, req.size() - got});
          got += n;
          if (n == 0) {
            if (conn->eof() || conn->has_error()) {
              state->server_done[flow] = true;
              co_return;
            }
            co_await conn->WaitReadable();
          }
        }
        FillPattern(rsp, iter);
        size_t sent = 0;
        while (sent < reply.size()) {
          const size_t n = conn->Write({reply.data() + sent, reply.size() - sent});
          sent += n;
          if (n == 0) {
            if (conn->has_error()) {
              state->server_done[flow] = true;
              co_return;
            }
            co_await conn->WaitWritable();
          }
        }
      }
      conn->Close();
      state->server_done[flow] = true;
      co_return;
    }
    co_await listener->WaitAcceptable();
  }
}

// Keeps up to pipeline_depth requests in flight; each round trip runs from
// its request's first write to its response's last byte.
SimTask EchoClientProc(RunState* state, const FlowSpec* spec, size_t flow, uint16_t port) {
  Host& host = state->hosts->client_host(spec->client);
  FlowResult& result = state->results[flow];
  if (spec->start_delay.nanos() > 0) {
    co_await host.SleepFor(spec->start_delay);
  }
  Socket* sock = ConnectFlow(state, spec, port);
  if (spec->client_nodelay.has_value()) {
    sock->SetNodelay(*spec->client_nodelay);
  }
  while (!sock->connected() && !sock->has_error()) {
    co_await sock->WaitConnected();
  }
  if (sock->has_error() && spec->tolerate_errors) {
    AbortFlow(state, flow, host.CurrentTime());
    co_return;
  }
  TCPLAT_CHECK(!sock->has_error()) << "flow " << flow << " failed to connect";

  std::vector<size_t> chunks = spec->request_chunks;
  if (chunks.empty()) {
    chunks.push_back(spec->size);
  }
  std::vector<uint8_t> out(spec->request_bytes());
  std::vector<uint8_t> in(spec->response_bytes());
  const int total = spec->warmup + spec->iterations;
  const int depth = std::max(spec->pipeline_depth, 1);
  // With one request in flight, `out` still holds the request an echo must
  // return.
  const bool verify = spec->verify_data && depth == 1 && spec->response_size == 0;
  int issued = 0;
  int completed = 0;
  while (completed < total) {
    while (issued < total && issued - completed < depth) {
      if (issued == spec->warmup && flow == 0 && state->options->reset_trackers_at_warmup) {
        // Start of the measured region: clear the layer accumulators, the
        // way the paper re-initializes its kernel counters.
        state->hosts->ResetTrackers();
      }
      FillPattern(out, issued);
      BeginInterval(state, flow, host.CurrentTime());
      size_t off = 0;
      for (size_t chunk : chunks) {
        size_t sent = 0;
        while (sent < chunk) {
          const size_t n = sock->Write({out.data() + off + sent, chunk - sent});
          sent += n;
          if (n == 0) {
            if (sock->has_error() && spec->tolerate_errors) {
              AbortFlow(state, flow, host.CurrentTime());
              co_return;
            }
            TCPLAT_CHECK(!sock->has_error()) << "flow " << flow << " error during send";
            co_await sock->WaitWritable();
          }
        }
        off += chunk;
      }
      ++issued;
    }
    size_t got = 0;
    while (got < in.size()) {
      const size_t n = sock->Read({in.data() + got, in.size() - got});
      got += n;
      if (n == 0) {
        if ((sock->eof() || sock->has_error()) && spec->tolerate_errors) {
          AbortFlow(state, flow, host.CurrentTime());
          co_return;
        }
        TCPLAT_CHECK(!sock->eof() && !sock->has_error())
            << "flow " << flow << " died mid-response";
        co_await sock->WaitReadable();
      }
    }
    const SimTime t1 = host.CurrentTime();
    // Responses complete in issue order; close the oldest open interval.
    auto& iv = state->intervals[flow][static_cast<size_t>(completed)];
    iv.second = t1.nanos();
    if (completed >= spec->warmup) {
      result.rtt.Add(t1.QuantizeToClockTick() -
                     SimTime::FromNanos(iv.first).QuantizeToClockTick());
      if (verify && std::memcmp(in.data(), out.data(), out.size()) != 0) {
        ++result.data_mismatches;
      }
    }
    ++completed;
    if (spec->think_time.nanos() > 0 && completed < total) {
      co_await host.SleepFor(spec->think_time);
    }
  }
  sock->Close();
  result.completed = true;
  state->client_done[flow] = true;
  co_return;
}

// --- streaming (steady small appends, sink-side latency) -------------------

SimTask StreamSinkProc(RunState* state, const FlowSpec* spec, size_t flow, uint16_t port) {
  Socket* listener = ListenFlow(state, spec, port);
  while (true) {
    Socket* conn = listener->Accept();
    if (conn != nullptr) {
      ApplyServerOptions(spec, conn);
      Host& host = state->hosts->server_host(spec->server);
      std::vector<uint8_t> buf(std::max<size_t>(spec->size, 1));
      uint64_t cum = 0;
      uint64_t boundary = spec->size;
      while (true) {
        const size_t n = conn->Read({buf.data(), buf.size()});
        cum += n;
        while (cum >= boundary) {
          state->stream_recv_ts[flow].push_back(host.CurrentTime().nanos());
          boundary += spec->size;
        }
        if (n == 0) {
          if (conn->eof() || conn->has_error()) {
            state->server_done[flow] = true;
            co_return;
          }
          co_await conn->WaitReadable();
        }
      }
    }
    co_await listener->WaitAcceptable();
  }
}

SimTask StreamClientProc(RunState* state, const FlowSpec* spec, size_t flow, uint16_t port) {
  Host& host = state->hosts->client_host(spec->client);
  FlowResult& result = state->results[flow];
  if (spec->start_delay.nanos() > 0) {
    co_await host.SleepFor(spec->start_delay);
  }
  Socket* sock = ConnectFlow(state, spec, port);
  if (spec->client_nodelay.has_value()) {
    sock->SetNodelay(*spec->client_nodelay);
  }
  while (!sock->connected() && !sock->has_error()) {
    co_await sock->WaitConnected();
  }
  TCPLAT_CHECK(!sock->has_error()) << "flow " << flow << " failed to connect";

  std::vector<uint8_t> out(spec->size);
  const int total = spec->warmup + spec->iterations;
  for (int iter = 0; iter < total; ++iter) {
    if (iter == spec->warmup && flow == 0 && state->options->reset_trackers_at_warmup) {
      state->hosts->ResetTrackers();
    }
    FillPattern(out, iter);
    const SimTime t0 = host.CurrentTime();
    BeginInterval(state, flow, t0);
    state->stream_send_ts[flow].push_back(t0.nanos());
    size_t sent = 0;
    while (sent < out.size()) {
      const size_t n = sock->Write({out.data() + sent, out.size() - sent});
      sent += n;
      if (n == 0) {
        TCPLAT_CHECK(!sock->has_error()) << "flow " << flow << " error during append";
        co_await sock->WaitWritable();
      }
    }
    EndInterval(state, flow, host.CurrentTime());
    if (spec->stream_interval.nanos() > 0 && iter + 1 < total) {
      co_await host.SleepFor(spec->stream_interval);
    }
  }
  sock->Close();
  result.completed = true;
  state->client_done[flow] = true;
  co_return;
}

// --- bulk transfer (one-way push, congestion-era goodput) -------------------

SimTask BulkSinkProc(RunState* state, const FlowSpec* spec, size_t flow, uint16_t port) {
  Socket* listener = ListenFlow(state, spec, port);
  while (true) {
    Socket* conn = listener->Accept();
    if (conn != nullptr) {
      ApplyServerOptions(spec, conn);
      std::vector<uint8_t> buf(8192);
      uint64_t got = 0;
      while (got < spec->bulk_bytes) {
        const size_t n = conn->Read({buf.data(), buf.size()});
        got += n;
        if (n == 0) {
          if (conn->eof() || conn->has_error()) {
            state->server_done[flow] = true;
            co_return;
          }
          co_await conn->WaitReadable();
        }
      }
      // The 1-byte completion token: its arrival back at the client marks
      // the last payload byte as delivered and ACK-visible.
      uint8_t token = 0x5a;
      while (conn->Write({&token, 1}) == 0) {
        if (conn->has_error()) {
          state->server_done[flow] = true;
          co_return;
        }
        co_await conn->WaitWritable();
      }
      conn->Close();
      state->server_done[flow] = true;
      co_return;
    }
    co_await listener->WaitAcceptable();
  }
}

SimTask BulkClientProc(RunState* state, const FlowSpec* spec, size_t flow, uint16_t port) {
  Host& host = state->hosts->client_host(spec->client);
  FlowResult& result = state->results[flow];
  if (spec->start_delay.nanos() > 0) {
    co_await host.SleepFor(spec->start_delay);
  }
  Socket* sock = ConnectFlow(state, spec, port);
  if (spec->client_nodelay.has_value()) {
    sock->SetNodelay(*spec->client_nodelay);
  }
  while (!sock->connected() && !sock->has_error()) {
    co_await sock->WaitConnected();
  }
  if (sock->has_error() && spec->tolerate_errors) {
    AbortFlow(state, flow, host.CurrentTime());
    co_return;
  }
  TCPLAT_CHECK(!sock->has_error()) << "flow " << flow << " failed to connect";

  std::vector<uint8_t> out(static_cast<size_t>(std::min<uint64_t>(spec->bulk_bytes, 8192)));
  FillPattern(out, 0);
  const SimTime t0 = host.CurrentTime();
  BeginInterval(state, flow, t0);
  uint64_t sent = 0;
  while (sent < spec->bulk_bytes) {
    const size_t chunk =
        static_cast<size_t>(std::min<uint64_t>(out.size(), spec->bulk_bytes - sent));
    const size_t n = sock->Write({out.data(), chunk});
    sent += n;
    if (n > 0) {
      // Per-flow timeline: bytes still sitting in the send buffer, and
      // goodput over the ACK-cleared bytes (accepted minus still-buffered)
      // since the transfer began. Keyed by the flow index.
      const SimTime now = host.CurrentTime();
      const uint64_t cleared = sent - std::min<uint64_t>(sent, sock->snd().cc());
      host.TraceSample(TsMetric::kFlowInflightBytes, flow,
                       static_cast<int64_t>(sock->snd().cc()));
      if (now.nanos() > t0.nanos()) {
        host.TraceSample(TsMetric::kFlowGoodputBps, flow,
                         static_cast<int64_t>(cleared * 8 * 1'000'000'000 /
                                              static_cast<uint64_t>(now.nanos() - t0.nanos())));
      }
    }
    if (n == 0) {
      if (sock->has_error() && spec->tolerate_errors) {
        AbortFlow(state, flow, host.CurrentTime());
        co_return;
      }
      TCPLAT_CHECK(!sock->has_error()) << "flow " << flow << " error during bulk push";
      co_await sock->WaitWritable();
    }
  }
  uint8_t token = 0;
  while (sock->Read({&token, 1}) == 0) {
    if ((sock->eof() || sock->has_error()) && spec->tolerate_errors) {
      AbortFlow(state, flow, host.CurrentTime());
      co_return;
    }
    TCPLAT_CHECK(!sock->eof() && !sock->has_error())
        << "flow " << flow << " died before the completion token";
    co_await sock->WaitReadable();
  }
  const SimTime t1 = host.CurrentTime();
  EndInterval(state, flow, t1);
  if (t1.nanos() > t0.nanos()) {
    // Final point: the whole transfer delivered and token-acknowledged.
    host.TraceSample(TsMetric::kFlowInflightBytes, flow, 0);
    host.TraceSample(TsMetric::kFlowGoodputBps, flow,
                     static_cast<int64_t>(spec->bulk_bytes * 8 * 1'000'000'000 /
                                          static_cast<uint64_t>(t1.nanos() - t0.nanos())));
  }
  result.bulk.bytes = spec->bulk_bytes;
  result.bulk.start_ns = t0.nanos();
  result.bulk.done_ns = t1.nanos();
  // One sample: the whole transfer, so merged latency stats stay meaningful.
  result.rtt.Add(t1.QuantizeToClockTick() - t0.QuantizeToClockTick());
  sock->Close();
  result.completed = true;
  state->client_done[flow] = true;
  co_return;
}

// --- keystroke echo (telnet shape: 1-byte writes on a human clock) ----------

SimTask KeystrokeEchoProc(RunState* state, const FlowSpec* spec, size_t flow, uint16_t port) {
  Socket* listener = ListenFlow(state, spec, port);
  while (true) {
    Socket* conn = listener->Accept();
    if (conn != nullptr) {
      ApplyServerOptions(spec, conn);
      std::vector<uint8_t> buf(64);
      while (true) {
        const size_t n = conn->Read({buf.data(), buf.size()});
        if (n > 0) {
          size_t echoed = 0;
          while (echoed < n) {
            const size_t m = conn->Write({buf.data() + echoed, n - echoed});
            echoed += m;
            if (m == 0) {
              if (conn->has_error()) {
                state->server_done[flow] = true;
                co_return;
              }
              co_await conn->WaitWritable();
            }
          }
        } else {
          if (conn->eof() || conn->has_error()) {
            state->server_done[flow] = true;
            co_return;
          }
          co_await conn->WaitReadable();
        }
      }
    }
    co_await listener->WaitAcceptable();
  }
}

// Runs beside the keystroke sender on the same host, stamping each echoed
// byte's arrival; the sender is open-loop and never blocks on the echo.
SimTask KeystrokeReaderProc(RunState* state, const FlowSpec* spec, size_t flow, Socket* sock) {
  Host& host = state->hosts->client_host(spec->client);
  FlowResult& result = state->results[flow];
  std::vector<uint8_t> buf(64);
  uint64_t got = 0;
  const uint64_t total = static_cast<uint64_t>(spec->keystrokes);
  while (got < total) {
    const size_t n = sock->Read({buf.data(), buf.size()});
    if (n > 0) {
      // Every byte of this read became readable at the same instant (one
      // segment arrival); stamping them identically is exact, not sloppy.
      const int64_t now = host.CurrentTime().nanos();
      for (size_t i = 0; i < n; ++i) {
        state->stream_recv_ts[flow].push_back(now);
      }
      got += n;
    } else {
      if (sock->eof() || sock->has_error()) {
        result.aborted = true;
        state->client_done[flow] = true;
        co_return;
      }
      co_await sock->WaitReadable();
    }
  }
  sock->Close();
  result.completed = true;
  state->client_done[flow] = true;
  co_return;
}

SimTask KeystrokeClientProc(RunState* state, const FlowSpec* spec, size_t flow,
                            uint16_t port) {
  Host& host = state->hosts->client_host(spec->client);
  if (spec->start_delay.nanos() > 0) {
    co_await host.SleepFor(spec->start_delay);
  }
  Socket* sock = ConnectFlow(state, spec, port);
  if (spec->client_nodelay.has_value()) {
    sock->SetNodelay(*spec->client_nodelay);
  }
  while (!sock->connected() && !sock->has_error()) {
    co_await sock->WaitConnected();
  }
  TCPLAT_CHECK(!sock->has_error()) << "flow " << flow << " failed to connect";

  host.Spawn("keystroke-reader", KeystrokeReaderProc(state, spec, flow, sock));

  for (int k = 0; k < spec->keystrokes; ++k) {
    uint8_t ch = static_cast<uint8_t>('a' + (k % 26));
    const SimTime t0 = host.CurrentTime();
    BeginInterval(state, flow, t0);
    state->stream_send_ts[flow].push_back(t0.nanos());
    while (sock->Write({&ch, 1}) == 0) {
      TCPLAT_CHECK(!sock->has_error()) << "flow " << flow << " error mid-typing";
      co_await sock->WaitWritable();
    }
    EndInterval(state, flow, host.CurrentTime());
    if (spec->keystroke_interval.nanos() > 0 && k + 1 < spec->keystrokes) {
      co_await host.SleepFor(spec->keystroke_interval);
    }
  }
  co_return;  // the reader closes the socket and marks the flow done
}

}  // namespace

WorkloadResult RunWorkload(WorkloadHosts& hosts, const std::vector<FlowSpec>& specs,
                           const WorkloadOptions& options) {
  TCPLAT_CHECK(!specs.empty());
  for (const FlowSpec& spec : specs) {
    TCPLAT_CHECK_GT(spec.size, 0u);
    TCPLAT_CHECK_GT(spec.request_bytes(), 0u);
    TCPLAT_CHECK_GT(spec.iterations, 0);
    TCPLAT_CHECK_GE(spec.client, 0);
    TCPLAT_CHECK_LT(spec.client, hosts.clients());
    TCPLAT_CHECK_GE(spec.server, 0);
    TCPLAT_CHECK_LT(spec.server, hosts.servers());
  }

  RunState state;
  state.hosts = &hosts;
  state.options = &options;
  state.results.resize(specs.size());
  state.server_done.assign(specs.size(), 0);
  state.client_done.assign(specs.size(), 0);
  state.intervals.resize(specs.size());
  state.stream_send_ts.resize(specs.size());
  state.stream_recv_ts.resize(specs.size());
  for (size_t f = 0; f < specs.size(); ++f) {
    state.results[f].iterations = specs[f].keystrokes > 0
                                      ? static_cast<uint64_t>(specs[f].keystrokes)
                                      : static_cast<uint64_t>(specs[f].iterations);
  }

  // Reset protocol statistics so each run reports its own numbers.
  for (int i = 0; i < hosts.clients(); ++i) {
    hosts.client_tcp(i).stats() = TcpStats{};
  }
  for (int j = 0; j < hosts.servers(); ++j) {
    hosts.server_tcp(j).stats() = TcpStats{};
  }
  hosts.ResetTrackers();

  // All servers first, then all clients: a listener must exist before its
  // SYN can arrive.
  for (size_t f = 0; f < specs.size(); ++f) {
    const FlowSpec* spec = &specs[f];
    const uint16_t port = static_cast<uint16_t>(kEchoPort + f);
    Host& server = hosts.server_host(spec->server);
    if (spec->bulk_bytes > 0) {
      server.Spawn("bulk-sink", BulkSinkProc(&state, spec, f, port));
    } else if (spec->keystrokes > 0) {
      server.Spawn("keystroke-echo", KeystrokeEchoProc(&state, spec, f, port));
    } else if (spec->streaming) {
      server.Spawn("stream-sink", StreamSinkProc(&state, spec, f, port));
    } else {
      server.Spawn("echo-server", EchoServerProc(&state, spec, f, port));
    }
  }
  for (size_t f = 0; f < specs.size(); ++f) {
    const FlowSpec* spec = &specs[f];
    const uint16_t port = static_cast<uint16_t>(kEchoPort + f);
    Host& client = hosts.client_host(spec->client);
    if (spec->bulk_bytes > 0) {
      client.Spawn("bulk-client", BulkClientProc(&state, spec, f, port));
    } else if (spec->keystrokes > 0) {
      client.Spawn("keystroke-client", KeystrokeClientProc(&state, spec, f, port));
    } else if (spec->streaming) {
      client.Spawn("stream-client", StreamClientProc(&state, spec, f, port));
    } else {
      client.Spawn("echo-client", EchoClientProc(&state, spec, f, port));
    }
  }

  hosts.sim().RunToCompletion();

  WorkloadResult result;
  result.flows = std::move(state.results);
  result.per_client.resize(static_cast<size_t>(hosts.clients()));
  for (size_t f = 0; f < specs.size(); ++f) {
    FlowResult& flow = result.flows[f];
    if (specs[f].streaming || specs[f].keystrokes > 0) {
      // Pair each measured append's (or keystroke's) send entry with its
      // delivery-side stamp; recorded on separate coroutines, joined only
      // after the run.
      const auto& send_ts = state.stream_send_ts[f];
      const auto& recv_ts = state.stream_recv_ts[f];
      for (size_t i = static_cast<size_t>(std::max(specs[f].warmup, 0));
           i < send_ts.size() && i < recv_ts.size(); ++i) {
        flow.rtt.Add(SimTime::FromNanos(recv_ts[i]).QuantizeToClockTick() -
                     SimTime::FromNanos(send_ts[i]).QuantizeToClockTick());
      }
      flow.completed = flow.completed && recv_ts.size() == send_ts.size();
    }
    if (specs[f].tolerate_errors) {
      // A one-sided death can leave the peer parked on a wait channel with
      // no events pending; that is an aborted flow, not a harness bug.
      flow.aborted = flow.aborted || !state.client_done[f] || !state.server_done[f];
      if (flow.aborted) {
        flow.completed = false;
      }
    } else {
      TCPLAT_CHECK(state.client_done[f]) << "flow " << f << " client did not finish";
      TCPLAT_CHECK(state.server_done[f]) << "flow " << f << " server did not finish";
    }
    result.rtt.Merge(flow.rtt);
    result.per_client[static_cast<size_t>(specs[f].client)].Merge(flow.rtt);
    result.completed += flow.completed ? 1 : 0;
    result.aborted += flow.aborted ? 1 : 0;
    result.data_mismatches += flow.data_mismatches;
  }
  result.max_concurrent = SweepMaxConcurrent(state);
  return result;
}

RpcResult RunRpcBenchmark(Testbed& testbed, const RpcOptions& options) {
  FlowSpec spec;
  spec.size = options.size;
  spec.iterations = options.iterations;
  spec.warmup = options.warmup;
  spec.verify_data = options.verify_data;
  spec.tolerate_errors = options.tolerate_errors;
  WorkloadResult run = RunWorkload(testbed, {spec});
  FlowResult& flow = run.flows[0];

  RpcResult result;
  result.rtt = std::move(flow.rtt);
  result.iterations = flow.iterations;
  result.aborted = flow.aborted;
  result.data_mismatches = flow.data_mismatches;
  for (size_t i = 0; i < result.spans.size(); ++i) {
    result.spans[i] = testbed.SpanTotal(static_cast<SpanId>(i));
  }
  result.client_tcp = testbed.client_tcp().stats();
  result.server_tcp = testbed.server_tcp().stats();
  return result;
}

}  // namespace tcplat
