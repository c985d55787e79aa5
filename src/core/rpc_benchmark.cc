#include "src/core/rpc_benchmark.h"

#include <algorithm>
#include <compare>
#include <cstring>
#include <functional>
#include <limits>
#include <queue>

#include "src/base/check.h"
#include "src/os/task.h"

namespace tcplat {
namespace {

// Deterministic per-iteration payload so the client can verify the echo
// end-to-end (the application-level check of §4.2.1). Byte i is
// (i * 131 + iteration * 17 + 7) mod 256, which depends only on i mod 256,
// so the loop steps an 8-bit value and vectorizes in byte lanes.
void FillPattern(std::vector<uint8_t>& buf, int iteration) {
  uint8_t value = static_cast<uint8_t>(iteration * 17 + 7);
  for (uint8_t& b : buf) {
    b = value;
    value = static_cast<uint8_t>(value + 131);
  }
}

// One end of a round trip. The concurrency sweep counts endpoints in this
// order: by time, then leaves before enters (so a flow whose next round trip
// starts the instant its last one ended never counts twice, keeping the
// closed-loop invariant max <= population), then by flow.
struct Endpoint {
  int64_t t;
  bool enter;
  size_t flow;

  auto operator<=>(const Endpoint&) const = default;
};

struct RunState {
  WorkloadHosts* hosts = nullptr;
  const WorkloadOptions* options = nullptr;
  std::vector<FlowResult> results;
  std::vector<uint8_t> server_done;
  std::vector<uint8_t> client_done;
  std::vector<uint8_t> in_round_trip;  // per flow: inside a round trip now
  // max_concurrent, swept online: endpoints wait here until the clock
  // passes them, then count in Endpoint order. `settled` is the last one
  // counted.
  std::priority_queue<Endpoint, std::vector<Endpoint>, std::greater<>> pending;
  Endpoint settled{std::numeric_limits<int64_t>::min(), false, 0};
  size_t concurrent = 0;
  size_t max_concurrent = 0;
};

// Counts every pending endpoint earlier than `before`.
void Settle(RunState* state, int64_t before) {
  while (!state->pending.empty() && state->pending.top().t < before) {
    state->settled = state->pending.top();
    state->pending.pop();
    if (state->settled.enter) {
      state->max_concurrent = std::max(state->max_concurrent, ++state->concurrent);
    } else {
      --state->concurrent;
    }
  }
}

// Queues an endpoint and counts every one the clock has passed. Each is
// stamped with its host's CurrentTime(), which is never before the clock,
// so one still to come can tie with the clock but not fall behind it, and
// none sorts ahead of an endpoint already counted. The check enforces that.
void AddEndpoint(RunState* state, const Endpoint& p) {
  TCPLAT_CHECK(p >= state->settled)
      << "flow " << p.flow << " stamped a round-trip end at " << p.t
      << " ns, before the settled frontier at " << state->settled.t << " ns";
  state->pending.push(p);
  Settle(state, state->hosts->sim().Now().nanos());
}

void BeginInterval(RunState* state, size_t flow, SimTime t0) {
  state->in_round_trip[flow] = true;
  AddEndpoint(state, {t0.nanos(), true, flow});
}

void EndInterval(RunState* state, size_t flow, SimTime t1) {
  state->in_round_trip[flow] = false;
  AddEndpoint(state, {t1.nanos(), false, flow});
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
// closes its open round-trip interval, if any, at `now`.
void AbortFlow(RunState* state, size_t flow, SimTime now) {
  state->results[flow].aborted = true;
  state->client_done[flow] = true;
  if (state->in_round_trip[flow]) {
    EndInterval(state, flow, now);
  }
}

void ApplyServerOptions(const FlowSpec* spec, Socket* conn) {
  if (spec->server_delack.has_value()) {
    conn->SetDelackEnabled(*spec->server_delack);
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

// Writes each request, reads its whole response, and records the round
// trip from the request's first write to the response's last byte.
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
  for (int iter = 0; iter < total; ++iter) {
    if (iter == spec->warmup && flow == 0 && state->options->reset_trackers_at_warmup) {
      // Start of the measured region: clear the layer accumulators, the
      // way the paper re-initializes its kernel counters.
      state->hosts->ResetTrackers();
    }
    FillPattern(out, iter);
    const SimTime t0 = host.CurrentTime();
    BeginInterval(state, flow, t0);
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
    EndInterval(state, flow, t1);
    if (iter >= spec->warmup) {
      result.rtt.Add(t1.QuantizeToClockTick() - t0.QuantizeToClockTick());
      if (spec->response_size == 0 && std::memcmp(in.data(), out.data(), out.size()) != 0) {
        ++result.data_mismatches;
      }
    }
    if (spec->think_time.nanos() > 0 && iter + 1 < total) {
      co_await host.SleepFor(spec->think_time);
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
  state.in_round_trip.assign(specs.size(), 0);
  for (size_t f = 0; f < specs.size(); ++f) {
    state.results[f].iterations = static_cast<uint64_t>(specs[f].iterations);
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
    } else {
      client.Spawn("echo-client", EchoClientProc(&state, spec, f, port));
    }
  }

  hosts.sim().RunToCompletion();
  Settle(&state, std::numeric_limits<int64_t>::max());

  WorkloadResult result;
  result.flows = std::move(state.results);
  for (size_t f = 0; f < specs.size(); ++f) {
    FlowResult& flow = result.flows[f];
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
    result.completed += flow.completed ? 1 : 0;
    result.aborted += flow.aborted ? 1 : 0;
    result.data_mismatches += flow.data_mismatches;
  }
  result.max_concurrent = state.max_concurrent;
  return result;
}

RpcResult RunRpcBenchmark(Testbed& testbed, const RpcOptions& options) {
  FlowSpec spec;
  spec.size = options.size;
  spec.iterations = options.iterations;
  spec.warmup = options.warmup;
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
