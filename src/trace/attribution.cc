#include "src/trace/attribution.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>

namespace tcplat {
namespace {

constexpr std::array<std::string_view, kBlameStageCount> kStageNames = {
    "cli.send",      "cli.ack_wait",    "cli.tx_drive", "net.request",
    "srv.ipq_wait",  "srv.tcp_input",   "srv.wakeup_read",
    "srv.send",      "srv.ack_wait",    "srv.tx_drive", "net.response",
    "cli.ipq_wait",  "cli.tcp_input",   "cli.wakeup_read",
    "unattributed"};

// The client end of a flow is the one with the higher port: ephemeral ports
// sit above every listen port in this simulator.
bool IsClientRaw(uint64_t raw_flow) {
  return ((raw_flow >> 16) & 0xFFFF) > (raw_flow & 0xFFFF);
}

struct WriteRec {
  int host = -1;
  int64_t begin_ns = 0;  // write-syscall entry (first kTxUser span begin)
  uint64_t bytes = 0;
};

struct ReadRec {
  int64_t ts_ns = 0;
  uint64_t bytes = 0;
};

struct FlowAcc {
  std::vector<WriteRec> client_writes;
  std::vector<WriteRec> server_writes;
  std::vector<ReadRec> client_reads;
  std::vector<int64_t> retransmit_ts;
  std::vector<int64_t> delack_ts;
  std::vector<int64_t> client_hold_ts;  // kNagleHold on the client sender
  std::vector<int64_t> server_hold_ts;  // kNagleHold on the server sender
};

// Message-boundary timestamps from a cumulative byte stream: entry i is the
// record where byte i*message began (for writes) or where cumulative bytes
// reached (i+1)*message (for reads). Partial writes/reads are folded by the
// cumulative count, so chunking does not shift boundaries.
std::vector<int64_t> MessageStarts(const std::vector<WriteRec>& writes, uint64_t message) {
  std::vector<int64_t> starts;
  uint64_t cum = 0;
  for (const WriteRec& w : writes) {
    if (cum % message == 0) {
      starts.push_back(w.begin_ns);
    }
    cum += w.bytes;
  }
  return starts;
}

std::vector<int64_t> MessageEnds(const std::vector<ReadRec>& reads, uint64_t message) {
  std::vector<int64_t> ends;
  uint64_t cum = 0;
  for (const ReadRec& r : reads) {
    cum += r.bytes;
    while (cum >= (ends.size() + 1) * message) {
      ends.push_back(r.ts_ns);
    }
  }
  return ends;
}

// Last delivered data journey with seg_tx in [lo, hi], or null. `js` is in
// seg_tx order.
const Journey* LastJourneyIn(const std::vector<const Journey*>& js, int64_t lo, int64_t hi) {
  const Journey* best = nullptr;
  for (const Journey* j : js) {
    if (j->seg_tx_ns > hi) {
      break;
    }
    if (j->seg_tx_ns >= lo) {
      best = j;
    }
  }
  return best;
}

int CountIn(const std::vector<int64_t>& ts, int64_t lo, int64_t hi) {
  auto first = std::lower_bound(ts.begin(), ts.end(), lo);
  auto last = std::upper_bound(ts.begin(), ts.end(), hi);
  return static_cast<int>(last - first);
}

// First timestamp in [lo, hi], or -1. `ts` is sorted.
int64_t FirstIn(const std::vector<int64_t>& ts, int64_t lo, int64_t hi) {
  auto it = std::lower_bound(ts.begin(), ts.end(), lo);
  return it != ts.end() && *it <= hi ? *it : -1;
}

// Fills w->stage_ns and w->tx_stall_ns from the window's two critical
// journeys (either may be null), the server write-entry anchor
// (`srv_begin`, -1 when unobserved), and the first sender-side hold
// (kNagleHold) timestamps on each side (`cli_hold`/`srv_hold`, -1 when no
// hold was observed — the ACK-wait stage is then zero); w->start_ns/end_ns
// must already be set.
void DecomposeWindow(const Journey* req, const Journey* rsp, int64_t srv_begin,
                     int64_t cli_hold, int64_t srv_hold, RttWindow* w) {
  w->stage_ns.fill(0);
  if (req == nullptr && rsp == nullptr) {
    w->stage_ns[static_cast<size_t>(BlameStage::kUnattributed)] = w->rtt_ns();
  } else {
    // Fifteen anchors -> fourteen telescoping stages. Missing anchors
    // forward-fill from their predecessor (a zero-length stage), so the
    // stages always sum to end - start exactly. The ack-wait anchors
    // default to the segment tx time (not a forward fill), so the
    // ACK-wait stage is exactly zero when no hold was observed.
    auto wake = [](const Journey* j) {
      return j->wakeup_ns >= 0 ? j->wakeup_ns : j->seg_rx_ns;
    };
    std::array<int64_t, 15> a;
    a[0] = w->start_ns;
    a[1] = req != nullptr ? (cli_hold >= 0 ? cli_hold : req->seg_tx_ns) : -1;
    a[2] = req != nullptr ? req->seg_tx_ns : -1;
    a[3] = req != nullptr ? req->link_tx_ns : -1;
    a[4] = req != nullptr ? req->link_rx_ns : -1;
    a[5] = req != nullptr ? req->dequeue_ns : -1;
    a[6] = req != nullptr ? wake(req) : -1;
    a[7] = srv_begin;
    a[8] = rsp != nullptr ? (srv_hold >= 0 ? srv_hold : rsp->seg_tx_ns) : -1;
    a[9] = rsp != nullptr ? rsp->seg_tx_ns : -1;
    a[10] = rsp != nullptr ? rsp->link_tx_ns : -1;
    a[11] = rsp != nullptr ? rsp->link_rx_ns : -1;
    a[12] = rsp != nullptr ? rsp->dequeue_ns : -1;
    a[13] = rsp != nullptr ? wake(rsp) : -1;
    a[14] = w->end_ns;
    for (size_t k = 1; k < a.size(); ++k) {
      a[k] = std::clamp(a[k], a[k - 1], w->end_ns);
    }
    for (size_t k = 0; k + 1 < a.size(); ++k) {
      w->stage_ns[k] = a[k + 1] - a[k];
    }
    // With only half a chain, the forward-fill dumps the missing half
    // into the stage after the gap; relabel it honestly.
    auto relabel = [w](BlameStage from) {
      w->stage_ns[static_cast<size_t>(BlameStage::kUnattributed)] +=
          w->stage_ns[static_cast<size_t>(from)];
      w->stage_ns[static_cast<size_t>(from)] = 0;
    };
    if (req == nullptr) {
      relabel(BlameStage::kSrvWakeupRead);
    }
    if (rsp == nullptr) {
      relabel(BlameStage::kCliWakeupRead);
    }
  }
  w->tx_stall_ns =
      (req != nullptr ? req->tx_stall_ns : 0) + (rsp != nullptr ? rsp->tx_stall_ns : 0);
}

}  // namespace

std::string_view BlameStageName(BlameStage stage) {
  const auto i = static_cast<size_t>(stage);
  return i < kStageNames.size() ? kStageNames[i] : "?";
}

AttributionResult AttributeRtts(const Tracer& tracer, const CausalGraph& graph,
                                const AttributionOptions& options) {
  AttributionResult result;
  if (options.message_bytes == 0) {
    return result;
  }

  // Pass 1: collect per-flow user-boundary records. The window start must be
  // the write-syscall *entry* (what a closed-loop driver timestamps), but
  // kUserWrite is emitted at syscall exit — so remember the first kTxUser
  // span begin on each host since the last kUserWrite and use its timestamp.
  std::vector<int64_t> pending_begin(tracer.host_names().size() + 1, -1);
  std::map<uint64_t, FlowAcc> flows;
  for (const TraceEvent& ev : tracer.events()) {
    if (ev.host >= pending_begin.size()) {
      pending_begin.resize(ev.host + 1, -1);
    }
    switch (ev.kind) {
      case TraceEventKind::kSpanBegin:
        if (ev.span == SpanId::kTxUser && pending_begin[ev.host] < 0) {
          pending_begin[ev.host] = ev.ts_ns;
        }
        break;
      case TraceEventKind::kUserWrite: {
        const int64_t begin = pending_begin[ev.host] >= 0 ? pending_begin[ev.host] : ev.ts_ns;
        pending_begin[ev.host] = -1;
        if (ev.flow == 0 || ev.bytes == 0) {
          break;
        }
        FlowAcc& acc = flows[CanonicalFlow(ev.flow)];
        WriteRec rec{static_cast<int>(ev.host), begin, ev.bytes};
        (IsClientRaw(ev.flow) ? acc.client_writes : acc.server_writes).push_back(rec);
        break;
      }
      case TraceEventKind::kUserRead:
        if (ev.flow != 0 && ev.bytes != 0 && IsClientRaw(ev.flow)) {
          flows[CanonicalFlow(ev.flow)].client_reads.push_back(ReadRec{ev.ts_ns, ev.bytes});
        }
        break;
      case TraceEventKind::kRetransmit:
        if (ev.flow != 0) {
          flows[CanonicalFlow(ev.flow)].retransmit_ts.push_back(ev.ts_ns);
        }
        break;
      case TraceEventKind::kDelayedAck:
        if (ev.flow != 0) {
          flows[CanonicalFlow(ev.flow)].delack_ts.push_back(ev.ts_ns);
        }
        break;
      case TraceEventKind::kNagleHold:
        if (ev.flow != 0) {
          FlowAcc& acc = flows[CanonicalFlow(ev.flow)];
          (IsClientRaw(ev.flow) ? acc.client_hold_ts : acc.server_hold_ts)
              .push_back(ev.ts_ns);
        }
        break;
      default:
        break;
    }
  }

  // Pass 2: per flow, pair message starts with message ends and decompose
  // each window along its two critical journeys.
  for (const auto& [cf, acc] : flows) {
    if (acc.client_writes.empty() || acc.client_reads.empty()) {
      continue;
    }
    const int client_host = acc.client_writes.front().host;
    const int server_host = acc.server_writes.empty() ? -1 : acc.server_writes.front().host;

    const std::vector<int64_t> starts = MessageStarts(acc.client_writes, options.message_bytes);
    const std::vector<int64_t> ends = MessageEnds(acc.client_reads, options.message_bytes);
    const std::vector<int64_t> srv_starts =
        MessageStarts(acc.server_writes, options.message_bytes);

    std::vector<const Journey*> cli_j;
    std::vector<const Journey*> srv_j;
    for (const Journey* j : graph.FlowJourneys(cf)) {
      if (!j->data() || !j->delivered()) {
        continue;
      }
      if (j->tx_host == client_host) {
        cli_j.push_back(j);
      } else if (j->tx_host == server_host) {
        srv_j.push_back(j);
      }
    }

    const size_t n = std::min(starts.size(), ends.size());
    for (size_t i = static_cast<size_t>(std::max(options.warmup_windows, 0)); i < n; ++i) {
      RttWindow w;
      w.flow = cf;
      w.client_host = client_host;
      w.server_host = server_host;
      w.start_ns = starts[i];
      w.end_ns = ends[i];

      const Journey* req = LastJourneyIn(cli_j, w.start_ns, w.end_ns);
      const Journey* rsp = LastJourneyIn(srv_j, w.start_ns, w.end_ns);
      const int64_t srv_begin = i < srv_starts.size() ? srv_starts[i] : -1;
      const int64_t cli_hold =
          req != nullptr ? FirstIn(acc.client_hold_ts, w.start_ns, req->seg_tx_ns) : -1;
      const int64_t srv_hold =
          rsp != nullptr ? FirstIn(acc.server_hold_ts, w.start_ns, rsp->seg_tx_ns) : -1;

      DecomposeWindow(req, rsp, srv_begin, cli_hold, srv_hold, &w);
      w.retransmits = CountIn(acc.retransmit_ts, w.start_ns, w.end_ns);
      w.delayed_acks = CountIn(acc.delack_ts, w.start_ns, w.end_ns);
      result.windows.push_back(w);
    }
  }
  return result;
}

BlameReport BuildBlame(const std::vector<RttWindow>& windows, double p_lo, double p_hi) {
  BlameReport report;
  report.p_lo = p_lo;
  report.p_hi = p_hi;
  if (windows.empty()) {
    return report;
  }

  std::vector<size_t> order(windows.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](size_t x, size_t y) {
    const RttWindow& a = windows[x];
    const RttWindow& b = windows[y];
    if (a.rtt_ns() != b.rtt_ns()) return a.rtt_ns() < b.rtt_ns();
    if (a.end_ns != b.end_ns) return a.end_ns < b.end_ns;
    return a.flow < b.flow;
  });

  // Nearest-rank selection, identical to LatencyStats::Percentile.
  auto pick = [&](double p) -> const RttWindow& {
    size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * windows.size()));
    if (rank > 0) {
      --rank;
    }
    return windows[order[std::min(rank, windows.size() - 1)]];
  };
  const RttWindow& lo = pick(p_lo);
  const RttWindow& hi = pick(p_hi);

  report.lo_rtt_ns = lo.rtt_ns();
  report.hi_rtt_ns = hi.rtt_ns();
  report.lo_stage_ns = lo.stage_ns;
  report.hi_stage_ns = hi.stage_ns;
  report.lo_retransmits = lo.retransmits;
  report.hi_retransmits = hi.retransmits;
  report.lo_delayed_acks = lo.delayed_acks;
  report.hi_delayed_acks = hi.delayed_acks;
  report.lo_tx_stall_ns = lo.tx_stall_ns;
  report.hi_tx_stall_ns = hi.tx_stall_ns;

  const int64_t gap = report.gap_ns();
  if (gap > 0) {
    const size_t u = static_cast<size_t>(BlameStage::kUnattributed);
    const double unexplained =
        static_cast<double>(std::abs(report.hi_stage_ns[u] - report.lo_stage_ns[u]));
    report.explained_pct = 100.0 * (1.0 - unexplained / static_cast<double>(gap));
  }
  return report;
}

}  // namespace tcplat
