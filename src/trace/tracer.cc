#include "src/trace/tracer.h"

#include <algorithm>
#include <cinttypes>
#include <cstddef>
#include <cstdio>
#include <map>
#include <utility>

#include "src/base/check.h"
#include "src/trace/causal_graph.h"

namespace tcplat {
namespace {

// Chains buffered past this while awaiting a flow verdict spill their oldest
// events; ordinary syscall/softint chains decide within a few dozen events.
constexpr size_t kMaxDeferredPerHost = 512;

// splitmix64 finalizer: a cheap, well-mixed 64-bit permutation, so flow ids
// that differ in one bit land in independent sample buckets.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Perfetto timestamps are microseconds; emit them as exact fixed-point
// strings (ns resolution) so traces are byte-stable across platforms.
void AppendMicros(std::string* out, int64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%" PRId64 ".%03" PRId64, ns / 1000, ns % 1000);
  out->append(buf);
}

void AppendEscaped(std::string* out, std::string_view s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
    }
    out->push_back(c);
  }
}

// Track (Perfetto tid) layout within each host's process.
constexpr int kTidSpans = 0;      // nested B/E charge-attributed spans
constexpr int kTidIntervals = 1;  // wall-interval spans (X events)
constexpr int kTidPackets = 2;    // packet-lifecycle instants
constexpr int kTidFlowBase = 3;   // per-flow tracks, first-appearance order

// Congestion-era kinds render on their owning flow's track (one tid per
// (host, flow), allocated past the reserved tracks) so a flow's cwnd
// changes, fast retransmits and SACK arrivals line up on one timeline.
bool IsFlowTrackKind(TraceEventKind kind) {
  return kind == TraceEventKind::kCwndChange || kind == TraceEventKind::kFastRetransmit ||
         kind == TraceEventKind::kSackBlock;
}

// Name tables are indexed by enum value, one entry per enumerator, so a new
// layer/kind without a name is a compile error instead of an empty string in
// CSV/Perfetto exports.
constexpr std::array<std::string_view, static_cast<size_t>(TraceLayer::kCount)> kLayerNames = {
    "sock", "tcp", "ip", "atm", "ether", "link", "sched"};

constexpr std::array<std::string_view, static_cast<size_t>(TraceEventKind::kCount)> kKindNames = {
    "span.begin", "span.end", "span.interval", "span.reset",
    "user.write", "user.read", "wakeup",
    "seg.tx", "seg.rx", "retransmit", "ack", "delayed.ack", "listen.overflow",
    "checksum.error", "drop",
    "enqueue", "dequeue", "pkt.tx", "pkt.rx",
    "pdu.tx", "pdu.rx", "cell.drop", "tx.stall", "cell.switch",
    "frame.tx", "frame.rx",
    "impair.drop", "impair.dup", "impair.delay",
    "nagle.hold",
    "cwnd.change", "fast.retransmit", "sack.block"};

template <size_t N>
constexpr bool AllDistinctNonEmpty(const std::array<std::string_view, N>& names) {
  for (size_t i = 0; i < N; ++i) {
    if (names[i].empty()) return false;
    for (size_t j = i + 1; j < N; ++j) {
      if (names[i] == names[j]) return false;
    }
  }
  return true;
}
static_assert(AllDistinctNonEmpty(kLayerNames), "every TraceLayer needs a unique name");
static_assert(AllDistinctNonEmpty(kKindNames), "every TraceEventKind needs a unique name");

// One trace_event object for `ev`, no separators. `packet_tid` places
// instant events (the default case): the shared packets track normally, a
// per-flow track for congestion-era kinds.
void AppendEventJson(std::string* out, const TraceEvent& ev, int packet_tid) {
  char buf[256];
  const int pid = ev.host;
  switch (ev.kind) {
    case TraceEventKind::kSpanBegin:
      std::snprintf(buf, sizeof(buf), "{\"name\":\"%s\",\"ph\":\"B\",\"pid\":%d,\"tid\":%d,\"ts\":",
                    std::string(SpanName(ev.span)).c_str(), pid, kTidSpans);
      *out += buf;
      AppendMicros(out, ev.ts_ns);
      *out += "}";
      break;
    case TraceEventKind::kSpanEnd:
      std::snprintf(buf, sizeof(buf), "{\"name\":\"%s\",\"ph\":\"E\",\"pid\":%d,\"tid\":%d,\"ts\":",
                    std::string(SpanName(ev.span)).c_str(), pid, kTidSpans);
      *out += buf;
      AppendMicros(out, ev.ts_ns);
      std::snprintf(buf, sizeof(buf), ",\"args\":{\"self_ns\":%" PRId64 "}}", ev.self_ns);
      *out += buf;
      break;
    case TraceEventKind::kSpanInterval:
      std::snprintf(buf, sizeof(buf), "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":",
                    std::string(SpanName(ev.span)).c_str(), pid, kTidIntervals);
      *out += buf;
      AppendMicros(out, ev.ts_ns - ev.dur_ns);
      *out += ",\"dur\":";
      AppendMicros(out, ev.dur_ns);
      *out += "}";
      break;
    case TraceEventKind::kSpanReset:
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"span.reset\",\"ph\":\"i\",\"s\":\"t\",\"pid\":%d,\"tid\":%d,"
                    "\"ts\":",
                    pid, kTidSpans);
      *out += buf;
      AppendMicros(out, ev.ts_ns);
      *out += "}";
      break;
    default:
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"%s.%s\",\"ph\":\"i\",\"s\":\"t\",\"pid\":%d,\"tid\":%d,\"ts\":",
                    std::string(TraceLayerName(ev.layer)).c_str(),
                    std::string(TraceEventKindName(ev.kind)).c_str(), pid, packet_tid);
      *out += buf;
      AppendMicros(out, ev.ts_ns);
      std::snprintf(buf, sizeof(buf),
                    ",\"args\":{\"flow\":%" PRIu64 ",\"packet\":%" PRIu64 ",\"bytes\":%" PRIu64
                    ",\"dur_ns\":%" PRId64 "}}",
                    ev.flow, ev.packet, ev.bytes, ev.dur_ns);
      *out += buf;
      break;
  }
}

// Process/track-name metadata prologue.
void AppendProcessMetadata(std::string* out, const std::vector<std::string>& host_names,
                           bool* first) {
  char buf[256];
  for (size_t pid = 0; pid < host_names.size(); ++pid) {
    if (!*first) *out += ",\n";
    *first = false;
    *out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
    *out += std::to_string(pid);
    *out += ",\"args\":{\"name\":\"";
    AppendEscaped(out, host_names[pid]);
    *out += "\"}}";
    static constexpr std::string_view kTrackNames[] = {"spans", "intervals", "packets"};
    for (int tid = 0; tid < 3; ++tid) {
      if (!*first) *out += ",\n";
      *first = false;
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%zu,\"tid\":%d,"
                    "\"args\":{\"name\":\"%s\"}}",
                    pid, tid, std::string(kTrackNames[tid]).c_str());
      *out += buf;
    }
  }
}

}  // namespace

std::string_view TraceLayerName(TraceLayer layer) {
  const auto i = static_cast<size_t>(layer);
  return i < kLayerNames.size() ? kLayerNames[i] : "?";
}

std::string_view TraceEventKindName(TraceEventKind kind) {
  const auto i = static_cast<size_t>(kind);
  return i < kKindNames.size() ? kKindNames[i] : "?";
}

Tracer::Tracer() = default;
Tracer::~Tracer() = default;

uint8_t Tracer::RegisterHost(std::string name) {
  TCPLAT_CHECK_LT(host_names_.size(), 255u) << "too many traced hosts";
  host_names_.push_back(std::move(name));
  return static_cast<uint8_t>(host_names_.size() - 1);
}

void Tracer::EnableFlowSampling(const FlowSampleConfig& config) {
  TCPLAT_CHECK(events_.empty()) << "flow sampling must be enabled before recording starts";
  TCPLAT_CHECK_GE(config.one_in, 1u);
  sampling_ = true;
  sample_ = config;
}

void Tracer::EnableFlowReservoir(uint32_t k, uint64_t seed) {
  TCPLAT_CHECK(!sampling_) << "reservoir and 1-in-N flow sampling are mutually exclusive";
  TCPLAT_CHECK(events_.empty()) << "reservoir must be enabled before recording starts";
  TCPLAT_CHECK_GE(k, 1u);
  sampling_ = true;  // routes commits through the chain-verdict machinery
  reservoir_k_ = k;
  sample_.one_in = 1;  // KeepFlow decides via the reservoir, not the bucket
  sample_.seed = seed;
}

void Tracer::EnableTimeseries(const TimeseriesConfig& config) {
  timeseries_ = std::make_unique<TimeseriesSampler>(config);
}

std::vector<TimeseriesPoint> Tracer::SortedTimeseriesPoints() const {
  if (timeseries_ == nullptr) {
    return {};
  }
  std::vector<TimeseriesPoint> points = timeseries_->points();
  SortTimeseriesPoints(&points);
  return points;
}

std::string Tracer::TimelineCsv() const {
  return TimeseriesToCsv(SortedTimeseriesPoints(), host_names_);
}

size_t Tracer::ApproxMemoryBytes() const {
  size_t bytes = (events_.size() + deferred_events_) * sizeof(TraceEvent);
  if (timeseries_ != nullptr) {
    bytes += timeseries_->ApproxMemoryBytes();
  }
  return bytes;
}

size_t Tracer::peak_memory_bytes() const {
  return std::max(peak_bytes_, ApproxMemoryBytes());
}

void Tracer::NotePeak() { peak_bytes_ = std::max(peak_bytes_, ApproxMemoryBytes()); }

void Tracer::Clear() {
  events_.clear();
  sample_hosts_.clear();
  deferred_events_ = 0;
  flows_seen_.clear();
  flows_kept_.clear();
  reservoir_.clear();
  if (timeseries_ != nullptr) {
    timeseries_->Clear();
  }
  peak_bytes_ = 0;
}

bool Tracer::KeepFlow(uint64_t raw_flow) {
  const uint64_t canonical = CanonicalFlow(raw_flow);
  flows_seen_.insert(canonical);
  if (reservoir_k_ > 0) {
    // Bottom-K sketch: a flow is kept while its seeded hash rank is among
    // the K smallest seen so far. Once the reservoir is full, every insert
    // evicts the worst rank; evicted flows' events are pruned at finalize.
    const std::pair<uint64_t, uint64_t> entry = {Mix64(canonical ^ Mix64(sample_.seed)),
                                                 canonical};
    const auto [it, inserted] = reservoir_.insert(entry);
    if (reservoir_.size() > reservoir_k_) {
      const auto worst = std::prev(reservoir_.end());
      flows_kept_.erase(worst->second);
      const bool rejected_self = worst == it;
      reservoir_.erase(worst);
      if (rejected_self) {
        return false;
      }
    }
    flows_kept_.insert(canonical);
    return true;
  }
  const bool keep =
      sample_.one_in <= 1 || Mix64(canonical ^ Mix64(sample_.seed)) % sample_.one_in == 0;
  if (keep) {
    flows_kept_.insert(canonical);
  }
  return keep;
}

void Tracer::FinalizeReservoir() {
  if (reservoir_k_ == 0) {
    return;
  }
  // Evicted flows were captured while they transiently held a reservoir
  // slot; prune their flow-identified events so the surviving capture
  // covers exactly the final bottom-K set. Flow-agnostic causal anchors
  // (queue hand-offs, reassembly, drops) are kept for every packet, same
  // as 1-in-N sampling.
  const auto pruned = [this](const TraceEvent& ev) {
    const bool flow_kind =
        IsFlowTrackKind(ev.kind) || ev.kind == TraceEventKind::kUserWrite ||
        ev.kind == TraceEventKind::kUserRead || ev.kind == TraceEventKind::kSegTx ||
        ev.kind == TraceEventKind::kSegRx || ev.kind == TraceEventKind::kRetransmit ||
        ev.kind == TraceEventKind::kAck || ev.kind == TraceEventKind::kDelayedAck ||
        ev.kind == TraceEventKind::kNagleHold ||
        (ev.kind == TraceEventKind::kWakeup && ev.layer == TraceLayer::kSock);
    if (!flow_kind || ev.flow == 0) {
      return false;
    }
    return flows_kept_.count(CanonicalFlow(ev.flow)) == 0;
  };
  events_.erase(std::remove_if(events_.begin(), events_.end(), pruned), events_.end());
}

void Tracer::ResolveDeferred(size_t host, bool keep) {
  SampleHostState& st = sample_hosts_[host];
  if (st.deferred.empty()) {
    return;
  }
  NotePeak();  // the buffered events are about to drain; record them first
  if (keep) {
    events_.insert(events_.end(), st.deferred.begin(), st.deferred.end());
  }
  deferred_events_ -= st.deferred.size();
  st.deferred.clear();
}

void Tracer::CommitSampled(const TraceEvent& ev) {
  // Per-host chain machine: a chain start resets the verdict to undecided
  // and buffering begins; the chain's first flow-identifying event settles
  // keep/drop for the buffered prefix and the rest of the chain. Sound for
  // the same reason the causal graph is: a host's CPU runs each activation
  // chain to completion, so buffered events can only belong to the chain
  // being decided.
  if (ev.host >= sample_hosts_.size()) {
    sample_hosts_.resize(static_cast<size_t>(ev.host) + 1);
  }
  SampleHostState& st = sample_hosts_[ev.host];

  switch (ev.kind) {
    // Flow-agnostic chain anchors and anomalies, kept for every packet so
    // the causal linker's FIFO pairing (reassembly -> ipintrq -> dequeue)
    // stays exact and drop diagnostics stay complete. kDequeue/kPduRx/
    // kFrameRx also start a receive chain: the verdict resets to undecided.
    case TraceEventKind::kDequeue:
      events_.push_back(ev);
      if (ev.layer == TraceLayer::kIp) {
        ResolveDeferred(ev.host, false);
        st.keep = -1;
      }
      return;
    case TraceEventKind::kPduRx:
    case TraceEventKind::kFrameRx:
      events_.push_back(ev);
      ResolveDeferred(ev.host, false);
      st.keep = -1;
      return;
    case TraceEventKind::kSpanReset:
    case TraceEventKind::kEnqueue:
    case TraceEventKind::kCellDrop:
    case TraceEventKind::kListenOverflow:
    case TraceEventKind::kChecksumError:
    case TraceEventKind::kDrop:
    case TraceEventKind::kImpairDrop:
    case TraceEventKind::kImpairDup:
    case TraceEventKind::kImpairDelay:
      events_.push_back(ev);
      return;

    // Per-cell switch hops identify host pairs (VCI), not flows, and no
    // consumer reads them; they are the bulk of a trace, so sampled runs
    // shed them entirely.
    case TraceEventKind::kCellSwitch:
      return;

    // Flow-identifying events: settle the chain verdict.
    case TraceEventKind::kUserWrite:
    case TraceEventKind::kUserRead:
    case TraceEventKind::kSegTx:
    case TraceEventKind::kSegRx:
    case TraceEventKind::kRetransmit:
    case TraceEventKind::kAck:
    case TraceEventKind::kDelayedAck:
    case TraceEventKind::kNagleHold:
    case TraceEventKind::kCwndChange:
    case TraceEventKind::kFastRetransmit:
    case TraceEventKind::kSackBlock:
      if (ev.flow != 0) {
        const bool keep = KeepFlow(ev.flow);
        st.keep = keep ? 1 : 0;
        ResolveDeferred(ev.host, keep);
        if (keep) {
          events_.push_back(ev);
        }
        return;
      }
      break;
    case TraceEventKind::kWakeup:
      if (ev.layer == TraceLayer::kSock && ev.flow != 0) {
        const bool keep = KeepFlow(ev.flow);
        st.keep = keep ? 1 : 0;
        ResolveDeferred(ev.host, keep);
        if (keep) {
          events_.push_back(ev);
        }
        return;
      }
      break;

    // Top-level syscall entries start a transmit/receive chain.
    case TraceEventKind::kSpanBegin:
      if (ev.span == SpanId::kTxUser || ev.span == SpanId::kRxUser) {
        ResolveDeferred(ev.host, false);  // prior chain ended undecided
        st.keep = -1;
      }
      break;

    default:
      break;
  }

  // Chain-follow events ride the current verdict; undecided chains buffer.
  if (st.keep == 1) {
    events_.push_back(ev);
  } else if (st.keep == -1) {
    if (st.deferred.size() >= kMaxDeferredPerHost) {
      st.deferred.pop_front();
      --deferred_events_;
    }
    st.deferred.push_back(ev);
    ++deferred_events_;
  }
}

std::array<int64_t, static_cast<size_t>(SpanId::kCount)> Tracer::SpanSelfTotalsNanos(
    uint8_t host) const {
  std::array<int64_t, static_cast<size_t>(SpanId::kCount)> totals{};
  for (const TraceEvent& ev : events_) {
    if (ev.host != host) {
      continue;
    }
    switch (ev.kind) {
      case TraceEventKind::kSpanReset:
        totals.fill(0);
        break;
      case TraceEventKind::kSpanEnd:
        totals[static_cast<size_t>(ev.span)] += ev.self_ns;
        break;
      case TraceEventKind::kSpanInterval:
        totals[static_cast<size_t>(ev.span)] += ev.dur_ns;
        break;
      default:
        break;
    }
  }
  return totals;
}

std::string Tracer::ToPerfettoJson() const {
  std::string out;
  out.reserve(128 + events_.size() * 96);
  out += "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  bool first = true;
  char buf[256];
  AppendProcessMetadata(&out, host_names_, &first);

  // Per-flow tracks for the congestion-era kinds: tids allocated per host in
  // first-appearance order (deterministic — events_ is already in canonical
  // order), named after the flow's port pair.
  std::map<std::pair<uint8_t, uint64_t>, int> flow_tids;
  std::vector<int> next_tid(host_names_.size(), kTidFlowBase);
  for (const TraceEvent& ev : events_) {
    if (!IsFlowTrackKind(ev.kind) || ev.flow == 0 || ev.host >= next_tid.size()) {
      continue;
    }
    if (flow_tids.emplace(std::make_pair(ev.host, ev.flow), next_tid[ev.host]).second) {
      if (!first) out += ",\n";
      first = false;
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,"
                    "\"args\":{\"name\":\"flow %u:%u\"}}",
                    static_cast<int>(ev.host), next_tid[ev.host],
                    static_cast<unsigned>((ev.flow >> 16) & 0xffff),
                    static_cast<unsigned>(ev.flow & 0xffff));
      out += buf;
      ++next_tid[ev.host];
    }
  }

  for (const TraceEvent& ev : events_) {
    if (!first) out += ",\n";
    first = false;
    int tid = kTidPackets;
    if (IsFlowTrackKind(ev.kind) && ev.flow != 0) {
      const auto it = flow_tids.find(std::make_pair(ev.host, ev.flow));
      if (it != flow_tids.end()) {
        tid = it->second;
      }
    }
    AppendEventJson(&out, ev, tid);
  }

  // Timeseries plane: periodic points become Perfetto counter tracks ("C",
  // one counter per (host, metric, key)); edge-only points become instants,
  // landing on the owning flow's track when one exists (RTO fires and loss
  // transitions line up under the flow's cwnd changes).
  for (const TimeseriesPoint& p : SortedTimeseriesPoints()) {
    if (!first) out += ",\n";
    first = false;
    const TsMetric metric = static_cast<TsMetric>(p.metric);
    char key_label[48];
    if (metric >= TsMetric::kVcOccupancy && metric <= TsMetric::kVcDropsCum) {
      std::snprintf(key_label, sizeof(key_label), "vc%" PRIu64, p.key);
    } else if (metric == TsMetric::kFlowGoodputBps || metric == TsMetric::kFlowInflightBytes) {
      std::snprintf(key_label, sizeof(key_label), "flow%" PRIu64, p.key);
    } else {
      std::snprintf(key_label, sizeof(key_label), "f%u:%u",
                    static_cast<unsigned>((p.key >> 16) & 0xffff),
                    static_cast<unsigned>(p.key & 0xffff));
    }
    const bool instant = metric >= TsMetric::kTcpLossEnter;
    if (instant) {
      int tid = kTidPackets;
      const auto it = flow_tids.find(std::make_pair(p.host, p.key));
      if (it != flow_tids.end()) {
        tid = it->second;
      }
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"%s %s\",\"ph\":\"i\",\"s\":\"t\",\"pid\":%d,\"tid\":%d,"
                    "\"ts\":",
                    TsMetricName(metric), key_label, static_cast<int>(p.host), tid);
      out += buf;
      AppendMicros(&out, p.ts_ns);
      std::snprintf(buf, sizeof(buf), ",\"args\":{\"value\":%" PRId64 "}}", p.value);
      out += buf;
    } else {
      std::snprintf(buf, sizeof(buf), "{\"name\":\"%s %s\",\"ph\":\"C\",\"pid\":%d,\"ts\":",
                    TsMetricName(metric), key_label, static_cast<int>(p.host));
      out += buf;
      AppendMicros(&out, p.ts_ns);
      std::snprintf(buf, sizeof(buf), ",\"args\":{\"value\":%" PRId64 "}}", p.value);
      out += buf;
    }
  }

  out += "\n]}\n";
  return out;
}

std::string_view TraceCsvHeader() {
  return "ts_ns,host,layer,kind,span,dur_ns,self_ns,flow,packet,bytes\n";
}

void AppendTraceCsvRow(const TraceEvent& ev, const std::vector<std::string>& host_names,
                       std::string* out) {
  char buf[256];
  const bool is_span = ev.kind == TraceEventKind::kSpanBegin ||
                       ev.kind == TraceEventKind::kSpanEnd ||
                       ev.kind == TraceEventKind::kSpanInterval;
  std::snprintf(buf, sizeof(buf),
                "%" PRId64 ",%s,%s,%s,%s,%" PRId64 ",%" PRId64 ",%" PRIu64 ",%" PRIu64
                ",%" PRIu64 "\n",
                ev.ts_ns, ev.host < host_names.size() ? host_names[ev.host].c_str() : "?",
                std::string(TraceLayerName(ev.layer)).c_str(),
                std::string(TraceEventKindName(ev.kind)).c_str(),
                is_span ? std::string(SpanName(ev.span)).c_str() : "",
                ev.dur_ns, ev.self_ns, ev.flow, ev.packet, ev.bytes);
  *out += buf;
}

std::string Tracer::ToCsv() const {
  std::string out(TraceCsvHeader());
  out.reserve(out.size() + events_.size() * 64);
  for (const TraceEvent& ev : events_) {
    AppendTraceCsvRow(ev, host_names_, &out);
  }
  return out;
}

bool WriteTextFile(const std::string& path, const std::string& contents) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::perror(path.c_str());
    return false;
  }
  const size_t written = std::fwrite(contents.data(), 1, contents.size(), f);
  const bool ok = written == contents.size() && std::fclose(f) == 0;
  if (!ok) {
    std::fprintf(stderr, "short write: %s\n", path.c_str());
  }
  return ok;
}

}  // namespace tcplat
