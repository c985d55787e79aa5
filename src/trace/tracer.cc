#include "src/trace/tracer.h"

#include <cinttypes>
#include <cstddef>
#include <cstdio>
#include <map>
#include <utility>

#include "src/base/check.h"

namespace tcplat {
namespace {

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

// The flat-CSV schema: one header line, one row per event.
constexpr std::string_view kTraceCsvHeader =
    "ts_ns,host,layer,kind,span,dur_ns,self_ns,flow,packet,bytes\n";

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

std::string Tracer::ToCsv() const {
  std::string out(kTraceCsvHeader);
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
