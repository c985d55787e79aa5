#include "src/trace/binary_trace.h"

#include <cstddef>

namespace tcplat {
namespace {

// LEB128: 7 payload bits per byte, high bit = continuation.
void PutVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

// Zigzag folds sign into bit 0 so small negative deltas stay short.
uint64_t ZigzagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

int64_t ZigzagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

void PutZigzag(std::string* out, int64_t v) { PutVarint(out, ZigzagEncode(v)); }

bool GetVarint(std::string_view data, size_t* pos, uint64_t* out) {
  uint64_t v = 0;
  int shift = 0;
  while (*pos < data.size()) {
    const uint8_t byte = static_cast<uint8_t>(data[*pos]);
    ++*pos;
    if (shift >= 63 && byte > 1) {
      return false;  // would overflow 64 bits
    }
    v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *out = v;
      return true;
    }
    shift += 7;
  }
  return false;  // truncated
}

bool GetZigzag(std::string_view data, size_t* pos, int64_t* out) {
  uint64_t raw = 0;
  if (!GetVarint(data, pos, &raw)) return false;
  *out = ZigzagDecode(raw);
  return true;
}

bool GetByte(std::string_view data, size_t* pos, uint8_t* out) {
  if (*pos >= data.size()) return false;
  *out = static_cast<uint8_t>(data[*pos]);
  ++*pos;
  return true;
}

}  // namespace

std::string EncodeBinaryTrace(const Tracer& tracer) {
  const std::vector<TraceEvent>& events = tracer.events();
  std::string out;
  out.reserve(32 + events.size() * 16);
  out.append(kBinaryTraceMagic, sizeof(kBinaryTraceMagic));
  out.push_back(static_cast<char>(kBinaryTraceVersion & 0xff));
  out.push_back(static_cast<char>(kBinaryTraceVersion >> 8));
  PutVarint(&out, tracer.host_names().size());
  for (const std::string& name : tracer.host_names()) {
    PutVarint(&out, name.size());
    out += name;
  }
  PutVarint(&out, events.size());
  int64_t prev_ts = 0;
  for (const TraceEvent& ev : events) {
    PutZigzag(&out, ev.ts_ns - prev_ts);
    prev_ts = ev.ts_ns;
    out.push_back(static_cast<char>(ev.kind));
    out.push_back(static_cast<char>(ev.layer));
    out.push_back(static_cast<char>(ev.span));
    out.push_back(static_cast<char>(ev.host));
    PutVarint(&out, ev.flow);
    PutVarint(&out, ev.packet);
    PutVarint(&out, ev.bytes);
    PutZigzag(&out, ev.dur_ns);
    PutZigzag(&out, ev.self_ns);
  }
  return out;
}

BinaryTraceReader::BinaryTraceReader(std::string_view blob) {
  size_t pos = 0;
  if (blob.size() < sizeof(kBinaryTraceMagic) + 2) {
    Fail("stream shorter than header");
    return;
  }
  if (blob.compare(0, sizeof(kBinaryTraceMagic),
                   std::string_view(kBinaryTraceMagic, sizeof(kBinaryTraceMagic))) != 0) {
    Fail("bad magic");
    return;
  }
  pos = sizeof(kBinaryTraceMagic);
  const uint16_t version = static_cast<uint16_t>(static_cast<uint8_t>(blob[pos])) |
                           static_cast<uint16_t>(static_cast<uint8_t>(blob[pos + 1]) << 8);
  pos += 2;
  if (version != kBinaryTraceVersion) {
    Fail("unsupported version");
    return;
  }
  uint64_t host_count = 0;
  if (!GetVarint(blob, &pos, &host_count) || host_count > 255) {
    Fail("bad host table");
    return;
  }
  host_names_.reserve(host_count);
  for (uint64_t i = 0; i < host_count; ++i) {
    uint64_t len = 0;
    if (!GetVarint(blob, &pos, &len) || len > blob.size() - pos) {
      Fail("truncated host name");
      host_names_.clear();
      return;
    }
    host_names_.emplace_back(blob.substr(pos, len));
    pos += len;
  }
  if (!GetVarint(blob, &pos, &record_count_)) {
    Fail("truncated record count");
    return;
  }
  ok_ = true;
  records_ = blob.substr(pos);
  remaining_ = record_count_;
}

bool BinaryTraceReader::Fail(const char* message) {
  error_ = message;
  return false;
}

bool BinaryTraceReader::Next(TraceEvent* ev) {
  if (!ok_ || error_ != nullptr || remaining_ == 0) {
    return false;
  }
  int64_t ts_delta = 0;
  if (!GetZigzag(records_, &pos_, &ts_delta)) {
    return Fail("truncated timestamp delta");
  }
  uint8_t kind = 0, layer = 0, span = 0, host = 0;
  if (!GetByte(records_, &pos_, &kind) || !GetByte(records_, &pos_, &layer) ||
      !GetByte(records_, &pos_, &span) || !GetByte(records_, &pos_, &host)) {
    return Fail("truncated tag block");
  }
  if (kind >= static_cast<uint8_t>(TraceEventKind::kCount)) {
    return Fail("event kind out of range");
  }
  if (layer >= static_cast<uint8_t>(TraceLayer::kCount)) {
    return Fail("layer out of range");
  }
  if (span >= static_cast<uint8_t>(SpanId::kCount)) {
    return Fail("span id out of range");
  }
  if (host >= host_names_.size()) {
    return Fail("host id out of range");
  }
  uint64_t flow = 0, packet = 0, bytes = 0;
  int64_t dur = 0, self = 0;
  if (!GetVarint(records_, &pos_, &flow) || !GetVarint(records_, &pos_, &packet) ||
      !GetVarint(records_, &pos_, &bytes) || !GetZigzag(records_, &pos_, &dur) ||
      !GetZigzag(records_, &pos_, &self)) {
    return Fail("truncated record payload");
  }
  // Wrapping add: a corrupt delta must not overflow a signed integer.
  prev_ts_ = static_cast<int64_t>(static_cast<uint64_t>(prev_ts_) +
                                  static_cast<uint64_t>(ts_delta));
  ev->ts_ns = prev_ts_;
  ev->dur_ns = dur;
  ev->self_ns = self;
  ev->flow = flow;
  ev->packet = packet;
  ev->bytes = bytes;
  ev->kind = static_cast<TraceEventKind>(kind);
  ev->layer = static_cast<TraceLayer>(layer);
  ev->span = static_cast<SpanId>(span);
  ev->host = host;
  --remaining_;
  return true;
}

bool DecodeBinaryTrace(std::string_view blob, Tracer* out) {
  BinaryTraceReader reader(blob);
  if (!reader.ok()) return false;
  for (const std::string& name : reader.host_names()) {
    out->RegisterHost(name);
  }
  TraceEvent ev;
  while (reader.Next(&ev)) {
    out->Append(ev);
  }
  return !reader.error();
}

}  // namespace tcplat
