#include "src/trace/binary_trace.h"

#include <cstddef>

#include "src/base/check.h"

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

BinaryTraceWriter::~BinaryTraceWriter() {
  if (spill_file_ != nullptr) {
    std::fclose(spill_file_);
  }
}

void BinaryTraceWriter::Append(const TraceEvent& ev) {
  PutZigzag(&data_, ev.ts_ns - prev_ts_);
  prev_ts_ = ev.ts_ns;
  data_.push_back(static_cast<char>(ev.kind));
  data_.push_back(static_cast<char>(ev.layer));
  data_.push_back(static_cast<char>(ev.span));
  data_.push_back(static_cast<char>(ev.host));
  PutVarint(&data_, ev.flow);
  PutVarint(&data_, ev.packet);
  PutVarint(&data_, ev.bytes);
  PutZigzag(&data_, ev.dur_ns);
  PutZigzag(&data_, ev.self_ns);
  ++count_;
  MaybeSpill();
}

void BinaryTraceWriter::Clear() {
  std::string().swap(data_);
  prev_ts_ = 0;
  count_ = 0;
  if (spill_file_ != nullptr) {
    // Truncate the spill file so the writer restarts from an empty capture.
    std::FILE* reopened = std::freopen(spill_path_.c_str(), "wb", spill_file_);
    TCPLAT_CHECK(reopened != nullptr);
    spill_file_ = reopened;
    spilled_bytes_ = 0;
    spill_segments_ = 0;
  }
}

bool BinaryTraceWriter::EnableSpill(const std::string& path, size_t segment_bytes) {
  TCPLAT_CHECK(spill_file_ == nullptr);
  TCPLAT_CHECK(segment_bytes > 0);
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return false;
  }
  spill_file_ = file;
  spill_path_ = path;
  spill_segment_bytes_ = segment_bytes;
  MaybeSpill();  // the buffer may already be over the threshold
  return true;
}

void BinaryTraceWriter::MaybeSpill() {
  if (spill_file_ == nullptr || data_.size() < spill_segment_bytes_) {
    return;
  }
  const size_t written = std::fwrite(data_.data(), 1, data_.size(), spill_file_);
  TCPLAT_CHECK(written == data_.size());
  spilled_bytes_ += data_.size();
  ++spill_segments_;
  // swap with a fresh string (rather than clear()) so the capacity is
  // actually released — bounding memory is the whole point of spilling.
  std::string().swap(data_);
}

std::string BinaryTraceWriter::ConsolidatedRecords() const {
  if (spill_file_ == nullptr) {
    return data_;
  }
  TCPLAT_CHECK(std::fflush(spill_file_) == 0);
  std::string out;
  out.reserve(spilled_bytes_ + data_.size());
  std::FILE* in = std::fopen(spill_path_.c_str(), "rb");
  TCPLAT_CHECK(in != nullptr);
  char buf[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0) {
    out.append(buf, n);
  }
  std::fclose(in);
  TCPLAT_CHECK(out.size() == spilled_bytes_);
  out += data_;
  return out;
}

std::string SealBinaryTrace(const std::vector<std::string>& host_names,
                            const BinaryTraceWriter& records) {
  std::string out;
  out.reserve(32 + records.TotalBytes());
  out.append(kBinaryTraceMagic, sizeof(kBinaryTraceMagic));
  out.push_back(static_cast<char>(kBinaryTraceVersion & 0xff));
  out.push_back(static_cast<char>(kBinaryTraceVersion >> 8));
  PutVarint(&out, host_names.size());
  for (const std::string& name : host_names) {
    PutVarint(&out, name.size());
    out += name;
  }
  PutVarint(&out, records.count());
  out += records.ConsolidatedRecords();
  return out;
}

bool BinaryRecordCursor::Next(TraceEvent* ev) {
  if (error_ != nullptr || remaining_ == 0) {
    return false;
  }
  int64_t ts_delta = 0;
  if (!GetZigzag(data_, &pos_, &ts_delta)) {
    error_ = "truncated timestamp delta";
    return false;
  }
  uint8_t kind = 0, layer = 0, span = 0, host = 0;
  if (!GetByte(data_, &pos_, &kind) || !GetByte(data_, &pos_, &layer) ||
      !GetByte(data_, &pos_, &span) || !GetByte(data_, &pos_, &host)) {
    error_ = "truncated tag block";
    return false;
  }
  if (kind >= static_cast<uint8_t>(TraceEventKind::kCount)) {
    error_ = "event kind out of range";
    return false;
  }
  if (layer >= static_cast<uint8_t>(TraceLayer::kCount)) {
    error_ = "layer out of range";
    return false;
  }
  if (span >= static_cast<uint8_t>(SpanId::kCount)) {
    error_ = "span id out of range";
    return false;
  }
  uint64_t flow = 0, packet = 0, bytes = 0;
  int64_t dur = 0, self = 0;
  if (!GetVarint(data_, &pos_, &flow) || !GetVarint(data_, &pos_, &packet) ||
      !GetVarint(data_, &pos_, &bytes) || !GetZigzag(data_, &pos_, &dur) ||
      !GetZigzag(data_, &pos_, &self)) {
    error_ = "truncated record payload";
    return false;
  }
  prev_ts_ += ts_delta;
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

BinaryTraceReader::BinaryTraceReader(std::string_view blob) {
  size_t pos = 0;
  if (blob.size() < sizeof(kBinaryTraceMagic) + 2) {
    header_error_ = "stream shorter than header";
    return;
  }
  if (blob.compare(0, sizeof(kBinaryTraceMagic),
                   std::string_view(kBinaryTraceMagic, sizeof(kBinaryTraceMagic))) != 0) {
    header_error_ = "bad magic";
    return;
  }
  pos = sizeof(kBinaryTraceMagic);
  const uint16_t version = static_cast<uint16_t>(static_cast<uint8_t>(blob[pos])) |
                           static_cast<uint16_t>(static_cast<uint8_t>(blob[pos + 1]) << 8);
  pos += 2;
  if (version != kBinaryTraceVersion) {
    header_error_ = "unsupported version";
    return;
  }
  uint64_t host_count = 0;
  if (!GetVarint(blob, &pos, &host_count) || host_count > 255) {
    header_error_ = "bad host table";
    return;
  }
  host_names_.reserve(host_count);
  for (uint64_t i = 0; i < host_count; ++i) {
    uint64_t len = 0;
    if (!GetVarint(blob, &pos, &len) || len > blob.size() - pos) {
      header_error_ = "truncated host name";
      host_names_.clear();
      return;
    }
    host_names_.emplace_back(blob.substr(pos, len));
    pos += len;
  }
  if (!GetVarint(blob, &pos, &record_count_)) {
    header_error_ = "truncated record count";
    return;
  }
  ok_ = true;
  cursor_ = BinaryRecordCursor(blob.substr(pos), record_count_);
}

const char* BinaryTraceReader::error_message() const {
  if (header_error_ != nullptr) return header_error_;
  return cursor_.error_message();
}

bool BinaryTraceReader::Next(TraceEvent* ev) {
  if (!ok_) return false;
  if (!cursor_.Next(ev)) return false;
  if (ev->host >= host_names_.size()) {
    // No cursor-level range check covers hosts (the record section has no
    // host table); enforce it here so a corrupt stream can't index past the
    // registered names downstream.
    cursor_ = BinaryRecordCursor(std::string_view(), 0);
    header_error_ = "host id out of range";
    ok_ = false;
    return false;
  }
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
