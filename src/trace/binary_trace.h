// Compact binary trace format (the "TLBT" stream).
//
// A file format for a recorded Tracer, beside the Perfetto JSON and CSV
// exporters: EncodeBinaryTrace writes the event log as a compact record
// stream (~12.8 bytes/event against ~92 for Perfetto JSON and 56 for the
// in-memory struct), and BinaryTraceReader / DecodeBinaryTrace read it
// back, so the exporters and the causal-graph/attribution consumers are a
// lossless round trip away.
//
// Stream layout (all integers little-endian):
//
//   header:  magic "TLBT" (4 bytes)
//            u16   version (currently 1)
//            varint host_count, then per host: varint name_len + name bytes
//            varint record_count
//   records: record_count encoded TraceEvents, each:
//            varint zigzag(ts_ns - previous record's ts_ns)
//            u8 kind, u8 layer, u8 span, u8 host   (fixed-width tag block)
//            varint flow
//            varint packet
//            varint bytes
//            varint zigzag(dur_ns)
//            varint zigzag(self_ns)
//
// Timestamps are delta-encoded against the previous record in the same
// stream (the first record's delta is against 0). Deltas are zigzag-encoded
// because a sampled stream may legitimately emit a deferred event after a
// later-timestamped one. Everything else is plain LEB128 varint; the
// four enum/host bytes stay fixed-width so corrupt streams fail fast on
// range checks rather than desynchronizing.
//
// Determinism: encoding is a pure function of the event sequence, so the
// bytes are identical for any TCPLAT_JOBS value.

#ifndef SRC_TRACE_BINARY_TRACE_H_
#define SRC_TRACE_BINARY_TRACE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/trace/tracer.h"

namespace tcplat {

inline constexpr char kBinaryTraceMagic[4] = {'T', 'L', 'B', 'T'};
inline constexpr uint16_t kBinaryTraceVersion = 1;

// The full stream for `tracer`: header (host table, record count) followed
// by every event of tracer.events(), in order.
std::string EncodeBinaryTrace(const Tracer& tracer);

// Streaming decoder for a full stream. Parses the header eagerly; ok() is
// false on a bad magic/version/truncated header. Next() then yields records
// until the advertised count is exhausted, and flags error() if the stream
// is truncated or a field (kind, layer, span, host) is out of range, so a
// reader that stops short of record_count() always reports why. The reader
// keeps a view into `blob`, which must outlive it, so a temporary string is
// refused.
class BinaryTraceReader {
 public:
  explicit BinaryTraceReader(std::string_view blob);
  explicit BinaryTraceReader(std::string&& blob) = delete;

  bool ok() const { return ok_; }
  bool error() const { return error_ != nullptr; }
  const char* error_message() const { return error_ == nullptr ? "" : error_; }
  const std::vector<std::string>& host_names() const { return host_names_; }
  uint64_t record_count() const { return record_count_; }

  // Decodes the next record into *ev. Returns false at end-of-stream or on
  // a malformed record (distinguish with error()).
  bool Next(TraceEvent* ev);

 private:
  bool Fail(const char* message);

  bool ok_ = false;
  const char* error_ = nullptr;
  std::vector<std::string> host_names_;
  uint64_t record_count_ = 0;
  std::string_view records_;  // the record section, after the header
  size_t pos_ = 0;
  int64_t prev_ts_ = 0;
  uint64_t remaining_ = 0;
};

// Decodes a full stream back into `out` (which must be an empty tracer):
// registers the host table and appends every record, making the exporters
// (ToPerfettoJson/ToCsv) and the causal-graph path available for binary
// captures. Returns false on a corrupt or truncated stream.
bool DecodeBinaryTrace(std::string_view blob, Tracer* out);

}  // namespace tcplat

#endif  // SRC_TRACE_BINARY_TRACE_H_
