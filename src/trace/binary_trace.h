// Compact binary trace format (the "TLBT" stream).
//
// The Perfetto-JSON text tracer costs ~90 bytes per event and a 64-byte
// in-memory struct; neither survives the roadmap's 10^5-flow fabrics at
// millions of events per second. This module defines a compact append-only
// record stream that a Tracer encodes into directly, plus a streaming
// reader, so the existing Perfetto/CSV exporters and the
// causal-graph/attribution consumers are a lossless round trip away.
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
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "src/trace/tracer.h"

namespace tcplat {

inline constexpr char kBinaryTraceMagic[4] = {'T', 'L', 'B', 'T'};
inline constexpr uint16_t kBinaryTraceVersion = 1;

// Append-only encoder for the record section (no header). One lives inside
// each recording Tracer; the full stream is assembled by SealBinaryTrace.
//
// Mid-run disk spill: EnableSpill bounds the resident buffer. Whenever the
// buffer reaches the segment threshold, the full segment is appended to the
// spill file and the buffer is freed. The timestamp-delta chain runs across
// the segment boundary untouched (prev_ts_ survives the spill), so
// spilled-segments + resident-bytes re-concatenate to the exact byte stream
// an unspilled writer would have produced — readers see no difference, and memory stays O(segment) for arbitrarily long captures.
class BinaryTraceWriter {
 public:
  BinaryTraceWriter() = default;
  ~BinaryTraceWriter();
  BinaryTraceWriter(const BinaryTraceWriter&) = delete;
  BinaryTraceWriter& operator=(const BinaryTraceWriter&) = delete;

  void Append(const TraceEvent& ev);
  void Clear();

  // Spills full segments to `path` once the resident buffer reaches
  // `segment_bytes`. Returns false if the file cannot be created. Must be
  // enabled at most once per writer.
  bool EnableSpill(const std::string& path, size_t segment_bytes);
  bool spilling() const { return spill_file_ != nullptr; }
  uint64_t spilled_bytes() const { return spilled_bytes_; }
  uint64_t spill_segments() const { return spill_segments_; }

  // Resident (not yet spilled) record bytes.
  const std::string& data() const { return data_; }
  // The full record section: spilled segments read back from disk, followed
  // by the resident bytes. Identical to data() when spill is off. CHECKs on
  // spill-file I/O errors (the file is this writer's own output).
  std::string ConsolidatedRecords() const;
  uint64_t count() const { return count_; }
  // Resident-buffer footprint by content size (not capacity), so the number
  // is identical across platforms/allocators and can be gated exactly.
  // Spilled bytes are deliberately excluded: they no longer occupy memory.
  size_t SizeBytes() const { return data_.size(); }
  // Total encoded bytes, spilled + resident.
  size_t TotalBytes() const { return spilled_bytes_ + data_.size(); }

 private:
  void MaybeSpill();

  std::string data_;
  int64_t prev_ts_ = 0;
  uint64_t count_ = 0;

  std::FILE* spill_file_ = nullptr;
  std::string spill_path_;
  size_t spill_segment_bytes_ = 0;
  uint64_t spilled_bytes_ = 0;
  uint64_t spill_segments_ = 0;
};

// Full stream = header(hosts, records.count()) + the full record section
// (spilled segments + resident bytes — identical to the unspilled bytes).
std::string SealBinaryTrace(const std::vector<std::string>& host_names,
                            const BinaryTraceWriter& records);

// Streaming decoder for a record section (no header); used by the reader
// and tests. `count` bounds how many records to decode.
class BinaryRecordCursor {
 public:
  BinaryRecordCursor(std::string_view records, uint64_t count)
      : data_(records), remaining_(count) {}

  // Decodes the next record into *ev. Returns false at end-of-stream or on
  // a malformed record (distinguish with error()).
  bool Next(TraceEvent* ev);

  bool error() const { return error_ != nullptr; }
  const char* error_message() const { return error_ == nullptr ? "" : error_; }
  uint64_t remaining() const { return remaining_; }

 private:
  std::string_view data_;
  size_t pos_ = 0;
  int64_t prev_ts_ = 0;
  uint64_t remaining_ = 0;
  const char* error_ = nullptr;
};

// Streaming decoder for a full sealed stream. Parses the header eagerly;
// ok() is false on a bad magic/version/truncated header. Next() then yields
// records until the advertised count is exhausted, flagging error() if the
// stream is truncated or a field is out of range. The reader keeps a view
// into `blob`, which must outlive it, so a temporary string is refused.
class BinaryTraceReader {
 public:
  explicit BinaryTraceReader(std::string_view blob);
  explicit BinaryTraceReader(std::string&& blob) = delete;

  bool ok() const { return ok_; }
  const char* error_message() const;
  const std::vector<std::string>& host_names() const { return host_names_; }
  uint64_t record_count() const { return record_count_; }

  bool Next(TraceEvent* ev);
  bool error() const { return !ok_ || cursor_.error(); }

 private:
  bool ok_ = false;
  const char* header_error_ = nullptr;
  std::vector<std::string> host_names_;
  uint64_t record_count_ = 0;
  BinaryRecordCursor cursor_{std::string_view(), 0};
};

// Decodes a full sealed stream back into `out` (which must be an empty,
// full-recording Tracer): registers the host table and appends every
// record, making the legacy exporters (ToPerfettoJson/ToCsv) and the batch
// causal-graph path available for binary captures. Returns false on a
// corrupt or truncated stream.
bool DecodeBinaryTrace(std::string_view blob, Tracer* out);

}  // namespace tcplat

#endif  // SRC_TRACE_BINARY_TRACE_H_
