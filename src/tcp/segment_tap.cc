#include "src/tcp/segment_tap.h"

#include <cstdio>

namespace tcplat {

std::string SegmentTap::Format(const Record& r) {
  char buf[256];
  std::string flags = "[";
  flags.append(r.header.flags.ToString()).append("]");
  int n = std::snprintf(buf, sizeof(buf), "%.6f %s %s > %s: Flags %s, seq %u",
                        r.time.seconds(), r.outbound ? "OUT" : "IN ",
                        r.src.ToString().c_str(), r.dst.ToString().c_str(), flags.c_str(),
                        r.header.seq);
  std::string out(buf, static_cast<size_t>(n));
  if (r.header.flags.ack) {
    std::snprintf(buf, sizeof(buf), ", ack %u", r.header.ack);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), ", win %u", r.header.window);
  out += buf;
  if (r.header.options.mss.has_value() || r.header.options.alt_checksum.has_value()) {
    out += ", options [";
    bool first = true;
    if (r.header.options.mss.has_value()) {
      std::snprintf(buf, sizeof(buf), "mss %u", *r.header.options.mss);
      out += buf;
      first = false;
    }
    if (r.header.options.alt_checksum.has_value()) {
      std::snprintf(buf, sizeof(buf), "%saltcksum %u", first ? "" : ",",
                    *r.header.options.alt_checksum);
      out += buf;
    }
    out += "]";
  }
  std::snprintf(buf, sizeof(buf), ", length %zu", r.payload_len);
  out += buf;
  return out;
}

std::string SegmentTap::Dump() const {
  std::string out;
  for (const Record& r : records_) {
    out += Format(r);
    out += '\n';
  }
  return out;
}

}  // namespace tcplat
