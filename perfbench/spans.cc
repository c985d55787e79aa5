#include "spans.h"

#include <cstdio>

namespace perfbench {

int64_t SpanLog::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
}

int SpanLog::Begin(std::string name) {
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void SpanLog::End(int id) {
  if (open_.empty() || open_.back() != id) {
    std::fprintf(stderr, "perfbench: span %d closed out of order\n", id);
    return;
  }
  open_.pop_back();
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
}

int64_t SpanLog::SelfNs(int id) const {
  const Span& span = spans_[static_cast<size_t>(id)];
  int64_t self = span.end_ns - span.start_ns;
  for (const Span& child : spans_) {
    if (child.parent == id) self -= child.end_ns - child.start_ns;
  }
  return self;
}

bool SpanLog::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::string name;
    for (char c : s.name) {
      if (c == '"' || c == '\\') name.push_back('\\');
      name.push_back(c);
    }
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,\"self_us\":%.3f}}\n",
                 i == 0 ? "" : ",", name.c_str(), static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent,
                 static_cast<double>(SelfNs(static_cast<int>(i))) / 1e3);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
