// In-memory span log for the benchmark's own traced run: one span per
// set-up, workload cell and layer replay, each with the span that encloses
// it. Nothing is written until WriteChromeJson() is called at exit.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    std::string name;
    int parent = -1;  // index into spans(), -1 for a root span
    int64_t start_ns = 0;
    int64_t end_ns = -1;  // -1 while open
  };

  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  // Opens a span nested in the innermost open one; returns its index.
  int Begin(std::string name);
  // Closes the innermost open span (which must be `id`).
  void End(int id);

  const std::vector<Span>& spans() const { return spans_; }
  // Self time: duration minus the time covered by direct children.
  int64_t SelfNs(int id) const;

  // Chrome trace-event JSON ("X" events, microseconds), loadable in Perfetto.
  bool WriteChromeJson(const std::string& path) const;

 private:
  int64_t NowNs() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Opens a span on construction and closes it on destruction; no-op when
// `log` is null, so untraced runs pay one pointer test.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name)
      : log_(log), id_(log != nullptr ? log->Begin(std::move(name)) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
