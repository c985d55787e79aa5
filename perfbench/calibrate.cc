#include "calibrate.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench {
namespace {

volatile uint64_t g_calib_sink = 0;

}  // namespace

double CalibrateSeconds() {
  using Clock = std::chrono::steady_clock;
  static const std::vector<uint32_t> table = [] {
    std::vector<uint32_t> t(256);
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  struct Event {
    int64_t when;
    uint64_t seq;
    std::function<void()> fn;
  };
  const auto later = [](const Event& a, const Event& b) {
    return a.when != b.when ? a.when > b.when : a.seq > b.seq;
  };
  const Clock::time_point t0 = Clock::now();
  uint64_t x = 88172645463325252ull;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  uint64_t acc = 0;
  std::vector<Event> heap;
  heap.reserve(512);
  uint64_t seq = 0;
  // ~300 pending events, as in star64; the 32-byte capture is too large for
  // std::function's inline buffer, like the simulator's cell deliveries.
  for (int i = 0; i < 300; ++i) {
    const uint64_t a = next(), b = next(), c = next();
    heap.push_back(
        {static_cast<int64_t>(a % 400000), seq++, [&acc, a, b, c] { acc += a ^ b ^ c; }});
    std::push_heap(heap.begin(), heap.end(), later);
  }
  for (int n = 0; n < 60000; ++n) {
    std::pop_heap(heap.begin(), heap.end(), later);
    Event ev = std::move(heap.back());
    heap.pop_back();
    ev.fn();
    const uint64_t a = next(), b = next(), c = next();
    heap.push_back({ev.when + static_cast<int64_t>(a % 400000), seq++,
                    [&acc, a, b, c] { acc += a ^ b ^ c; }});
    std::push_heap(heap.begin(), heap.end(), later);
  }
  for (int n = 0; n < 40000; ++n) {
    std::vector<uint8_t> cell(53);
    const uint64_t v = next();
    for (size_t i = 0; i < cell.size(); ++i) cell[i] = static_cast<uint8_t>(v >> (i % 8 * 8));
    uint32_t crc = 0xFFFFFFFFu;
    for (size_t i = 5; i < cell.size(); ++i) crc = table[(crc ^ cell[i]) & 0xFF] ^ (crc >> 8);
    acc += crc;
  }
  g_calib_sink = g_calib_sink + acc;
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace perfbench
