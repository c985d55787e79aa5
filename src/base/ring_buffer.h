// A FIFO queue over one power-of-two ring of slots.
//
// The ring doubles when a push finds it full and never shrinks, so it grows
// to the queue's high-water mark and is then reused without allocating.
// Elements are default-constructed when the ring grows and move-assigned on
// push and pop.

#ifndef SRC_BASE_RING_BUFFER_H_
#define SRC_BASE_RING_BUFFER_H_

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "src/base/check.h"

namespace tcplat {

template <typename T>
class RingBuffer {
 public:
  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  // Requires !empty().
  T& front() { return slots_[head_]; }

  void push_back(T value) {
    if (size_ == slots_.size()) {
      Grow();
    }
    slots_[(head_ + size_) & (slots_.size() - 1)] = std::move(value);
    ++size_;
  }

  void pop_front() {
    TCPLAT_CHECK(!empty());
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
  }

 private:
  void Grow() {
    std::vector<T> bigger(std::max<size_t>(8, slots_.size() * 2));
    for (size_t i = 0; i < size_; ++i) {
      bigger[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    }
    slots_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> slots_;
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace tcplat

#endif  // SRC_BASE_RING_BUFFER_H_
