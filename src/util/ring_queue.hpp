// Growable circular FIFO with SlotPool-style storage recycling: elements
// are move-assigned into ring slots that are never destroyed on pop, so a
// T that owns heap buffers (std::string members, InlineFn callbacks) keeps
// its capacity across reuse and steady-state push/pop traffic is
// allocation-free once the ring is warm.  This is what std::deque cannot
// offer — its block map churns allocations as the queue breathes.  A
// pending queue must grow rather than evict on overflow.
//
// T must be default-constructible and move-assignable.  Capacity grows by
// doubling (powers of two, so the index wrap is a mask).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace aft::util {

template <typename T>
class RingQueue {
 public:
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  /// Ring slots currently allocated (high-water mark of occupancy).
  [[nodiscard]] std::size_t capacity() const noexcept { return ring_.size(); }

  [[nodiscard]] T& front() noexcept { return ring_[head_]; }
  [[nodiscard]] const T& front() const noexcept { return ring_[head_]; }

  void push_back(T value) {
    if (count_ == ring_.size()) grow();
    ring_[(head_ + count_) & (ring_.size() - 1)] = std::move(value);
    ++count_;
  }

  /// Advances past the front element without destroying it: the slot's
  /// resources are recycled by a later push's move-assignment.
  void pop_front() noexcept {
    head_ = (head_ + 1) & (ring_.size() - 1);
    --count_;
  }

 private:
  void grow() {
    const std::size_t cap = ring_.empty() ? 8 : ring_.size() * 2;
    std::vector<T> next(cap);
    for (std::size_t i = 0; i < count_; ++i) {
      next[i] = std::move(ring_[(head_ + i) & (ring_.size() - 1)]);
    }
    ring_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> ring_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace aft::util
