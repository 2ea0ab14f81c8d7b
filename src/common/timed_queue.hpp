// Bounded FIFO whose entries become visible only after a per-entry ready
// cycle. This is the building block for latency-bearing channels: a producer
// pushes at cycle t with ready_at = t + latency, and the consumer side can
// only observe/pop the head once `now >= ready_at`.
//
// FIFO order is preserved, so an entry also cannot overtake earlier entries
// with later ready times (hardware pipes are in-order).
#pragma once

#include <cassert>
#include <cstddef>

#include "src/common/bounded_queue.hpp"
#include "src/common/types.hpp"

namespace tcdm {

template <typename T>
class TimedQueue {
 public:
  explicit TimedQueue(std::size_t capacity) : q_(capacity) {}

  [[nodiscard]] std::size_t capacity() const noexcept { return q_.capacity(); }
  [[nodiscard]] std::size_t size() const noexcept { return q_.size(); }
  [[nodiscard]] bool empty() const noexcept { return q_.empty(); }
  [[nodiscard]] bool full() const noexcept { return q_.full(); }
  [[nodiscard]] std::size_t free_slots() const noexcept { return q_.free_slots(); }

  [[nodiscard]] bool try_push(T item, Cycle ready_at) {
    return q_.try_push(Entry{std::move(item), ready_at});
  }

  /// True when the head entry exists and its latency has elapsed.
  [[nodiscard]] bool front_ready(Cycle now) const {
    return !q_.empty() && q_.front().ready_at <= now;
  }

  [[nodiscard]] T& front() { return q_.front().item; }
  [[nodiscard]] const T& front() const { return q_.front().item; }

  /// Next cycle at which the head could become observable, or kNoCycle when
  /// empty. Because the queue is FIFO and in-order, the head's ready time is
  /// the earliest of the whole queue — this is the queue's contribution to a
  /// component's earliest_wakeup() (see docs/ARCHITECTURE.md, EV1).
  [[nodiscard]] Cycle earliest_ready() const {
    return q_.empty() ? kNoCycle : q_.front().ready_at;
  }

  T pop() { return q_.pop().item; }

  void clear() noexcept { q_.clear(); }

 private:
  struct Entry {
    T item;
    Cycle ready_at;
  };
  BoundedQueue<Entry> q_;
};

}  // namespace tcdm
