// Fixed-capacity ring-buffer FIFO. Models a hardware queue: bounded, FIFO
// order, O(1) push/pop. The simulator's flow control is built on "try_push
// fails when full" backpressure.
#pragma once

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace tcdm {

template <typename T>
class BoundedQueue {
 public:
  /// Capacity 0 gives a queue that is always full and never holds anything
  /// (a network wait-list no tile can reach).
  explicit BoundedQueue(std::size_t capacity) : buf_(capacity) {}

  [[nodiscard]] std::size_t capacity() const noexcept { return buf_.size(); }
  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] bool full() const noexcept { return count_ == buf_.size(); }
  [[nodiscard]] std::size_t free_slots() const noexcept { return buf_.size() - count_; }

  /// Push one element; returns false (and leaves the queue unchanged) if full.
  [[nodiscard]] bool try_push(T item) {
    if (full()) return false;
    buf_[wr_] = std::move(item);
    wr_ = next(wr_);
    ++count_;
    return true;
  }

  [[nodiscard]] T& front() {
    assert(!empty());
    return buf_[rd_];
  }
  [[nodiscard]] const T& front() const {
    assert(!empty());
    return buf_[rd_];
  }

  /// Most recently pushed element (FIFO tail).
  [[nodiscard]] T& back() {
    assert(!empty());
    return buf_[(wr_ == 0 ? buf_.size() : wr_) - 1];
  }
  [[nodiscard]] const T& back() const {
    assert(!empty());
    return buf_[(wr_ == 0 ? buf_.size() : wr_) - 1];
  }

  /// Element at FIFO position `i` (0 == front).
  [[nodiscard]] T& at(std::size_t i) {
    assert(i < count_);
    return buf_[slot(i)];
  }
  [[nodiscard]] const T& at(std::size_t i) const {
    assert(i < count_);
    return buf_[slot(i)];
  }

  T pop() {
    assert(!empty());
    T item = std::move(buf_[rd_]);
    rd_ = next(rd_);
    --count_;
    return item;
  }

  /// Discard the `k` oldest elements.
  void drop_front(std::size_t k) noexcept {
    assert(k <= count_);
    rd_ = slot(k);
    count_ -= k;
  }

  void clear() noexcept {
    rd_ = wr_ = 0;
    count_ = 0;
  }

 private:
  [[nodiscard]] std::size_t next(std::size_t i) const noexcept {
    return (i + 1 == buf_.size()) ? 0 : i + 1;
  }
  /// Buffer index of FIFO position `i` (i <= capacity): one compare, no modulo.
  [[nodiscard]] std::size_t slot(std::size_t i) const noexcept {
    const std::size_t j = rd_ + i;
    return j >= buf_.size() ? j - buf_.size() : j;
  }

  std::vector<T> buf_;
  std::size_t rd_ = 0;
  std::size_t wr_ = 0;
  std::size_t count_ = 0;
};

}  // namespace tcdm
