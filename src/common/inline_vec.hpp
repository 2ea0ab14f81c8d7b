// Fixed-capacity vector with inline storage — no heap traffic, ever.
//
// The burst path used to carry a std::vector of element accesses inside
// every staged beat, which cost one allocation per core per beat cycle on
// the MP128 hot path. Beat fan-out is architecturally bounded by the number of
// VLSU ports (kMaxPorts), so the words fit in a small inline array. This is
// the minimal subset of the std::vector interface those call sites use;
// exceeding the capacity is a programming error and asserts.
//
// Storage is a plain T[Capacity]: all slots are constructed for the
// container's lifetime and clear()/pop never run destructors, so elements
// must be default-constructible and assignable (they need not be trivially
// copyable — e.g. std::string works, but a popped slot keeps its old value
// alive until overwritten).
#pragma once

#include <cassert>
#include <cstddef>
#include <type_traits>
#include <utility>

namespace tcdm {

template <typename T, std::size_t Capacity>
class InlineVec {
  static_assert(std::is_default_constructible_v<T> && std::is_copy_assignable_v<T>,
                "InlineVec keeps all slots constructed; elements must be "
                "default-constructible and assignable");

 public:
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] static constexpr std::size_t capacity() noexcept { return Capacity; }

  void clear() noexcept { size_ = 0; }

  void push_back(const T& v) {
    assert(size_ < Capacity && "InlineVec overflow");
    data_[size_++] = v;
  }

  void push_back(T&& v) {
    assert(size_ < Capacity && "InlineVec overflow");
    data_[size_++] = std::move(v);
  }

  [[nodiscard]] T& operator[](std::size_t i) noexcept {
    assert(i < size_);
    return data_[i];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    assert(i < size_);
    return data_[i];
  }

  [[nodiscard]] T* begin() noexcept { return data_; }
  [[nodiscard]] T* end() noexcept { return data_ + size_; }
  [[nodiscard]] const T* begin() const noexcept { return data_; }
  [[nodiscard]] const T* end() const noexcept { return data_ + size_; }

 private:
  T data_[Capacity];
  std::size_t size_ = 0;
};

}  // namespace tcdm
