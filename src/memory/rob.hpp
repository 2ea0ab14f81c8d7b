// Per-VLSU-port Reorder Buffer.
//
// The VLSU allocates one slot per outstanding element *in program order* at
// issue time, tagged with the element it belongs to (instruction slot and
// element index); memory responses fill slots out of order (remote
// responses overtake local ones); the head is retired strictly in order, with
// its element, so the vector register file always observes elements in
// element order. ROB depth is the
// latency-tolerance knob the paper doubles for burst configurations
// (§III-A): it bounds outstanding transactions per port.
//
// All operations are O(1) and defined inline: head_ready()/pop_head() run
// once per port per cycle in Vlsu::retire(), where an out-of-line call is
// pure overhead in the -O3 no-LTO build.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "src/common/types.hpp"

namespace tcdm {

class ReorderBuffer {
 public:
  explicit ReorderBuffer(unsigned depth) : ring_(depth) { assert(depth > 0); }

  [[nodiscard]] unsigned depth() const noexcept { return static_cast<unsigned>(ring_.size()); }
  [[nodiscard]] unsigned occupancy() const noexcept { return count_; }
  [[nodiscard]] bool full() const noexcept { return count_ == ring_.size(); }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] unsigned free_slots() const noexcept {
    return static_cast<unsigned>(ring_.size()) - count_;
  }

  /// What pop_head() retires: the response data and the element it fills.
  struct Retired {
    Word data = 0;
    std::uint8_t instr = 0;  // owning instruction's pool slot
    std::uint32_t elem = 0;  // element index within that instruction
  };

  /// Allocate the next in-order slot for element `elem` of the instruction
  /// in pool slot `instr`. Precondition: !full().
  [[nodiscard]] std::uint16_t alloc(std::uint8_t instr, std::uint32_t elem) {
    assert(!full());
    const unsigned slot = tail_;
    Entry& e = ring_[slot];
    assert(!e.valid);
    e.valid = true;
    e.filled = false;
    e.instr = instr;
    e.elem = elem;
    tail_ = (tail_ + 1 == ring_.size()) ? 0 : tail_ + 1;
    ++count_;
    return static_cast<std::uint16_t>(slot);
  }

  /// Deposit response data into a previously allocated slot.
  void fill(std::uint16_t slot, Word data) {
    assert(slot < ring_.size());
    Entry& e = ring_[slot];
    assert(e.valid && !e.filled);
    e.filled = true;
    e.data = data;
  }

  /// True when the oldest allocated slot has its data.
  [[nodiscard]] bool head_ready() const noexcept { return count_ > 0 && ring_[head_].filled; }

  /// Retire the oldest slot (in allocation order). Precondition: head_ready().
  Retired pop_head() {
    assert(head_ready());
    Entry& e = ring_[head_];
    const Retired out{e.data, e.instr, e.elem};
    e.valid = false;
    e.filled = false;
    head_ = (head_ + 1 == ring_.size()) ? 0 : head_ + 1;
    --count_;
    return out;
  }

  void clear() {
    for (Entry& e : ring_) e = Entry{};
    head_ = tail_ = count_ = 0;
  }

 private:
  struct Entry {
    bool valid = false;   // allocated
    bool filled = false;  // response arrived
    std::uint8_t instr = 0;
    std::uint32_t elem = 0;
    Word data = 0;
  };
  std::vector<Entry> ring_;
  unsigned head_ = 0;  // oldest allocated
  unsigned tail_ = 0;  // next allocation
  unsigned count_ = 0;
};

}  // namespace tcdm
