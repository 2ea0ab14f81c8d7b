// One SPM (scratchpad) bank: single-ported SRAM serving one word per cycle —
// the paper's "1-cycle round-trip" local timing (data usable the cycle after
// issue; latency beyond that is added by the interconnect pipes).
// The bank is functional (stores real data) and timing-accurate: a bounded
// input queue models the bank-side request register, and a full output
// register stalls the bank, propagating response-path backpressure.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/common/bounded_queue.hpp"
#include "src/common/stats.hpp"
#include "src/common/types.hpp"
#include "src/memory/mem_types.hpp"

namespace tcdm {

class SpmBank {
 public:
  /// Request input queue: the RTL has a register + arbitration stage; depth
  /// 2 models request pipelining without unbounded buffering.
  static constexpr unsigned kInDepth = 2;
  /// Response output register.
  static constexpr unsigned kOutDepth = 2;

  /// `words`: storage capacity.
  explicit SpmBank(unsigned words);

  void attach_stats(StatsRegistry& reg, const std::string& prefix);

  /// Let the owning tile count busy banks: `*counter` is incremented when
  /// this bank goes idle→busy and decremented on busy→idle, so tile-level
  /// quiescence checks are O(1) instead of a sweep over all banks per cycle.
  void attach_busy_counter(unsigned* counter) noexcept { busy_count_ = counter; }

  // ---- request side ----
  [[nodiscard]] bool can_accept() const noexcept { return !in_.full(); }
  [[nodiscard]] bool try_push(const BankReq& req) {
    assert(req.row < data_.size());
    const bool was_busy = busy();
    if (!in_.try_push(req)) return false;
    if (!was_busy && busy_count_ != nullptr) ++*busy_count_;
    return true;
  }

  /// True when a cycle() call would do work (input queue non-empty).
  [[nodiscard]] bool has_request() const noexcept { return !in_.empty(); }

  // ---- one simulation cycle: serve at most one request ----
  // Inline: with banks * tiles calls per simulated cycle and no LTO, the
  // cross-TU call overhead on this small body is measurable.
  void cycle() {
    if (in_.empty()) return;
    if (out_.full()) {
      stall_cycles_.inc();
      return;
    }
    if (in_.size() > 1) conflict_cycles_.inc();

    const BankReq req = in_.pop();
    BankResp resp;
    resp.route = req.route;
    if (req.amo_add) {
      // Atomic fetch-and-add performed at the memory: single-cycle RMW, the
      // response carries the old value.
      resp.data = data_[req.row];
      data_[req.row] += req.wdata;
      reads_.inc();
      writes_.inc();
    } else if (req.write) {
      data_[req.row] = req.wdata;
      resp.route.write = true;
      writes_.inc();
    } else {
      resp.data = data_[req.row];
      reads_.inc();
    }
    const bool pushed = out_.try_push(resp);
    assert(pushed);
    (void)pushed;
  }

  // ---- response side (drained by the owning tile in the same memory stage) ----
  [[nodiscard]] bool resp_ready() const noexcept { return !out_.empty(); }
  [[nodiscard]] const BankResp& resp_front() const { return out_.front(); }
  BankResp resp_pop() {
    BankResp r = out_.pop();
    if (!busy() && busy_count_ != nullptr) --*busy_count_;
    return r;
  }

  // ---- host backdoor (test setup / result extraction; no timing) ----
  [[nodiscard]] Word read_row(std::uint32_t row) const { return data_.at(row); }
  void write_row(std::uint32_t row, Word value) { data_.at(row) = value; }
  [[nodiscard]] unsigned words() const noexcept { return static_cast<unsigned>(data_.size()); }
  [[nodiscard]] std::span<Word> rows() noexcept { return data_; }

  /// True if the bank still holds queued work (used by drain checks).
  [[nodiscard]] bool busy() const noexcept { return !in_.empty() || !out_.empty(); }

  /// Back to the just-constructed state: zeroed storage, empty queues.
  /// Counters live in the StatsRegistry and are reset by its owner.
  void reset() {
    std::fill(data_.begin(), data_.end(), 0);
    in_.clear();
    out_.clear();
  }

 private:
  std::vector<Word> data_;
  BoundedQueue<BankReq> in_;
  BoundedQueue<BankResp> out_;
  unsigned* busy_count_ = nullptr;  // tile-level busy-bank count (optional)
  Counter reads_;
  Counter writes_;
  Counter conflict_cycles_;  // cycles where >1 request contended for this bank
  Counter stall_cycles_;     // cycles the bank could not serve due to resp backpressure
};

}  // namespace tcdm
