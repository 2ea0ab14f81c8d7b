// Lightweight statistics registry. Components create named counters once at
// construction and bump them through a raw-pointer handle on the hot path;
// reports walk the registry by name at the end of a run.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

namespace tcdm {

/// Hot-path handle to a single accumulating statistic.
class Counter {
 public:
  Counter() = default;
  explicit Counter(double* slot) noexcept : slot_(slot) {}

  void inc(double v = 1.0) noexcept {
    if (slot_ != nullptr) *slot_ += v;
  }
  [[nodiscard]] double value() const noexcept { return slot_ != nullptr ? *slot_ : 0.0; }
  [[nodiscard]] bool valid() const noexcept { return slot_ != nullptr; }
  /// Identity of the underlying storage; used by the cross-check stepping
  /// mode to map SkipPlan entries back to registry positions.
  [[nodiscard]] const double* slot() const noexcept { return slot_; }

 private:
  double* slot_ = nullptr;
};

/// The declared linear-counter contract of event-driven stepping (invariant
/// EV2 in docs/ARCHITECTURE.md): over a quiet span, each listed counter
/// advances by exactly `per_cycle` every cycle and no other counter moves.
/// Components fill the plan while reporting earliest_wakeup(); the cluster
/// applies it in bulk when it jumps the clock. Rates are small integers and
/// counter values stay far below 2^53, so `per_cycle * cycles` is exact.
class SkipPlan {
 public:
  struct Entry {
    Counter counter;
    double per_cycle;
  };

  void clear() noexcept { entries_.clear(); }
  void add(const Counter& counter, double per_cycle) { entries_.push_back({counter, per_cycle}); }

  /// Bulk-apply every declared rate over `cycles` skipped cycles.
  void apply(double cycles) {
    for (Entry& e : entries_) e.counter.inc(e.per_cycle * cycles);
  }

  [[nodiscard]] const std::vector<Entry>& entries() const noexcept { return entries_; }

 private:
  std::vector<Entry> entries_;
};

/// Name -> value registry with stable storage so Counter handles never dangle.
///
/// Registering a counter makes no heap allocation of its own: values live in
/// one chunked slab (a std::deque, so addresses stay stable as it grows) in
/// registration order, names are appended to one character arena and kept as
/// offsets, and an open-addressing index of slab positions finds a name
/// without per-entry nodes. A component's counters are registered together,
/// so they share cache lines on the hot path.
///
/// Reports that need name order (snapshot(), values(), slots(), to_json())
/// walk a sorted permutation built on first use and kept until the next new
/// name. Sums walk registration order: every counter holds an integer below
/// 2^53 (EV2, docs/ARCHITECTURE.md), so the order of the additions cannot
/// change a bit. Because const calls may build that cached permutation, a
/// registry belongs to one thread (docs/CONCURRENCY.md).
class StatsRegistry {
 public:
  StatsRegistry() = default;
  StatsRegistry(const StatsRegistry&) = delete;
  StatsRegistry& operator=(const StatsRegistry&) = delete;

  /// Returns a handle to the named counter, creating it (at 0) on first use.
  [[nodiscard]] Counter counter(std::string_view name);

  /// Value lookup; returns 0 for unknown names.
  [[nodiscard]] double value(std::string_view name) const;

  /// Sum over all counters whose name starts with `prefix`.
  [[nodiscard]] double sum_prefix(std::string_view prefix) const;

  /// Sum over all counters whose name ends with `suffix` (e.g. ".vfpu.flops"
  /// across every core).
  [[nodiscard]] double sum_suffix(std::string_view suffix) const;

  /// Sorted snapshot for reporting.
  [[nodiscard]] std::vector<std::pair<std::string, double>> snapshot() const;

  /// Dense value vector in name order (reuses `out`'s capacity). Positions
  /// align with slots(); used by the cross-check stepping mode to diff the
  /// whole registry cheaply between cycles.
  void values(std::vector<double>& out) const;

  /// Storage identity of every counter, in the same name order as values().
  [[nodiscard]] std::vector<const double*> slots() const;

  /// Serialize every counter as a flat JSON object ({"name": value, ...}),
  /// sorted by name — the machine-readable end-of-run dump consumed by
  /// external analysis scripts.
  [[nodiscard]] std::string to_json() const;

  /// Zero every counter; handles stay valid.
  void reset();

 private:
  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }
  [[nodiscard]] std::string_view name(std::uint32_t pos) const noexcept {
    return {names_.data() + name_begin_[pos], name_begin_[pos + 1] - name_begin_[pos]};
  }
  /// Sum of the counters whose name satisfies `match`, in registration order.
  template <typename Match>
  [[nodiscard]] double sum_if(Match match) const;
  /// Index slot holding `name`, or the empty slot where it would go.
  [[nodiscard]] std::size_t find_slot(std::string_view name) const noexcept;
  void grow_index();
  /// Slab positions in name order; rebuilt when a name was added since.
  const std::vector<std::uint32_t>& sorted() const;

  std::deque<double> values_;                   // slab, registration order
  std::string names_;                           // arena: every name, back to back
  std::vector<std::uint32_t> name_begin_{0};    // name i is [begin[i], begin[i+1])
  std::vector<std::uint32_t> index_;            // slab position + 1; 0 = empty
  mutable std::vector<std::uint32_t> order_;    // cached name-order permutation
};

}  // namespace tcdm
