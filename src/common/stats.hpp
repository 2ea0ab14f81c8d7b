// Lightweight statistics registry. Components register their counters once
// at construction, as one block each, and bump them through a raw-pointer
// handle on the hot path; reports walk the registry by name at the end of a
// run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
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
/// A component registers its counters as one block: a prefix naming the
/// instance and a static list of suffixes naming its counters, each a dot
/// and one dot-free segment. The full name of counter i is prefix +
/// suffixes[i]. To add a counter to a component, append its suffix to the
/// component's list and its handle to the matching position of its
/// block() call:
///
///   static constexpr std::string_view kStats[] = {".reads", ".writes"};
///   void Bank::attach_stats(StatsRegistry& reg, const std::string& prefix) {
///     reg.block(prefix, kStats, {&reads_, &writes_});
///   }
///
/// A block reserves consecutive slots of one chunked slab (a std::deque, so
/// addresses stay stable as it grows) and records its prefix once in a
/// character arena; the suffix list is borrowed, so it must outlive the
/// registry (a static list does). Registration thus composes no name and
/// makes no allocation or hash per counter: an open-addressing index finds
/// a block by its prefix. block() is the only way to create a counter, and
/// a component's counters sit next to each other, so they share cache lines
/// on the hot path.
///
/// Full names are composed only where something reads them. Lookups split a
/// name at its last dot and probe the index once for the prefix before it.
/// Reports that need name order (snapshot(), values(), slots(), to_json())
/// walk a sorted permutation built on first use and kept until the next new
/// block. sum_suffix() matches each block's prefix and suffixes against the
/// affix and walks registration order: every counter holds an integer below
/// 2^53 (EV2, docs/ARCHITECTURE.md), so the order of the additions cannot
/// change a bit. Because const calls may build that cached permutation, a
/// registry belongs to one thread (docs/CONCURRENCY.md).
class StatsRegistry {
 public:
  StatsRegistry() = default;
  StatsRegistry(const StatsRegistry&) = delete;
  StatsRegistry& operator=(const StatsRegistry&) = delete;

  /// Registers the counters prefix + suffixes[i] and points *out[i] at the
  /// i-th. Throws std::logic_error naming the first full name that is
  /// already registered (nothing is registered then).
  template <std::size_t N>
  void block(std::string_view prefix, const std::string_view (&suffixes)[N],
             Counter* const (&out)[N]) {
    const std::uint32_t first = add_block(prefix, suffixes);
    for (std::size_t i = 0; i < N; ++i) *out[i] = Counter(&values_[first + i]);
  }

  /// Handle to the registered counter `name` (a block prefix plus one of
  /// its suffixes); throws std::logic_error naming an unknown one.
  [[nodiscard]] Counter counter(std::string_view name);

  /// Value lookup; returns 0 for unknown names.
  [[nodiscard]] double value(std::string_view name) const;

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
  /// Counters prefix + suffixes[i] at slab positions first + i. Blocks are
  /// kept in registration order, so their slots tile the slab.
  struct Block {
    std::span<const std::string_view> suffixes;
    std::uint32_t first;  // slab position of suffixes[0]
    std::uint32_t begin;  // arena offset of the prefix
    std::uint32_t size;   // prefix length
  };
  /// One full name, as the two pieces it is made of.
  struct Name {
    std::string_view head;
    std::string_view tail;
  };

  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }
  [[nodiscard]] std::string_view prefix(const Block& b) const noexcept {
    return {names_.data() + b.begin, b.size};
  }
  /// Name of the counter at slab position `pos`.
  [[nodiscard]] Name name(std::uint32_t pos) const;
  /// Slab position of `name`, or -1 when it is not registered.
  [[nodiscard]] std::int64_t find(std::string_view name) const noexcept;
  /// Slab position of the counter `prefix` + `suffix`, or -1; `start` is
  /// home(prefix).
  [[nodiscard]] std::int64_t find(std::string_view prefix, std::string_view suffix,
                                  std::size_t start) const noexcept;
  /// block() without the handles: refuses a registered name, then registers
  /// the block; returns the slab position of its first counter.
  std::uint32_t add_block(std::string_view prefix, std::span<const std::string_view> suffixes);
  /// Index slot of the first block with `prefix` at or after probe
  /// position `i`, or the empty slot that ends the probe sequence.
  [[nodiscard]] std::size_t probe(std::string_view prefix, std::size_t i) const noexcept;
  /// Index slot where the probe sequence of `prefix` starts.
  [[nodiscard]] std::size_t home(std::string_view prefix) const noexcept;
  /// Enters block `pos` into the index.
  void insert(std::uint32_t pos);
  void grow_index();
  /// Slab positions in name order; rebuilt when a block was added since.
  const std::vector<std::uint32_t>& sorted() const;

  std::deque<double> values_;                 // slab, registration order
  std::vector<Block> blocks_;                 // registration order
  std::string names_;                         // arena: every prefix, back to back
  std::vector<std::uint32_t> index_;          // block position + 1; 0 = empty
  mutable std::vector<std::uint32_t> order_;  // cached name-order permutation
};

}  // namespace tcdm
