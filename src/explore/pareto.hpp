// The explore driver's one objective and incremental Pareto-frontier
// maintenance. A design point's cost is its logic area [MGE] (minimized)
// and its value its aggregate bandwidth [B/cycle] (maximized): the paper's
// area-vs-bandwidth trade-off, over any scenario space. The frontier is the
// set of points no other point weakly dominates.
//
// Two things are known about a point *before* simulating it: its logic
// area (closed-form model) and an upper bound on its bandwidth (peak
// bandwidth is an architectural ceiling: N clusters' VLSU ports plus the
// NoC payload the L2 can serve). The driver uses these for exact early
// pruning — a candidate whose best possible outcome is already weakly
// dominated by a frontier member can be skipped without changing the final
// frontier by a single byte.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "src/analytics/metrics_export.hpp"
#include "src/explore/memo_store.hpp"
#include "src/scenario/scenario_file.hpp"

namespace tcdm::explore {

/// The objective's name in the report.
inline constexpr const char* kObjectiveName = "pareto-area-bw";

/// Upper bound on bw_bytes_per_cycle knowable from the configuration alone
/// (`system` is the candidate's system block, if any); the exact-pruning
/// guarantee is that no simulation of the point exceeds it.
[[nodiscard]] double peak_bw_bound(const ClusterConfig& cfg,
                                   const std::optional<SystemConfig>& system);

/// One frontier member: identity, objective coordinates (cost = area_mge,
/// value = metrics.bw_bytes_per_cycle), and the full result (so reports
/// need no second lookup).
struct FrontierPoint {
  std::string rel;   // scenario name within the explored suite
  std::string key;   // canonical config hash
  double area_mge = 0.0;
  double cost = 0.0;
  double value = 0.0;
  KernelMetrics metrics;
  PowerBreakdown power;
};

template <MaybeConst<FrontierPoint> S, class V>
void fields(S& p, V& v) {
  v("rel", p.rel);
  v("key", p.key);
  v("area_mge", p.area_mge);
  v("cost", p.cost);
  v("value", p.value);
  v("metrics", p.metrics);
  v("power", p.power);
}

/// Weak dominance: a is at least as good on both axes.
[[nodiscard]] bool dominates(double cost_a, double value_a, double cost_b,
                             double value_b);

/// Incrementally maintained non-dominated set, kept sorted by ascending
/// cost (equivalently ascending value: members are mutually non-dominated,
/// so the two orders coincide and the report order is deterministic).
class ParetoFrontier {
 public:
  /// Would a point at (cost, value) enter the frontier? False iff some
  /// member weakly dominates it — the insertion predicate, also usable with
  /// a value *upper bound* for exact pre-simulation pruning.
  [[nodiscard]] bool would_admit(double cost, double value) const;

  /// Inserts if admitted, evicting every member the new point dominates.
  /// Returns false (frontier unchanged) when the point is dominated. Ties
  /// are first-come: an exact duplicate of an existing member is rejected,
  /// so insertion order (candidate order) makes the result deterministic.
  bool insert(FrontierPoint p);

  [[nodiscard]] const std::vector<FrontierPoint>& points() const { return points_; }
  [[nodiscard]] std::size_t size() const { return points_.size(); }

 private:
  std::vector<FrontierPoint> points_;  // ascending cost
};

}  // namespace tcdm::explore
