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

/// Upper bound on bw_bytes_per_cycle knowable from the configuration alone
/// (`system` is the candidate's system block, if any); the exact-pruning
/// guarantee is that no simulation of the point exceeds it.
[[nodiscard]] double peak_bw_bound(const ClusterConfig& cfg,
                                   const std::optional<SystemConfig>& system);

/// One frontier member: identity, its area (the cost axis), and the full
/// result, whose metrics.bw_bytes_per_cycle is the bandwidth axis (so
/// reports need no second lookup).
struct FrontierPoint {
  std::string rel;   // scenario name within the explored suite
  std::string key;   // canonical config hash
  double area_mge = 0.0;
  KernelMetrics metrics;
  PowerBreakdown power;
};

template <MaybeConst<FrontierPoint> S, class V>
void fields(S& p, V& v) {
  v("rel", p.rel);
  v("key", p.key);
  v("area_mge", p.area_mge);
  v("metrics", p.metrics);
  v("power", p.power);
}

/// Weak dominance: a is at least as good on both axes (no more area, at
/// least the bandwidth).
[[nodiscard]] bool dominates(const FrontierPoint& a, const FrontierPoint& b);

/// Incrementally maintained non-dominated set, kept sorted by ascending
/// area (equivalently ascending bandwidth: members are mutually
/// non-dominated, so the two orders coincide and the report order is
/// deterministic).
class ParetoFrontier {
 public:
  /// Would a point of this area and bandwidth enter the frontier? False iff
  /// some member weakly dominates it — the insertion predicate, also usable
  /// with a bandwidth *upper bound* for exact pre-simulation pruning.
  [[nodiscard]] bool would_admit(double area_mge, double bw) const;

  /// Inserts if admitted, evicting every member the new point dominates.
  /// Returns false (frontier unchanged) when the point is dominated. Ties
  /// are first-come: an exact duplicate of an existing member is rejected,
  /// so insertion order (candidate order) makes the result deterministic.
  bool insert(FrontierPoint p);

  [[nodiscard]] const std::vector<FrontierPoint>& points() const { return points_; }
  [[nodiscard]] std::size_t size() const { return points_.size(); }

 private:
  std::vector<FrontierPoint> points_;  // ascending area
};

}  // namespace tcdm::explore
