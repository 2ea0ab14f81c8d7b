// Objectives and incremental Pareto-frontier maintenance for the explore
// driver. Every objective maps a design point to a (cost, value) pair —
// cost is minimized, value is maximized — and the frontier is the set of
// points no other point weakly dominates. Scalar objectives (min cycles,
// max bandwidth/area) use a constant cost, so their frontier degenerates to
// the single best point; the headline pareto-area-bw objective reproduces
// the paper's area-vs-bandwidth trade-off curve over any scenario space.
//
// The objectives also expose what can be known about a point *before*
// simulating it: its logic area (closed-form model) and an upper bound on
// its achievable value (peak bandwidth is an architectural ceiling: N
// clusters' VLSU ports plus the NoC payload the L2 can serve). The
// driver uses these for exact early pruning — a candidate whose best
// possible outcome is already weakly dominated by a frontier member can be
// skipped without changing the final frontier by a single byte.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "src/explore/memo_store.hpp"
#include "src/scenario/scenario_file.hpp"

namespace tcdm::explore {

enum class ObjectiveKind {
  kParetoAreaBw,   // cost = logic area [MGE], value = aggregate BW [B/cycle]
  kMinCycles,      // scalar: fewest cycles (value = -cycles), under the cap
  kMaxBwPerArea,   // scalar: best BW/area [B/cycle/MGE], under the cap
};

[[nodiscard]] const char* objective_name(ObjectiveKind kind);
/// Parses "pareto-area-bw", "min-cycles", "max-bw-per-area"; throws
/// std::invalid_argument listing the known names.
[[nodiscard]] ObjectiveKind objective_by_name(const std::string& name);

struct Objective {
  ObjectiveKind kind = ObjectiveKind::kParetoAreaBw;
  /// Logic-area cap in MGE; 0 = uncapped. Points over the cap are
  /// inadmissible and are dropped before simulation (the cap is a property
  /// of the closed-form area model, not of the run).
  double area_cap_mge = 0.0;

  [[nodiscard]] bool admissible(double area_mge) const {
    return area_cap_mge <= 0.0 || area_mge <= area_cap_mge;
  }
  /// Objective coordinates of a *simulated* point.
  [[nodiscard]] double cost(double area_mge) const;
  [[nodiscard]] double value(double area_mge, const KernelMetrics& m) const;
  /// Upper bound on `value` knowable from the configuration alone (`system`
  /// is the candidate's system block, if any); the exact-pruning guarantee
  /// is value(...) <= value_bound(...) always.
  [[nodiscard]] double value_bound(double area_mge, const ClusterConfig& cfg,
                                   const std::optional<SystemConfig>& system) const;
};

/// One frontier member: identity, objective coordinates, and the full
/// result (so reports need no second lookup).
struct FrontierPoint {
  std::string rel;   // scenario name within the explored suite
  std::string key;   // canonical config hash
  double area_mge = 0.0;
  double cost = 0.0;
  double value = 0.0;
  KernelMetrics metrics;
  PowerBreakdown power;
};

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
