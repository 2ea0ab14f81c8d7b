#include "src/explore/pareto.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>

namespace tcdm::explore {

const char* objective_name(ObjectiveKind kind) {
  switch (kind) {
    case ObjectiveKind::kParetoAreaBw: return "pareto-area-bw";
    case ObjectiveKind::kMinCycles: return "min-cycles";
    case ObjectiveKind::kMaxBwPerArea: return "max-bw-per-area";
  }
  return "?";
}

ObjectiveKind objective_by_name(const std::string& name) {
  for (const ObjectiveKind kind :
       {ObjectiveKind::kParetoAreaBw, ObjectiveKind::kMinCycles,
        ObjectiveKind::kMaxBwPerArea}) {
    if (name == objective_name(kind)) return kind;
  }
  throw std::invalid_argument(
      "unknown objective \"" + name +
      "\" (known: pareto-area-bw, min-cycles, max-bw-per-area)");
}

double Objective::cost(double area_mge) const {
  // Scalar objectives collapse the cost axis: every point costs the same,
  // so weak dominance reduces to value comparison and the frontier is the
  // single best point.
  return kind == ObjectiveKind::kParetoAreaBw ? area_mge : 0.0;
}

double Objective::value(double area_mge, const KernelMetrics& m) const {
  switch (kind) {
    case ObjectiveKind::kParetoAreaBw: return m.bw_bytes_per_cycle;
    case ObjectiveKind::kMinCycles: return -static_cast<double>(m.cycles);
    case ObjectiveKind::kMaxBwPerArea: return m.bw_bytes_per_cycle / area_mge;
  }
  return 0.0;
}

namespace {

/// Ceiling on bw_bytes_per_cycle. No cluster moves more than every VLSU
/// port's width every cycle; a System sums N clusters' kernel traffic plus
/// the NoC payload, which streams at most min(L2 budget, N links) words
/// per cycle.
double peak_bw_bound(const ClusterConfig& cfg, const std::optional<SystemConfig>& system) {
  if (!system || system->num_clusters <= 1) return cfg.cluster_peak_bw();
  const std::uint64_t n = system->num_clusters;
  const std::uint64_t noc_words =
      std::min<std::uint64_t>(system->l2_bandwidth_words, n * system->noc_link_words);
  return static_cast<double>(n) * cfg.cluster_peak_bw() +
         static_cast<double>(kWordBytes * noc_words);
}

}  // namespace

double Objective::value_bound(double area_mge, const ClusterConfig& cfg,
                              const std::optional<SystemConfig>& system) const {
  switch (kind) {
    case ObjectiveKind::kParetoAreaBw:
      return peak_bw_bound(cfg, system);
    case ObjectiveKind::kMinCycles:
      return 0.0;  // -cycles <= 0 always: no useful pre-run bound
    case ObjectiveKind::kMaxBwPerArea:
      return peak_bw_bound(cfg, system) / area_mge;
  }
  return 0.0;
}

bool dominates(double cost_a, double value_a, double cost_b, double value_b) {
  return cost_a <= cost_b && value_a >= value_b;
}

bool ParetoFrontier::would_admit(double cost, double value) const {
  for (const FrontierPoint& p : points_) {
    if (p.cost > cost) break;  // sorted: no later member can dominate
    if (dominates(p.cost, p.value, cost, value)) return false;
  }
  return true;
}

bool ParetoFrontier::insert(FrontierPoint p) {
  if (!would_admit(p.cost, p.value)) return false;
  // Evict everything the new point weakly dominates. (Members with equal
  // coordinates cannot survive to this line: they would have rejected p.)
  points_.erase(std::remove_if(points_.begin(), points_.end(),
                               [&](const FrontierPoint& q) {
                                 return dominates(p.cost, p.value, q.cost, q.value);
                               }),
                points_.end());
  const auto pos = std::lower_bound(
      points_.begin(), points_.end(), p,
      [](const FrontierPoint& a, const FrontierPoint& b) { return a.cost < b.cost; });
  points_.insert(pos, std::move(p));
  return true;
}

}  // namespace tcdm::explore
