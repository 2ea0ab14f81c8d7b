#include "src/explore/pareto.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

namespace tcdm::explore {

double peak_bw_bound(const ClusterConfig& cfg, const std::optional<SystemConfig>& system) {
  // No cluster moves more than every VLSU port's width every cycle; a
  // System sums N clusters' kernel traffic plus the NoC payload, which
  // streams at most min(L2 budget, N links) words per cycle.
  if (!system || system->num_clusters <= 1) return cfg.cluster_peak_bw();
  const std::uint64_t n = system->num_clusters;
  const std::uint64_t noc_words =
      std::min<std::uint64_t>(system->l2_bandwidth_words, n * system->noc_link_words);
  return static_cast<double>(n) * cfg.cluster_peak_bw() +
         static_cast<double>(kWordBytes * noc_words);
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
