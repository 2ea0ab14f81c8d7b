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
      std::min<std::uint64_t>(kL2BandwidthWords, n * kNocLinkWords);
  return static_cast<double>(n) * cfg.cluster_peak_bw() +
         static_cast<double>(kWordBytes * noc_words);
}

bool dominates(const FrontierPoint& a, const FrontierPoint& b) {
  return a.area_mge <= b.area_mge &&
         a.metrics.bw_bytes_per_cycle >= b.metrics.bw_bytes_per_cycle;
}

bool ParetoFrontier::would_admit(double area_mge, double bw) const {
  for (const FrontierPoint& p : points_) {
    if (p.area_mge > area_mge) break;  // sorted: no later member can dominate
    if (p.metrics.bw_bytes_per_cycle >= bw) return false;  // no more area, at least the bw
  }
  return true;
}

bool ParetoFrontier::insert(FrontierPoint p) {
  if (!would_admit(p.area_mge, p.metrics.bw_bytes_per_cycle)) return false;
  // Evict everything the new point weakly dominates. (Members with equal
  // coordinates cannot survive to this line: they would have rejected p.)
  points_.erase(std::remove_if(points_.begin(), points_.end(),
                               [&](const FrontierPoint& q) {
                                 return dominates(p, q);
                               }),
                points_.end());
  const auto pos = std::lower_bound(
      points_.begin(), points_.end(), p,
      [](const FrontierPoint& a, const FrontierPoint& b) { return a.area_mge < b.area_mge; });
  points_.insert(pos, std::move(p));
  return true;
}

}  // namespace tcdm::explore
