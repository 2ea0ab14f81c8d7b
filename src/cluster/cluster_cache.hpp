// ClusterCache: a small LRU of constructed System instances — the one reuse
// policy for every scenario, since a plain cluster scenario runs as a
// one-cluster System (SystemConfig::single). Entries are keyed by the System
// shape, the cluster shape and the stepping mode. Building a cluster
// allocates every tile, bank and queue; sweeps and design-space exploration
// run thousands of scenarios over a handful of shapes, so reusing one
// System per shape through System::reset() removes that construction cost
// from the per-scenario path (docs/ARCHITECTURE.md, P2: a reset System is
// bit-identical to a freshly constructed one).
//
// Not thread-safe: use one cache per sweep worker thread. The capacity
// (default 4) counts clusters, not entries: it covers the alternating
// config shapes of the paper-table suites, and a miss evicts least
// recently used entries *before* constructing until the new System fits,
// so a large System never coexists with the entries it displaces. The
// entry just acquired is always kept, even when it alone exceeds the
// capacity; the next miss evicts it.
#pragma once

#include <algorithm>
#include <cassert>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/cluster.hpp"
#include "src/system/system.hpp"

namespace tcdm {

class ClusterCache {
 public:
  explicit ClusterCache(std::size_t capacity = 4) : capacity_(capacity) {
    assert(capacity_ >= 1);
  }

  /// A System for (sys, cfg, sim), reset to its just-constructed state. The
  /// reference stays valid until the entry is evicted — at the earliest by
  /// the next miss.
  [[nodiscard]] System& acquire(const SystemConfig& sys, const ClusterConfig& cfg,
                                const SimOptions& sim) {
    const std::string key = cache_key(sys, cfg, sim);
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].key == key) {
        if (i != 0) std::rotate(entries_.begin(), entries_.begin() + i,
                                entries_.begin() + i + 1);  // move hit to MRU front
        ++hits_;
        entries_.front().system->reset();
        return *entries_.front().system;
      }
    }
    ++misses_;
    while (!entries_.empty() && clusters_held_ + sys.num_clusters > capacity_) {
      clusters_held_ -= entries_.back().system->num_clusters();
      entries_.pop_back();
    }
    entries_.insert(entries_.begin(),
                    Entry{key, std::make_unique<System>(sys, cfg, sim)});
    clusters_held_ += sys.num_clusters;
    return *entries_.front().system;
  }

  /// The cluster of the one-cluster System a plain cluster scenario runs as.
  [[nodiscard]] Cluster& acquire(const ClusterConfig& cfg, const SimOptions& sim) {
    return acquire(SystemConfig::single(cfg), cfg, sim).cluster(0);
  }

  [[nodiscard]] std::size_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::size_t misses() const noexcept { return misses_; }

  /// Cache identity of a (System config, cluster config, sim-options)
  /// triple. The stepping mode is part of the key: it never changes
  /// simulated results, but it is per-instance state.
  [[nodiscard]] static std::string cache_key(const SystemConfig& sys,
                                             const ClusterConfig& cfg,
                                             const SimOptions& sim) {
    return sys.to_json().dump_compact() + "|" + cfg.to_json().dump_compact() + "|s" +
           std::to_string(static_cast<unsigned>(sim.stepping));
  }

 private:
  struct Entry {
    std::string key;
    std::unique_ptr<System> system;
  };

  std::size_t capacity_;
  std::vector<Entry> entries_;  // MRU first
  std::size_t clusters_held_ = 0;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

}  // namespace tcdm
