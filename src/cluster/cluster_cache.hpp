// ClusterCache: a small LRU of constructed Cluster instances, keyed by the
// full configuration plus the stepping mode. Building a cluster allocates
// every tile, bank and queue; sweeps and design-space exploration run
// thousands of scenarios over a handful of config shapes, so
// reusing one cluster per shape through Cluster::reset() removes that
// construction cost from the per-scenario path (docs/ARCHITECTURE.md, P2:
// a reset cluster is bit-identical to a freshly constructed one).
//
// Not thread-safe: use one cache per sweep worker thread. The capacity
// default (4) covers the alternating config shapes of the paper-table
// suites; eviction is strict LRU.
#pragma once

#include <algorithm>
#include <cassert>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/cluster.hpp"

namespace tcdm {

class ClusterCache {
 public:
  explicit ClusterCache(std::size_t capacity = 4) : capacity_(capacity) {
    assert(capacity_ >= 1);
  }

  /// A cluster for (cfg, sim), reset to its just-constructed state. The
  /// reference stays valid until the entry is evicted — i.e. at least until
  /// `capacity - 1` further distinct shapes have been acquired.
  [[nodiscard]] Cluster& acquire(const ClusterConfig& cfg, const SimOptions& sim) {
    const std::string key = cache_key(cfg, sim);
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].key == key) {
        if (i != 0) std::rotate(entries_.begin(), entries_.begin() + i,
                                entries_.begin() + i + 1);  // move hit to MRU front
        ++hits_;
        entries_.front().cluster->reset();
        return *entries_.front().cluster;
      }
    }
    ++misses_;
    if (entries_.size() == capacity_) entries_.pop_back();
    entries_.insert(entries_.begin(),
                    Entry{key, std::make_unique<Cluster>(cfg, sim)});
    return *entries_.front().cluster;
  }

  [[nodiscard]] std::size_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::size_t misses() const noexcept { return misses_; }

  /// Cache identity of a (config, sim-options) pair. The stepping mode is
  /// part of the key: it never changes simulated results, but it is
  /// per-instance state.
  [[nodiscard]] static std::string cache_key(const ClusterConfig& cfg,
                                             const SimOptions& sim) {
    return cfg.to_json().dump_compact() + "|s" +
           std::to_string(static_cast<unsigned>(sim.stepping));
  }

 private:
  struct Entry {
    std::string key;
    std::unique_ptr<Cluster> cluster;
  };

  std::size_t capacity_;
  std::vector<Entry> entries_;  // MRU first
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

}  // namespace tcdm
