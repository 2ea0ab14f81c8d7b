// Tile: one Core Complex, its SPM banks, the tile-local full crossbar
// (modeled as direct bank-queue access), a Burst Manager, and the routing
// glue between banks, the core and the hierarchical network.
#pragma once

#include <cassert>
#include <memory>
#include <vector>

#include "src/burst/burst_manager.hpp"
#include "src/cluster/cluster_config.hpp"
#include "src/cluster/tile_services.hpp"
#include "src/memory/spm_bank.hpp"
#include "src/spatz/core_complex.hpp"

namespace tcdm {

class Tile final : public TileServices {
 public:
  Tile(const ClusterConfig& cfg, TileId id, HierNetwork& net, const AddressMap& map,
       Barrier& barrier, StatsRegistry& stats);

  // ---- TileServices ----
  [[nodiscard]] HierNetwork& net() override { return net_; }
  [[nodiscard]] const AddressMap& map() const override { return map_; }
  [[nodiscard]] TileId tile_id() const override { return id_; }

  // ---- per-cycle stages ----
  void cycle_cores(Cycle now);
  void cycle_memory(Cycle now);

  [[nodiscard]] CoreComplex& cc() noexcept { return *cc_; }
  [[nodiscard]] const CoreComplex& cc() const noexcept { return *cc_; }
  [[nodiscard]] SpmBank& bank(unsigned b) {
    assert(b < banks_.size());
    return banks_[b];
  }
  [[nodiscard]] bool memory_busy() const;
  /// True when cycle_memory(now) would be a strict no-op: no queued bank or
  /// burst-manager work and nothing waiting on this tile's slave ports. The
  /// cluster's quiescence fast-path skips the whole memory stage then. (The
  /// stage's round-robin cursors are derived from `now`, not from call
  /// counts, precisely so skipped cycles leave no state behind.)
  [[nodiscard]] bool memory_quiescent() const;

  /// Back to the just-constructed state: zeroed bank storage, empty queues,
  /// free burst machinery, reset core complex. Part of the Cluster::reset()
  /// reuse contract (docs/ARCHITECTURE.md, P2).
  void reset();

 private:
  void accept_slave_requests();
  void route_bank_responses(Cycle now);
  [[nodiscard]] bool try_local_push(unsigned bank_in_tile, const BankReq& req) override;

  TileId id_;
  HierNetwork& net_;
  const AddressMap& map_;
  std::vector<SpmBank> banks_;
  unsigned busy_banks_ = 0;  // banks with queued work (O(1) memory_busy)
  BurstManager bm_;
  std::unique_ptr<CoreComplex> cc_;
};

}  // namespace tcdm
