// Core Complex (CC): one Snitch scalar core + one Spatz vector unit, the
// processing element of the MemPool-Spatz cluster. The CC is also the
// response sink for all memory traffic the pair generates.
#pragma once

#include <cstdint>
#include <string>

#include "src/common/stats.hpp"
#include "src/common/types.hpp"
#include "src/cluster/barrier.hpp"
#include "src/cluster/tile_services.hpp"
#include "src/isa/program.hpp"
#include "src/memory/mem_types.hpp"
#include "src/spatz/snitch.hpp"
#include "src/spatz/spatz.hpp"

namespace tcdm {

class CoreComplex {
 public:
  CoreComplex(const SpatzConfig& cfg, CoreId hartid, unsigned num_harts,
              Barrier& barrier);

  void attach_stats(StatsRegistry& reg, const std::string& prefix);
  void load_program(const Program* prog, Cycle start_cycle = 0);

  /// Back to the just-constructed state (docs/ARCHITECTURE.md, P2): detach
  /// the program and fully reset both the scalar and the vector half.
  void reset() {
    snitch_.reset();
    spatz_.reset();
  }

  void cycle(Cycle now, TileServices& tile);

  [[nodiscard]] bool halted() const noexcept { return snitch_.halted(); }
  [[nodiscard]] CoreId hartid() const noexcept { return hartid_; }

  /// Event-driven stepping (docs/ARCHITECTURE.md, EV1–EV3): earliest cycle
  /// at which this CC could change state absent external events, with any
  /// per-cycle stall counters of the intervening quiet span declared into
  /// `plan`. Both halves are consulted: even while the Snitch waits, Spatz
  /// pipeline drains are timed events of this component.
  [[nodiscard]] Cycle earliest_wakeup(Cycle now, SkipPlan& plan) const {
    const Cycle ws = snitch_.earliest_wakeup(now, spatz_, barrier_, plan);
    if (ws <= now) return now;
    return std::min(ws, spatz_.earliest_wakeup(now, plan));
  }

  // ---- response delivery ----
  void deliver_remote(const TcdmResp& rsp, Cycle now);
  void deliver_local(const BankResp& rsp, Cycle now);

  /// Monotone activity token for the cluster watchdog.
  [[nodiscard]] double progress_token() const;

  [[nodiscard]] Snitch& snitch() noexcept { return snitch_; }
  [[nodiscard]] Spatz& spatz() noexcept { return spatz_; }

 private:
  CoreId hartid_;
  Barrier& barrier_;
  Snitch snitch_;
  Spatz spatz_;
};

}  // namespace tcdm
