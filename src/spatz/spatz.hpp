// Spatz vector unit: vector instruction queue, in-order issue with
// scoreboard hazard checks, the K-lane VFPU and the K-port VLSU. One
// instruction can be active per unit; chaining between them flows through
// element watermarks, which is what lets a vfmacc start consuming a vle32's
// elements while the tail of the load is still in flight.
#pragma once

#include <array>
#include <string>

#include "src/common/bounded_queue.hpp"
#include "src/common/stats.hpp"
#include "src/common/types.hpp"
#include "src/spatz/vfpu.hpp"
#include "src/spatz/vinstr.hpp"
#include "src/spatz/vlsu.hpp"
#include "src/spatz/vrf.hpp"

namespace tcdm {

struct ClusterConfig;

class Spatz {
 public:
  /// Reads the config's VLEN, K (`vlsu_ports`: FPUs == VLSU ports), queue
  /// depths, FPU latency and burst switches.
  explicit Spatz(const ClusterConfig& cfg);

  void attach_stats(StatsRegistry& reg, const std::string& prefix);
  void reset();

  // ---- Snitch side: dispatch, VLMAX for vsetvli, the barrier idle check ----
  [[nodiscard]] bool viq_can_accept() const { return !viq_.full(); }
  void viq_push(const DispatchedV& d);
  [[nodiscard]] unsigned vlmax(Lmul lmul) const { return vrf_.vlmax(lmul); }
  /// No queued, in-flight or outstanding vector work (memory fully drained).
  [[nodiscard]] bool fully_idle() const;

  // ---- pipeline stages (called by the Core Complex each cycle) ----
  /// Retire memory responses first so watermarks are fresh for the FPU.
  void cycle_retire();
  /// Issue at most one instruction from the VIQ to a free unit.
  void cycle_issue();
  /// Execute: FPU batches, VLSU beat generation and request dispatch.
  void cycle_exec(Cycle now, TileServices& tile);

  /// Event-driven stepping (docs/ARCHITECTURE.md, EV1): earliest cycle any
  /// pipeline stage could change state, absent external responses. A
  /// non-empty VIQ issues (or counts a hazard stall) every cycle; otherwise
  /// only the units' own timed events remain.
  [[nodiscard]] Cycle earliest_wakeup(Cycle now, SkipPlan& plan) const {
    if (!viq_.empty()) return now;
    return std::min(vlsu_.earliest_wakeup(now), vfpu_.earliest_wakeup(now, plan));
  }

  [[nodiscard]] Vlsu& vlsu() noexcept { return vlsu_; }
  [[nodiscard]] const Vlsu& vlsu() const noexcept { return vlsu_; }
  [[nodiscard]] Vfpu& vfpu() noexcept { return vfpu_; }
  [[nodiscard]] const Vfpu& vfpu() const noexcept { return vfpu_; }
  [[nodiscard]] VectorRegFile& vrf() noexcept { return vrf_; }
  [[nodiscard]] const VectorRegFile& vrf() const noexcept { return vrf_; }

 private:
  VectorRegFile vrf_;
  Scoreboard sb_;
  std::array<VInstr, kVInstrSlots> pool_{};
  BoundedQueue<DispatchedV> viq_;
  Vfpu vfpu_;
  Vlsu vlsu_;
  Counter issued_;
  Counter issue_hazard_stalls_;
};

}  // namespace tcdm
