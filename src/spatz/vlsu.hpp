// Spatz Vector Load/Store Unit.
//
// K request/response ports (K == FPUs, as in the paper §II-B). Each cycle
// the active vector memory instruction generates one *beat*: up to K element
// accesses, one per port (element e uses port e mod K). Loads pre-allocate
// one in-order ROB slot per element on their port; the Burst Sender then
// routes the beat (local / narrow remote / coalesced burst). Responses fill
// ROB slots out of order; each port retires at most one element per cycle in
// order, advancing the instruction's element watermark so chained consumers
// can proceed.
//
// Stores are posted: they are issued narrow (the paper bursts only loads),
// counted in `outstanding_stores_` and acknowledged out of the response
// network; barriers wait for the counter to drain.
//
// issue()/dispatch run inside the core phase: everything here is per-core
// state, and the network hand-off goes through TileServices (see
// network.hpp).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/stats.hpp"
#include "src/common/types.hpp"
#include "src/burst/burst_sender.hpp"
#include "src/memory/rob.hpp"
#include "src/spatz/vinstr.hpp"
#include "src/spatz/vrf.hpp"

namespace tcdm {

struct ClusterConfig;

class Vlsu {
 public:
  /// K = `vlsu_ports` ports with a `rob_depth`-slot ROB each; the Burst
  /// Sender reads its switches from the same config.
  explicit Vlsu(const ClusterConfig& cfg);

  void attach_stats(StatsRegistry& reg, const std::string& prefix);

  [[nodiscard]] bool can_start() const noexcept { return active_ < 0; }
  void start(unsigned slot, std::array<VInstr, kVInstrSlots>& pool);

  /// Retire phase (run first in the core cycle so watermark updates are
  /// visible to the FPU in the same cycle): pop ready ROB heads. A fully
  /// retired load releases its scoreboard groups and pool slot.
  void retire(std::array<VInstr, kVInstrSlots>& pool, VectorRegFile& vrf, Scoreboard& sb);

  /// Issue phase: generate at most one beat for the active instruction and
  /// drain the Burst Sender into banks/network. A store releases its groups
  /// and pool slot once its last beat is issued.
  void issue(Cycle now, TileServices& tile, std::array<VInstr, kVInstrSlots>& pool,
             VectorRegFile& vrf, Scoreboard& sb);

  // ---- response delivery (from tile / network) ----
  void fill(unsigned port, std::uint16_t rob_slot, Word data);
  void store_ack() {
    assert(outstanding_stores_ > 0);
    --outstanding_stores_;
  }
  [[nodiscard]] BurstSender& sender() noexcept { return sender_; }

  [[nodiscard]] unsigned ports() const noexcept { return ports_; }

  /// Nothing active, staged, or outstanding (barrier / halt drain).
  [[nodiscard]] bool drained() const noexcept;

  /// Event-driven stepping (docs/ARCHITECTURE.md, EV1/EV3): `now` whenever
  /// issue()/retire() could act this cycle; kNoCycle when the unit can only
  /// be advanced by an external response or store-ack delivery, which the
  /// network or the local memory pipeline reports as its own event.
  [[nodiscard]] Cycle earliest_wakeup(Cycle now) const {
    if (active_ >= 0) return now;              // issues or counts a stall every cycle
    if (!sender_.staging_empty()) return now;  // dispatch() drains staged routes
    for (const auto& r : rob_) {
      if (r.head_ready()) return now;  // retire() pops this head next cycle
    }
    return kNoCycle;
  }

  [[nodiscard]] double words_loaded() const noexcept { return words_loaded_.value(); }
  [[nodiscard]] double words_stored() const noexcept { return words_stored_.value(); }

  /// Back to the just-constructed state (empty ROBs, free burst table,
  /// no outstanding stores). Counters are reset by the StatsRegistry owner.
  void reset() {
    active_ = -1;
    retiring_.clear();
    for (ReorderBuffer& r : rob_) r.clear();
    sender_.reset();
    outstanding_stores_ = 0;
  }

 private:
  void update_watermark(VInstr& instr) const;

  unsigned ports_;
  int active_ = -1;
  std::vector<unsigned> retiring_;  // fully-issued loads awaiting responses
  std::vector<ReorderBuffer> rob_;
  BurstSender sender_;
  unsigned outstanding_stores_ = 0;
  Counter words_loaded_;
  Counter words_stored_;
  Counter beats_;
  Counter issue_stall_cycles_;
};

}  // namespace tcdm
