#include "src/spatz/spatz.hpp"

#include <cassert>

#include "src/cluster/cluster_config.hpp"

namespace tcdm {

Spatz::Spatz(const ClusterConfig& cfg)
    : vrf_(cfg.vlen_bits),
      viq_(cfg.viq_depth),
      vfpu_(cfg.vlsu_ports, cfg.fpu_latency),
      vlsu_(cfg) {}

void Spatz::attach_stats(StatsRegistry& reg, const std::string& prefix) {
  vfpu_.attach_stats(reg, prefix + ".vfpu");
  vlsu_.attach_stats(reg, prefix + ".vlsu");
  static constexpr std::string_view kStats[] = {".vinstrs_issued", ".issue_hazard_stalls"};
  reg.block(prefix, kStats, {&issued_, &issue_hazard_stalls_});
}

void Spatz::reset() {
  for (VInstr& v : pool_) v.reset();
  sb_ = Scoreboard{};
  viq_.clear();
  // Full micro-architectural reset so a reused cluster is bit-identical to a
  // fresh one (docs/ARCHITECTURE.md, P2). All of this is already in its
  // initial state when called on a freshly constructed Spatz.
  vrf_.reset();
  vfpu_.reset();
  vlsu_.reset();
}

void Spatz::viq_push(const DispatchedV& d) {
  const bool ok = viq_.try_push(d);
  assert(ok);
  (void)ok;
}

void Spatz::cycle_retire() { vlsu_.retire(pool_, vrf_, sb_); }

void Spatz::cycle_issue() {
  if (viq_.empty()) return;
  const DispatchedV& d = viq_.front();
  const bool is_mem = is_vector_memory(d.op);

  if (is_mem ? !vlsu_.can_start() : !vfpu_.can_start()) return;

  // Hazard check: destination group must be fully idle (no renaming);
  // sources are fine even mid-write (chaining reads the watermark).
  if (!sb_.dests_free(d)) {
    issue_hazard_stalls_.inc();
    return;
  }

  int slot = -1;
  for (unsigned s = 0; s < kVInstrSlots; ++s) {
    if (!pool_[s].valid) {
      slot = static_cast<int>(s);
      break;
    }
  }
  if (slot < 0) {
    issue_hazard_stalls_.inc();
    return;
  }

  VInstr& instr = pool_[static_cast<unsigned>(slot)];
  instr.reset();
  instr.valid = true;
  instr.d = d;
  sb_.acquire(d, static_cast<unsigned>(slot));

  if (is_mem) {
    vlsu_.start(static_cast<unsigned>(slot), pool_);
  } else {
    vfpu_.start(static_cast<unsigned>(slot));
  }
  issued_.inc();
  (void)viq_.pop();
}

void Spatz::cycle_exec(Cycle now, TileServices& tile) {
  vfpu_.cycle(now, pool_, vrf_, sb_);
  vlsu_.issue(now, tile, pool_, vrf_, sb_);
}

bool Spatz::fully_idle() const {
  if (!viq_.empty() || !vfpu_.idle() || !vlsu_.drained()) return false;
  for (const VInstr& v : pool_) {
    if (v.valid) return false;
  }
  return true;
}

}  // namespace tcdm
