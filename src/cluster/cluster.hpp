// Cluster: the complete simulated MemPool-Spatz instance — tiles (cores +
// banks + burst managers), the hierarchical network, the central barrier and
// the cycle loop. This is the main entry point of the library's public API:
//
//   ClusterConfig cfg = ClusterConfig::mp4spatz4().with_burst(4);
//   Cluster cluster(cfg);
//   cluster.load_program(program);           // same binary on every hart
//   cluster.write_f32(addr, 1.5f);           // preload data (host backdoor)
//   RunOutcome out = cluster.run();
//   double bw = cluster.bytes_accessed() / double(out.cycles);
//
// Each simulated cycle runs the phase sequence core/VLSU issue -> network &
// burst routing -> bank access & response emission -> barrier/watchdog on
// the calling thread, visiting tiles in ascending index order within a
// phase (docs/CONCURRENCY.md, D1).
#pragma once

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "src/cluster/barrier.hpp"
#include "src/cluster/cluster_config.hpp"
#include "src/cluster/tile.hpp"
#include "src/common/sim_time.hpp"
#include "src/common/stats.hpp"

namespace tcdm {

struct RunOutcome {
  Cycle cycles = 0;
  bool all_halted = false;
};

/// How advance() moves Cluster::run() and System::run() through time. All
/// modes produce bit-identical simulations (same cycle counts, same
/// statistics registry, same memory image); only the host-side
/// Cluster::cycles_skipped() differs. See docs/ARCHITECTURE.md for the wakeup contract that makes the
/// event-driven mode provably exact.
enum class SteppingMode : std::uint8_t {
  /// Next-event skipping (default): when every component agrees the next
  /// event is at cycle t+k, jump the clock by k and bulk-apply the declared
  /// per-cycle stall counters instead of stepping k idle cycles.
  kEventDriven,
  /// Reference loop: visit every cycle (the pre-skip behaviour).
  kCycleByCycle,
  /// Debug: compute each skip decision, then step the claimed-quiet span
  /// cycle by cycle and verify invariants EV1/EV2 of docs/ARCHITECTURE.md,
  /// throwing WakeupContractError on any violation. As slow as
  /// kCycleByCycle; for tests and for validating new components.
  kCrossCheck,
};

/// Host-side simulation options — knobs that change how fast the simulator
/// runs, never what it computes.
struct SimOptions {
  /// Time-advance strategy for run(); step() is always single-cycle.
  SteppingMode stepping = SteppingMode::kEventDriven;
};

/// The one time-advance loop, shared by Cluster::run and System::run: step
/// `sim`, jumping quiet spans as `mode` says, until step() reports the run
/// finished (returns true) or the clock reaches `budget_end` (returns
/// false). `Sim` provides step(), now() and the composable wakeup/skip
/// surface (mem_phase_active, next_event, watchdog_deadline, skip_to,
/// cross_check_to) with the contract documented on Cluster's.
template <class Sim>
bool advance(Sim& sim, Cycle budget_end, SteppingMode mode) {
  while (sim.now() < budget_end) {
    if (sim.step()) return true;
    if (mode == SteppingMode::kCycleByCycle) continue;
    const Cycle now = sim.now();
    if (now >= budget_end) break;
    // O(1) gate before the O(tiles) probe: while any tile's memory stage is
    // streaming beats, some tile has work next cycle too and the probe would
    // answer "no skip" at full-scan cost — precisely the dense workloads
    // where skipping cannot pay. The gate is purely a may-probe filter
    // (missing a skip costs one extra stepped cycle, never correctness) and
    // applies identically in kCrossCheck, so check mode validates exactly
    // the decisions event mode takes.
    if (sim.mem_phase_active()) continue;

    const Cycle event = sim.next_event();
    if (event <= now) continue;  // work this cycle — no skip
    // Never jump past the watchdog deadline (the deadlock diagnostic must
    // fire at the reference cycle) or the caller's cycle budget; declared
    // stall rates still apply to the capped span, so a timed-out run's
    // counters match the reference loop exactly.
    const Cycle jump_to = std::min(std::min(event, sim.watchdog_deadline()), budget_end);
    if (jump_to <= now) continue;

    if (mode == SteppingMode::kEventDriven) {
      sim.skip_to(jump_to);
    } else {
      sim.cross_check_to(event, jump_to);
    }
  }
  return false;
}

class Cluster final : public RspSink {
 public:
  explicit Cluster(const ClusterConfig& cfg, const SimOptions& sim = {});

  [[nodiscard]] const ClusterConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] StatsRegistry& stats() noexcept { return stats_; }
  [[nodiscard]] const StatsRegistry& stats() const noexcept { return stats_; }
  [[nodiscard]] const AddressMap& map() const noexcept { return map_; }
  [[nodiscard]] Cycle now() const noexcept { return clock_.now(); }

  // ---- program loading ----
  /// Same program on every hart (fork-join style, parameterized by a0/a1).
  void load_program(Program program);
  /// Distinct program per hart.
  void load_programs(std::vector<Program> programs);

  // ---- host backdoor memory access (no timing) ----
  void write_word(Addr addr, Word value);
  [[nodiscard]] Word read_word(Addr addr) const;
  void write_f32(Addr addr, float value) { write_word(addr, f32_to_word(value)); }
  [[nodiscard]] float read_f32(Addr addr) const { return word_to_f32(read_word(addr)); }
  void write_block(Addr addr, std::span<const Word> words);
  void write_block_f32(Addr addr, std::span<const float> values);
  [[nodiscard]] std::vector<float> read_block_f32(Addr addr, std::size_t count) const;

  // ---- simulation ----
  /// Return the cluster to its just-constructed state without reallocating
  /// any of it: clock at 0, all statistics zeroed (Counter handles stay
  /// valid), TCDM zero-filled, every queue/ring/pipeline empty, no program
  /// attached. After reset() + load_program() + preloads, a run is
  /// bit-identical to one on a freshly constructed Cluster with the same
  /// config and SimOptions (docs/ARCHITECTURE.md, P2). Runners reuse one
  /// System per shape (System::reset() resets its clusters through this
  /// entry point) instead of paying construction per scenario.
  void reset();

  /// Advance one cycle; returns true when every hart has halted. Needs a
  /// loaded program.
  bool step();
  /// Run to completion (all harts halted) or `max_cycles`; throws
  /// DeadlockError if the watchdog fires, std::logic_error when no program
  /// is loaded. Advances time according to the
  /// configured SteppingMode; every mode reaches the same states at the
  /// same cycle numbers.
  RunOutcome run(Cycle max_cycles = 50'000'000);

  [[nodiscard]] SteppingMode stepping() const noexcept { return stepping_; }
  /// Quiet cycles jumped over by skip_to() since construction or reset().
  /// 0 for a bare run in kCycleByCycle/kCrossCheck modes; a System also
  /// counts the span a halted cluster stays parked. A host-side diagnostic,
  /// not a registry counter, so the registry is identical in every mode.
  [[nodiscard]] double cycles_skipped() const noexcept {
    return static_cast<double>(cycles_skipped_);
  }

  /// TEST-ONLY: offset every computed earliest-event cycle by `bias` before
  /// acting on it. A positive bias fabricates exactly the bug class the
  /// wakeup contract forbids (a too-late earliest_wakeup, EV1); the
  /// kCrossCheck mode must detect it. Never use outside tests.
  void debug_set_wakeup_bias(Cycle bias) noexcept { wakeup_bias_ = bias; }

  /// Set the watchdog's no-progress window (cycles).
  void set_watchdog_window(Cycle window) { watchdog_.set_window(window); }

  // ---- composable wakeup/skip surface ----
  // What advance() drives, public so an outer loop can also move a cluster
  // itself while the cluster keeps its own EV1–EV3 contract (the System
  // parks a halted cluster with next_event() + skip_to()). The protocol per
  // quiet-span decision is exactly advance()'s:
  //
  //   step() … until it returns false and mem_phase_active() is false,
  //   e = next_event()            — fills the internal SkipPlan,
  //   jump = min(e, watchdog_deadline(), <caller events and budgets>),
  //   skip_to(jump)               — or cross_check_to(e, jump) in check mode.
  //
  // Any callback between next_event() and skip_to() that injects work into
  // the cluster (backdoor writes aside) invalidates the plan; re-query.

  /// True when the last step()'s memory phase had work: some tile streams
  /// beats next cycle too, so a skip probe cannot pay — callers use this as
  /// the O(1) may-probe gate exactly as advance() does.
  [[nodiscard]] bool mem_phase_active() const noexcept { return mem_phase_active_; }

  /// Global next-event query at the current cycle, with the quiet span's
  /// declared per-cycle counter rates captured into the internal plan.
  /// Returns `now` when some component has work this cycle (no skip
  /// possible), kNoCycle when only external events can wake the cluster
  /// (the plan's rates still apply while it waits). Includes the test-only
  /// wakeup bias, so cross-check composition sees the biased value.
  [[nodiscard]] Cycle next_event();

  /// Jump the clock to `target`, bulk-applying the rates declared by the
  /// last next_event() call. Caller contract: now < target <= the cycle
  /// returned by next_event() (clamped by its own deadlines/budgets), and
  /// no cluster state was touched in between.
  void skip_to(Cycle target);

  /// kCrossCheck composition: reference-step [now, target) one cycle at a
  /// time verifying EV1/EV2 against the last next_event() decision (whose
  /// claimed event cycle is `claimed_event`), throwing WakeupContractError
  /// on any violation.
  void cross_check_to(Cycle claimed_event, Cycle target);

  /// Cycle at which the deadlock watchdog must fire (kNoCycle-saturating);
  /// composed skips must never jump past it.
  [[nodiscard]] Cycle watchdog_deadline() const noexcept { return watchdog_.deadline(); }

  // ---- RspSink ----
  void deliver_rsp(const TcdmResp& rsp, Cycle now) override;

  [[nodiscard]] Tile& tile(TileId id) { return *tiles_.at(id); }
  [[nodiscard]] unsigned num_tiles() const noexcept {
    return static_cast<unsigned>(tiles_.size());
  }
  [[nodiscard]] Barrier& barrier() noexcept { return barrier_; }
  [[nodiscard]] HierNetwork& network() noexcept { return *net_; }

  // ---- aggregate metrics (over the whole run so far) ----
  [[nodiscard]] double vector_flops() const { return stats_.sum_suffix(".vfpu.flops"); }
  [[nodiscard]] double scalar_flops() const { return stats_.sum_suffix(".scalar_flops"); }
  [[nodiscard]] double total_flops() const { return vector_flops() + scalar_flops(); }
  /// Core<->TCDM traffic in bytes (vector + scalar, loads + stores).
  [[nodiscard]] double bytes_accessed() const;
  [[nodiscard]] double bytes_loaded() const;
  [[nodiscard]] double bytes_stored() const;

 private:
  /// Global next-event query (docs/ARCHITECTURE.md): the minimum
  /// earliest_wakeup over every non-halted CC, every non-quiescent tile
  /// memory stage, the network and a pending barrier release — with the
  /// quiet span's declared per-cycle counter rates collected into `plan` in
  /// the same traversal. Returns `now` as soon as any component has work
  /// this cycle (the plan is then meaningless and discarded by the caller).
  Cycle earliest_event(SkipPlan& plan);

  /// Host block I/O: checks once that the `count` words from `addr` lie in
  /// the TCDM, else throws std::out_of_range("<what>: bad TCDM address")
  /// before touching any, then calls fn(i, storage of word i) for each.
  /// `Self` is Cluster or const Cluster.
  template <typename Self, typename Fn>
  static void for_each_word(Self& self, Addr addr, std::size_t count, const char* what, Fn fn);

  ClusterConfig cfg_;
  Topology topo_;
  AddressMap map_;
  StatsRegistry stats_;
  Barrier barrier_;
  std::unique_ptr<HierNetwork> net_;
  std::vector<std::unique_ptr<Tile>> tiles_;
  std::vector<Program> programs_;
  SimClock clock_;
  Watchdog watchdog_;
  double last_progress_token_ = -1.0;

  // ---- event-driven stepping state ----
  SteppingMode stepping_ = SteppingMode::kEventDriven;
  SkipPlan plan_;                       // reused across skip decisions
  unsigned scan_hint_ = 0;  // tile that most recently had work; earliest_event
                            // starts its scan there so a busy cluster answers
                            // "no skip" in O(1) (scan order never affects the
                            // result — the plan's counter sums commute)
  Cycle wakeup_bias_ = 0;   // test-only fault injection (debug_set_wakeup_bias)
  bool mem_phase_active_ = false;  // last step had memory-phase work (probe gate)
  Cycle cycles_skipped_ = 0;  // cycles_skipped()
  // Cross-check scratch (lazily sized; kCrossCheck only).
  std::vector<double> xc_expected_;
  std::vector<double> xc_after_;
  std::vector<const double*> xc_slots_;
};

}  // namespace tcdm
