// System: N identical clusters composed over a modeled L2/NoC with a
// pluggable global barrier — the scale-out layer above Cluster
// (docs/ARCHITECTURE.md, "System layer").
//
// Run timeline (N > 1):
//   kernel phase   every cluster runs its own kernel; a cluster that halts
//                  arrives at the global barrier (generation 0).
//   DMA phase      on the generation-0 release every cluster gathers
//                  `dma_words` from its ring neighbor's TCDM through the
//                  NoC/L2 in bursts of `dma_burst_len` words (one header
//                  round trip per burst, payload streaming capped by the
//                  link width and the shared L2 budget), then arrives again
//                  (generation 1).
//   done           the generation-1 release ends the run.
//
// Clusters interact only through the global-barrier arrival at halt and
// the DMA's backdoor reads of halted clusters, so run() does not step them
// in lockstep. First each cluster runs alone to its halt cycle h_c (or
// fault, or the budget) through Cluster::run. Then the system loop
// advances only the DMA engines and the global barrier, in the serial
// order arrivals replayed at h_c (by cycle, then cluster index) -> DMA/NoC
// cycle -> global barrier -> watchdog: the in-cluster D1 phase contract
// one level up, with L2 grants rotating by cycle number (D3). The same
// advance() loop moves both levels through time, so --stepping check
// steps and verifies the system loop's quiet spans too. Halted
// clusters stay parked; at every exit, a throw included, their clocks catch
// up with one skip_to, so parked spans count in cycles_skipped() in
// every stepping mode.
// Results are bit-identical to stepping every cluster every cycle.
//
// Everything runs on the calling thread, under docs/CONCURRENCY.md S1-S3:
// the kernel phase leaves every cluster halted, faulted or at the budget
// (S1), the system loop is serial (S2), and the earliest fault cycle
// surfaces, ties to the lowest index (S3).
//
// N == 1 degenerates to exactly Cluster::run — same cycles, same stats.
#pragma once

#include <memory>
#include <vector>

#include "src/cluster/cluster.hpp"
#include "src/system/system_config.hpp"

namespace tcdm {

class System {
 public:
  /// N clusters of one shape. `cluster_cfg` is validated per Cluster; `sys`
  /// is validated here, including dma_words against the TCDM capacity.
  System(const SystemConfig& sys, const ClusterConfig& cluster_cfg,
         const SimOptions& sim = {});

  [[nodiscard]] const SystemConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const ClusterConfig& cluster_config() const noexcept {
    return clusters_.front()->config();
  }
  [[nodiscard]] unsigned num_clusters() const noexcept {
    return static_cast<unsigned>(clusters_.size());
  }
  [[nodiscard]] Cluster& cluster(unsigned i) { return *clusters_.at(i); }
  [[nodiscard]] const Cluster& cluster(unsigned i) const { return *clusters_.at(i); }
  [[nodiscard]] Barrier& global_barrier() noexcept { return global_barrier_; }
  [[nodiscard]] Cycle now() const noexcept { return now_; }
  [[nodiscard]] SteppingMode stepping() const noexcept { return stepping_; }

  /// Back to the just-constructed state without reallocating anything:
  /// every cluster reset (P2), global barrier at generation 0, DMA engines
  /// idle, clock at 0. A reset + reload run is bit-identical to one on a
  /// freshly constructed System (docs/ARCHITECTURE.md, P2).
  void reset();

  /// Run to completion (kernel + DMA phases synchronized out) or
  /// `max_cycles`; throws DeadlockError when a cluster or the system-level
  /// watchdog fires. Each cluster runs to its halt alone, then the system
  /// loop advances the DMA engines and the global barrier (see the header
  /// comment); all modes are bit-identical (apart from the host-side
  /// cycles_skipped()). On return every cluster's clock equals now(). On a throw,
  /// now() is the faulting cycle and every cluster parked before it has
  /// caught up to it.
  RunOutcome run(Cycle max_cycles = 50'000'000);

  /// Propagates to every cluster and scales the system watchdog with it.
  void set_watchdog_window(Cycle window);

  // ---- aggregate metrics ----
  [[nodiscard]] double total_flops() const;
  [[nodiscard]] double bytes_accessed() const;
  /// Payload bytes the DMA phase moved across the NoC (all clusters).
  [[nodiscard]] double noc_bytes_transferred() const {
    return static_cast<double>(words_delivered_) * kWordBytes;
  }
  /// Sum of the clusters' cycles_skipped() diagnostics (the system
  /// loop's own jumps move no counter).
  [[nodiscard]] double cycles_skipped() const;
  /// End-to-end DMA integrity: every cluster's delivered-word checksum
  /// matches the golden checksum of its source range (guards the burst
  /// bookkeeping — duplicated, dropped or misordered words all fail).
  [[nodiscard]] bool dma_checksums_ok() const;
  /// True once the run completed (generation-1 release seen; for N == 1,
  /// the cluster halted).
  [[nodiscard]] bool done() const noexcept { return done_; }

  /// TEST-ONLY: offset the system loop's computed next event by `bias`, as
  /// Cluster::debug_set_wakeup_bias does for a cluster's; kCrossCheck must
  /// catch the too-late wakeup (EV1). Never use outside tests.
  void debug_set_wakeup_bias(Cycle bias) noexcept { wakeup_bias_ = bias; }

 private:
  /// Per-cluster DMA gather engine. All timing state is kept as absolute
  /// cycle stamps so an event-driven jump over a header wait needs no
  /// countdown fixup (the same derive-from-now idiom as the in-cluster
  /// round-robin cursors).
  struct DmaEngine {
    enum class State : std::uint8_t { kWait, kHeader, kStream, kDone };
    State state = State::kWait;
    Cycle header_done_at = 0;
    unsigned words_done = 0;
    std::uint64_t checksum = 1469598103934665603ULL;   // FNV-1a rolling
    std::uint64_t golden = 1469598103934665603ULL;     // source-range reference
  };

  /// Kernel phase: every cluster not yet halted runs alone to its halt,
  /// fault or `budget_end`, in ascending index order; rethrows the earliest
  /// fault (S3).
  void run_kernels(Cycle budget_end);
  /// S1 tripwire after cluster `c`'s kernel span ended without a fault: it
  /// has halted or reached `budget_end`.
  void check_kernel_span(unsigned c, Cycle budget_end) const;
  // ---- advance() surface (Cluster's contract, one level up) ----
  template <class Sim>
  friend bool advance(Sim& sim, Cycle budget_end, SteppingMode mode);
  /// One system-loop cycle; returns true once the run is done.
  bool step();
  /// The system loop has no streaming memory phase to gate probes on.
  [[nodiscard]] bool mem_phase_active() const noexcept { return false; }
  /// The system loop's next event: a DMA engine streaming or its header
  /// completing, the next replayed arrival, a pending global barrier
  /// release (plus the test-only bias). Clusters are no part of it: they
  /// have halted (parked) or run to the budget.
  [[nodiscard]] Cycle next_event() const;
  [[nodiscard]] Cycle watchdog_deadline() const noexcept { return watchdog_.deadline(); }
  /// Jump the system clock; no counter moves in a quiet system-loop span.
  void skip_to(Cycle target) { now_ = target; }
  /// kCrossCheck: step [now, target) one cycle at a time, throwing
  /// WakeupContractError (EV1) when a step finishes the run or moves the
  /// next event away from `claimed_event`.
  void cross_check_to(Cycle claimed_event, Cycle target);
  /// Catch every parked (halted) cluster's clock up to now_; with
  /// `check_quiet`, a parked cluster with a pending event is a logic_error.
  void unpark(bool check_quiet);
  void start_dma(Cycle now);
  void dma_cycle(Cycle now);
  [[nodiscard]] Cycle dma_next_event() const;

  SystemConfig cfg_;
  SteppingMode stepping_ = SteppingMode::kEventDriven;
  std::vector<std::unique_ptr<Cluster>> clusters_;
  Barrier global_barrier_;
  std::vector<DmaEngine> dma_;
  std::vector<Cycle> halt_at_;  // per cluster: halt cycle, kNoCycle while running
  unsigned kernels_running_ = 0;  // clusters not yet arrived
  bool dma_started_ = false;
  bool done_ = false;
  std::uint64_t words_delivered_ = 0;
  Cycle now_ = 0;
  Watchdog watchdog_;
  double last_progress_token_ = -1.0;
  Cycle wakeup_bias_ = 0;  // test-only fault injection (debug_set_wakeup_bias)
};

}  // namespace tcdm
