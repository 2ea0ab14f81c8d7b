// Spatz vector FPU: K fully-pipelined FMA lanes (K == the paper's "FPUs per
// Spatz"). Each cycle the active instruction processes up to K elements,
// provided its source watermarks have advanced far enough (chaining off
// in-flight loads/arithmetic). Results become architecturally visible —
// i.e. the destination watermark advances — after the pipeline latency.
//
// vfredusum occupies the lanes for ceil(vl/K) + log2(K) cycles (partial-sum
// accumulation + lane reduction tree) before draining through the pipeline.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "src/common/bounded_queue.hpp"
#include "src/common/stats.hpp"
#include "src/common/types.hpp"
#include "src/spatz/vinstr.hpp"
#include "src/spatz/vrf.hpp"

namespace tcdm {

class Vfpu {
 public:
  Vfpu(unsigned lanes, unsigned latency);

  void attach_stats(StatsRegistry& reg, const std::string& prefix);

  /// Unit can accept a new instruction (previous one fully issued; its tail
  /// may still be draining through the pipeline).
  [[nodiscard]] bool can_start() const noexcept { return active_ < 0; }
  void start(unsigned slot);

  /// Drain the pipe (a fully retired instruction releases its scoreboard
  /// groups and pool slot), then issue the next batch or reduction.
  void cycle(Cycle now, std::array<VInstr, kVInstrSlots>& pool, VectorRegFile& vrf,
             Scoreboard& sb);

  [[nodiscard]] bool idle() const noexcept { return active_ < 0 && pipe_.empty(); }
  [[nodiscard]] double flops() const noexcept { return flops_.value(); }

  /// Back to the just-constructed state (no active instruction, empty pipe).
  void reset() {
    active_ = -1;
    busy_until_ = 0;
    pipe_.clear();
  }

  /// Event-driven stepping (docs/ARCHITECTURE.md, EV1/EV2): the unit's next
  /// state change is the pipeline head's completion and/or the end of a
  /// reduction's lane occupancy; a busy reduction span declares its
  /// busy_cycles counter rate into `plan`. Pipe entries are pushed with
  /// monotonically non-decreasing `done`, so the head is the earliest.
  [[nodiscard]] Cycle earliest_wakeup(Cycle now, SkipPlan& plan) const {
    Cycle wake = pipe_.empty() ? kNoCycle : pipe_.front().done;
    if (active_ >= 0) {
      if (now >= busy_until_) return now;  // issuing (or chain-stalling) every cycle
      plan.add(busy_cycles_, 1.0);
      wake = std::min(wake, busy_until_);
    }
    return wake;
  }

 private:
  struct PipeEntry {
    Cycle done = 0;
    std::uint8_t slot = 0;
    std::uint32_t upto = 0;  // watermark value once `done` is reached
  };

  void exec_batch(VInstr& instr, VectorRegFile& vrf, unsigned e0, unsigned n);

  unsigned lanes_;
  unsigned latency_;
  int active_ = -1;
  Cycle busy_until_ = 0;  // reduction lane occupancy
  // Ring, not deque: occupancy is architecturally bounded. The pipe drains
  // every entry with done <= now at the top of cycle() and pushes at most
  // one entry per cycle, each living `latency_` cycles — except a reduction
  // entry (done = busy_until_ + latency_), which coexists with at most
  // `latency_` element entries pushed after the lanes free. Bound:
  // latency_ + 1; capacity latency_ + 4 leaves margin (asserted on push).
  BoundedQueue<PipeEntry> pipe_;
  Counter flops_;
  Counter busy_cycles_;
  Counter stall_cycles_;  // active instruction waiting on source watermarks
};

}  // namespace tcdm
