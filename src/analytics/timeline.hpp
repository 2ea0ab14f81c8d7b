// Bandwidth timeline recorder: runs a prepared cluster one `interval` at a
// time through Cluster::run (so in its SteppingMode) and samples the
// aggregate traffic/compute counters after each interval.
// The resulting series shows *when* a kernel is memory-bound (per-interval
// bandwidth pinned at the contended ceiling) versus compute-bound or
// synchronization-bound (bandwidth troughs at barriers) — the temporal view
// behind the time-averaged numbers of the paper's Fig. 3.
//
// Output formats: CSV (one row per sample) and Chrome trace-event JSON
// (counter events, loadable in chrome://tracing or Perfetto).
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "src/cluster/cluster.hpp"

namespace tcdm {

struct TimelineSample {
  Cycle cycle = 0;          // end of the sampled interval
  double bytes_loaded = 0;  // delta over the interval
  double bytes_stored = 0;
  double flops = 0;
  /// Interval-average bandwidth in B/cycle (loads + stores).
  [[nodiscard]] double bw_per_cycle(unsigned interval) const noexcept {
    return interval == 0 ? 0.0 : (bytes_loaded + bytes_stored) / interval;
  }
};

struct TimelineResult {
  std::vector<TimelineSample> samples;
  unsigned interval = 0;
  Cycle total_cycles = 0;
  bool all_halted = false;

  /// Peak interval-average bandwidth over the run [B/cycle].
  [[nodiscard]] double peak_bw() const noexcept;
  /// Run-average bandwidth [B/cycle].
  [[nodiscard]] double avg_bw() const noexcept;
};

/// Run `cluster` to completion (or `max_cycles`), sampling every `interval`
/// cycles. The caller has already loaded a program / run Kernel::setup;
/// without one Cluster::run throws std::logic_error.
/// A final partial interval is recorded if the run ends mid-interval.
[[nodiscard]] TimelineResult record_timeline(Cluster& cluster, unsigned interval,
                                             Cycle max_cycles = 50'000'000);

/// CSV with header: cycle,bytes_loaded,bytes_stored,flops,bw_B_per_cycle.
void write_timeline_csv(std::ostream& os, const TimelineResult& timeline);

/// Chrome trace-event JSON ("ph":"C" counter events on one process track),
/// loadable in chrome://tracing / Perfetto. One counter tick per sample.
void write_timeline_chrome_trace(std::ostream& os, const TimelineResult& timeline,
                                 const std::string& track_name);

}  // namespace tcdm
