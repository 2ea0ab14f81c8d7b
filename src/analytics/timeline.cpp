#include "src/analytics/timeline.hpp"

#include <algorithm>
#include <ostream>
#include <stdexcept>

namespace tcdm {

double TimelineResult::peak_bw() const noexcept {
  double peak = 0.0;
  for (const TimelineSample& s : samples) {
    peak = std::max(peak, s.bw_per_cycle(interval));
  }
  return peak;
}

double TimelineResult::avg_bw() const noexcept {
  if (total_cycles == 0) return 0.0;
  double bytes = 0.0;
  for (const TimelineSample& s : samples) bytes += s.bytes_loaded + s.bytes_stored;
  return bytes / static_cast<double>(total_cycles);
}

TimelineResult record_timeline(Cluster& cluster, unsigned interval, Cycle max_cycles) {
  if (interval == 0) throw std::invalid_argument("timeline: interval must be positive");
  TimelineResult out;
  out.interval = interval;

  double last_loaded = cluster.bytes_loaded();
  double last_stored = cluster.bytes_stored();
  double last_flops = cluster.total_flops();
  // Cluster::run stops exactly at its budget in every stepping mode, so one
  // run per interval samples at the same cycles as stepping would.
  while (!out.all_halted && out.total_cycles < max_cycles) {
    const RunOutcome run =
        cluster.run(std::min<Cycle>(interval, max_cycles - out.total_cycles));
    out.total_cycles += run.cycles;
    out.all_halted = run.all_halted;
    const double loaded = cluster.bytes_loaded();
    const double stored = cluster.bytes_stored();
    const double flops = cluster.total_flops();
    out.samples.push_back(TimelineSample{cluster.now(), loaded - last_loaded,
                                         stored - last_stored, flops - last_flops});
    last_loaded = loaded;
    last_stored = stored;
    last_flops = flops;
  }
  return out;
}

void write_timeline_csv(std::ostream& os, const TimelineResult& timeline) {
  os << "cycle,bytes_loaded,bytes_stored,flops,bw_B_per_cycle\n";
  for (const TimelineSample& s : timeline.samples) {
    os << s.cycle << ',' << s.bytes_loaded << ',' << s.bytes_stored << ',' << s.flops
       << ',' << s.bw_per_cycle(timeline.interval) << '\n';
  }
}

void write_timeline_chrome_trace(std::ostream& os, const TimelineResult& timeline,
                                 const std::string& track_name) {
  // Counter events: ts is in "microseconds"; we map 1 cycle -> 1 us, which
  // trace viewers render as a clean per-cycle axis.
  os << "[\n";
  bool first = true;
  for (const TimelineSample& s : timeline.samples) {
    if (!first) os << ",\n";
    first = false;
    os << R"({"name":")" << track_name << R"(","ph":"C","pid":1,"ts":)" << s.cycle
       << R"(,"args":{"bw_B_per_cycle":)" << s.bw_per_cycle(timeline.interval)
       << R"(,"flops":)" << s.flops << "}}";
  }
  os << "\n]\n";
}

}  // namespace tcdm
