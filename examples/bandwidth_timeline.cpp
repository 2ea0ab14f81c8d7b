// Bandwidth timeline: record the per-interval achieved bandwidth of a DotP
// run on MP4Spatz4, baseline vs GF4 burst, and emit CSV plus Chrome
// trace-event JSON for visual inspection (chrome://tracing, Perfetto).
//
//   $ ./bandwidth_timeline [out_dir]
//
// Writes <out_dir>/timeline_{baseline,gf4}.{csv,json} (default: cwd) and
// prints a summary; a file it cannot write exits 2 and names the path. The timeline makes the paper's Fig. 1 serialization
// visible over time: the baseline trace is pinned at the contended
// bandwidth, the burst trace at several times that, with a trough at the
// end-of-kernel barrier in both.
#include <cstdio>
#include <fstream>
#include <string>

#include "src/analytics/timeline.hpp"
#include "src/cluster/cluster.hpp"
#include "src/kernels/dotp.hpp"

namespace {

tcdm::TimelineResult run_one(const tcdm::ClusterConfig& cfg, const std::string& stem) {
  tcdm::Cluster cluster(cfg);
  tcdm::DotpKernel dotp(4096);
  dotp.setup(cluster);
  const tcdm::TimelineResult timeline = tcdm::record_timeline(cluster, /*interval=*/50);
  if (!timeline.all_halted || !dotp.verify(cluster)) {
    std::fprintf(stderr, "%s: run failed to complete/verify\n", stem.c_str());
  }
  return timeline;
}

/// Writes `path` through `write`; false after naming the path.
template <class Write>
bool write_file(const std::string& path, Write write) {
  std::ofstream out(path);
  write(out);
  out.flush();
  if (out) return true;
  std::fprintf(stderr, "bandwidth_timeline: cannot write %s\n", path.c_str());
  return false;
}

/// Writes one run's CSV and trace-event JSON.
bool write_one(const tcdm::TimelineResult& timeline, const std::string& stem,
               const std::string& dir) {
  const std::string path = dir + "/timeline_" + stem;
  return write_file(path + ".csv",
                    [&](std::ostream& os) { tcdm::write_timeline_csv(os, timeline); }) &&
         write_file(path + ".json", [&](std::ostream& os) {
           tcdm::write_timeline_chrome_trace(os, timeline, "tcdm_bw_" + stem);
         });
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tcdm;
  if (argc > 2) {
    std::fprintf(stderr, "usage: %s [out_dir]\n", argv[0]);
    return 2;
  }
  const std::string dir = argc > 1 ? argv[1] : ".";

  std::printf("Recording DotP(4096) bandwidth timelines on MP4Spatz4...\n");
  const TimelineResult base = run_one(ClusterConfig::mp4spatz4(), "baseline");
  const TimelineResult gf4 = run_one(ClusterConfig::mp4spatz4().with_burst(4), "gf4");
  if (!write_one(base, "baseline", dir) || !write_one(gf4, "gf4", dir)) return 2;

  std::printf("\n%-24s %12s %12s\n", "", "baseline", "gf4");
  std::printf("%-24s %12lu %12lu\n", "cycles",
              static_cast<unsigned long>(base.total_cycles),
              static_cast<unsigned long>(gf4.total_cycles));
  std::printf("%-24s %12.2f %12.2f\n", "avg BW [B/cycle]", base.avg_bw(), gf4.avg_bw());
  std::printf("%-24s %12.2f %12.2f\n", "peak interval BW", base.peak_bw(),
              gf4.peak_bw());
  std::printf("%-24s %12zu %12zu\n", "samples", base.samples.size(),
              gf4.samples.size());
  std::printf("\nWrote %s/timeline_{baseline,gf4}.{csv,json}\n", dir.c_str());
  std::printf("Open the .json files in chrome://tracing to compare the tracks.\n");
  return base.all_halted && gf4.all_halted ? 0 : 1;
}
