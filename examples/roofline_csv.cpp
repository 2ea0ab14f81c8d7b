// Emit a roofline CSV (Fig. 3 style) for a chosen cluster configuration:
// the ideal and measured bandwidth roofs plus the paper's kernels as sample
// points. The probe and the kernel points are the baseline points of the
// builtin fig3_roofline suite, run on the chosen grouping factor. Pipe the
// output into your favourite plotting tool.
//
//   $ ./roofline_csv [preset] [gf] > roofline.csv
//   $ ./roofline_csv mp4spatz4 4 > roofline.csv
//
// A bad argument (an unknown preset, a grouping factor that is not an
// integer or out of range) exits 2 and names it.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/analytics/roofline.hpp"
#include "src/scenario/builtin.hpp"

int main(int argc, char** argv) {
  using namespace tcdm;
  if (argc > 3) {
    std::fprintf(stderr, "usage: %s [preset] [gf]\n", argv[0]);
    return 2;
  }
  const std::string preset = argc > 1 ? argv[1] : "mp4spatz4";
  const std::string gf_arg = argc > 2 ? argv[2] : "0";
  ClusterConfig cfg;
  try {
    cfg = ClusterConfig::by_name(preset);
    unsigned gf = 0;
    const char* end = gf_arg.data() + gf_arg.size();
    const auto [stop, ec] = std::from_chars(gf_arg.data(), end, gf);
    if (ec != std::errc() || stop != end) {
      throw std::invalid_argument("grouping factor \"" + gf_arg +
                                  "\" is not an integer from 0 to " +
                                  std::to_string(std::numeric_limits<unsigned>::max()));
    }
    if (gf > 0) cfg = cfg.with_burst(gf);
    cfg.validate();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "roofline_csv: %s\n", e.what());
    return 2;
  }

  // The suite's baseline points of this preset: "<preset>/probe/baseline"
  // and "<preset>/<kernel>/baseline".
  const auto& suites = scenario::builtin::table_suites();
  const auto fig3 = std::find_if(suites.begin(), suites.end(), [](const auto& s) {
    return s.suite.name == "fig3_roofline";
  });
  double probe_bw = 0.0;
  std::vector<RooflineSample> samples;
  for (const scenario::FileScenario& sc : fig3->scenarios) {
    if (!sc.rel.starts_with(preset + "/") || !sc.rel.ends_with("/baseline")) continue;
    const KernelMetrics m = run_kernel(cfg, *sc.kernel.instantiate(cfg), sc.opts);
    if (sc.rel == preset + "/probe/baseline") {
      probe_bw = m.bw_bytes_per_cycle;  // dashed line: hierarchical average bandwidth
    } else {
      samples.push_back({m.kernel + "-" + m.size, m.arithmetic_intensity, m.gflops_ss});
    }
  }
  std::fputs(roofline_csv(make_roofline(cfg, probe_bw), samples).c_str(), stdout);
  return 0;
}
