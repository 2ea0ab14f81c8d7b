// Emit a roofline CSV (Fig. 3 style) for a chosen cluster configuration:
// the ideal and measured bandwidth roofs plus the three paper kernels as
// sample points. Pipe the output into your favourite plotting tool.
//
//   $ ./roofline_csv [preset] [gf] > roofline.csv
//   $ ./roofline_csv mp4spatz4 4 > roofline.csv
//
// A bad argument (an unknown preset, a grouping factor that is not an
// integer or out of range) exits 2 and names it.
#include <charconv>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>

#include "src/analytics/roofline.hpp"
#include "src/cluster/kernel_runner.hpp"
#include "src/kernels/dotp.hpp"
#include "src/kernels/fft.hpp"
#include "src/kernels/matmul.hpp"
#include "src/kernels/probes.hpp"

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

  RunnerOptions opts;
  opts.max_cycles = 50'000'000;

  // Dashed line: hierarchical average bandwidth from the random probe.
  RandomProbeKernel probe(cfg.num_cores() >= 128 ? 64 : 128);
  RunnerOptions popts = opts;
  popts.verify = false;
  const KernelMetrics pm = run_kernel(cfg, probe, popts);
  const Roofline rl = make_roofline(cfg, pm.bw_bytes_per_cycle);

  std::vector<RooflineSample> samples;
  const auto add = [&](Kernel&& k) {
    const KernelMetrics m = run_kernel(cfg, k, opts);
    samples.push_back({m.kernel + "-" + m.size, m.arithmetic_intensity, m.gflops_ss});
  };
  if (preset == "mp4spatz4") {
    add(DotpKernel(4096));
    add(FftKernel(1, 512));
    add(MatmulKernel(16, 4));
    add(MatmulKernel(64, 8));
  } else if (preset == "mp64spatz4") {
    add(DotpKernel(65536));
    add(FftKernel(4, 2048));
    add(MatmulKernel(64, 4));
    add(MatmulKernel(256, 8));
  } else {
    add(DotpKernel(131072));
    add(FftKernel(8, 4096));
    add(MatmulKernel(128, 4));
    add(MatmulKernel(256, 8));
  }
  std::fputs(roofline_csv(rl, samples).c_str(), stdout);
  return 0;
}
