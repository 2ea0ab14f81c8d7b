#include "src/cluster/kernel_runner.hpp"

namespace tcdm {

KernelMetrics derive_kernel_metrics(const ClusterConfig& cfg, const Kernel& kernel,
                                    const RunOutcome& out, unsigned clusters, double flops,
                                    double bytes, double noc_bytes) {
  KernelMetrics m;
  m.config = cfg.name;
  m.kernel = kernel.name();
  m.size = kernel.size_desc();
  m.clusters = clusters;
  m.cycles = out.cycles;
  m.timed_out = !out.all_halted;
  m.flops = flops;
  m.bytes = bytes;
  m.noc_bytes = noc_bytes;
  if (out.cycles > 0) {
    m.flops_per_cycle = m.flops / static_cast<double>(out.cycles);
    m.fpu_util = m.flops_per_cycle / (clusters * cfg.peak_flops_per_cycle());
    m.gflops_ss = m.flops_per_cycle * cfg.freq_ss_mhz / 1000.0;
    m.gflops_tt = m.flops_per_cycle * cfg.freq_tt_mhz / 1000.0;
    m.bw_bytes_per_cycle = (m.bytes + m.noc_bytes) / static_cast<double>(out.cycles);
    m.bw_per_core = m.bw_bytes_per_cycle / (clusters * cfg.num_cores());
  }
  if (m.bytes > 0) m.arithmetic_intensity = m.flops / m.bytes;
  return m;
}

KernelMetrics run_kernel_on(Cluster& cluster, Kernel& kernel, const RunnerOptions& opts) {
  cluster.set_watchdog_window(opts.watchdog_window);
  kernel.setup(cluster);

  const RunOutcome out = cluster.run(opts.max_cycles);

  KernelMetrics m = derive_kernel_metrics(cluster.config(), kernel, out, 1,
                                          cluster.total_flops(), kernel.traffic_bytes(cluster));
  m.verified = opts.verify ? kernel.verify(cluster) : true;
  return m;
}

KernelMetrics run_kernel(const ClusterConfig& cfg, Kernel& kernel, const RunnerOptions& opts) {
  Cluster cluster(cfg, opts.sim);
  return run_kernel_on(cluster, kernel, opts);
}

}  // namespace tcdm
