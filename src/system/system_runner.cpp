#include "src/system/system_runner.hpp"

#include <stdexcept>

namespace tcdm {

KernelMetrics run_system_kernel(System& system,
                                const std::vector<std::unique_ptr<Kernel>>& kernels,
                                const RunnerOptions& opts) {
  const unsigned n = system.num_clusters();
  if (kernels.size() != n) {
    throw std::invalid_argument("run_system_kernel: need exactly one kernel per cluster");
  }
  system.set_watchdog_window(opts.watchdog_window);
  for (unsigned c = 0; c < n; ++c) kernels[c]->setup(system.cluster(c));

  const RunOutcome out = system.run(opts.max_cycles);

  double bytes = 0.0;
  for (unsigned c = 0; c < n; ++c) bytes += kernels[c]->traffic_bytes(system.cluster(c));
  KernelMetrics m = derive_kernel_metrics(system.cluster_config(), *kernels.front(), out, n,
                                          system.total_flops(), bytes,
                                          system.noc_bytes_transferred());
  if (opts.verify) {
    bool ok = system.dma_checksums_ok();
    for (unsigned c = 0; c < n; ++c) {
      ok = kernels[c]->verify(system.cluster(c)) && ok;
    }
    m.verified = ok;
  } else {
    m.verified = true;
  }
  return m;
}

PowerBreakdown estimate_system_power(const System& system, Cycle cycles,
                                     double freq_mhz) {
  PowerBreakdown sum;
  sum.config = system.config().name;
  for (unsigned c = 0; c < system.num_clusters(); ++c) {
    const PowerBreakdown p = estimate_power(system.cluster(c), cycles, freq_mhz);
    sum.fpu_w += p.fpu_w;
    sum.vrf_w += p.vrf_w;
    sum.vlsu_w += p.vlsu_w;
    sum.snitch_w += p.snitch_w;
    sum.icn_w += p.icn_w;
    sum.banks_w += p.banks_w;
    sum.burst_w += p.burst_w;
    sum.static_w += p.static_w;
  }
  return sum;
}

}  // namespace tcdm
