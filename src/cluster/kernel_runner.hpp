// KernelRunner: build a cluster for a configuration, run a kernel, verify
// it, and derive the metrics the paper reports (Table II columns and the
// roofline coordinates of Fig. 3).
#pragma once

#include <string>

#include "src/cluster/cluster.hpp"
#include "src/kernels/kernel.hpp"

namespace tcdm {

struct KernelMetrics {
  std::string config;
  std::string kernel;
  std::string size;

  Cycle cycles = 0;
  double flops = 0.0;            // vector + scalar FLOPs actually executed
  double bytes = 0.0;            // kernel traffic (see Kernel::traffic_bytes)
  double fpu_util = 0.0;         // flops / (cycles * peak FLOP/cycle)
  double flops_per_cycle = 0.0;
  double gflops_ss = 0.0;        // performance at the worst-case corner
  double gflops_tt = 0.0;        // performance at the nominal corner
  double bw_bytes_per_cycle = 0.0;   // cluster-aggregate achieved bandwidth
  double bw_per_core = 0.0;          // per-VLSU achieved bandwidth (Table I units)
  double arithmetic_intensity = 0.0;  // FLOP / byte
  bool verified = false;
  bool timed_out = false;

  // ---- system dimension (src/system/) ----
  /// Clusters the run spanned; 1 for plain cluster runs. The JSON round
  /// trip omits the system fields at their defaults, so single-cluster
  /// metrics documents are unchanged by the system layer.
  unsigned clusters = 1;
  /// Inter-cluster DMA payload bytes moved across the NoC (0 for cluster
  /// runs; counted into bw_bytes_per_cycle but never into `bytes`, which
  /// stays kernel traffic).
  double noc_bytes = 0.0;
};

struct RunnerOptions {
  bool verify = true;
  Cycle max_cycles = 50'000'000;
  Cycle watchdog_window = kDefaultWatchdogWindow;
  /// Host-side simulation options (the stepping mode). Consulted where
  /// the runner builds what it runs on: run_kernel's cluster and the
  /// scenario runner's System (scenario::run_scenario). run_kernel_on and
  /// run_system_kernel use whatever the caller's instance was built with.
  SimOptions sim{};
};

/// The one KernelMetrics derivation, shared by run_kernel_on and
/// run_system_kernel: a run of `out` over `clusters` clusters of `cfg` that
/// executed `flops` and moved `bytes` of kernel traffic plus `noc_bytes` of
/// inter-cluster DMA payload. fpu_util and bw_per_core are measured against
/// all clusters' peaks; `verified` is left to the caller.
[[nodiscard]] KernelMetrics derive_kernel_metrics(const ClusterConfig& cfg,
                                                  const Kernel& kernel,
                                                  const RunOutcome& out, unsigned clusters,
                                                  double flops, double bytes,
                                                  double noc_bytes = 0.0);

/// Run `kernel` on a fresh cluster built from `cfg`.
[[nodiscard]] KernelMetrics run_kernel(const ClusterConfig& cfg, Kernel& kernel,
                                       const RunnerOptions& opts = {});

/// Run `kernel` on an existing cluster (already constructed; the runner
/// calls setup/run/verify). Useful when the caller wants to inspect stats.
[[nodiscard]] KernelMetrics run_kernel_on(Cluster& cluster, Kernel& kernel,
                                          const RunnerOptions& opts = {});

}  // namespace tcdm
