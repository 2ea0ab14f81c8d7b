// SystemRunner: run one kernel per cluster of a System and derive the
// aggregate metrics — the system-layer counterpart of kernel_runner.hpp
// (weak scaling: every cluster executes its own instance of the same
// kernel, then the DMA phase exchanges data over the NoC).
#pragma once

#include <memory>
#include <vector>

#include "src/analytics/power_model.hpp"
#include "src/cluster/kernel_runner.hpp"
#include "src/kernels/kernel.hpp"
#include "src/system/system.hpp"

namespace tcdm {

/// Run `kernels` (exactly one per cluster) on an existing System. Aggregate
/// semantics: cycles is the system's end-to-end count; flops and bytes sum
/// over clusters; fpu_util is measured against N x the cluster peak;
/// bw_bytes_per_cycle counts kernel traffic plus NoC DMA payload; verified
/// requires every kernel's golden check and every DMA checksum to pass.
[[nodiscard]] KernelMetrics run_system_kernel(
    System& system, const std::vector<std::unique_ptr<Kernel>>& kernels,
    const RunnerOptions& opts = {});

/// Componentwise sum of the per-cluster power estimates (the NoC/L2 power
/// is not modeled — the estimate is the clusters' own activity).
[[nodiscard]] PowerBreakdown estimate_system_power(const System& system, Cycle cycles,
                                                   double freq_mhz);

}  // namespace tcdm
