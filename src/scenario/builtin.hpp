// Builtin scenario registrations: every table, figure, ablation and study
// the repo reproduces, expressed as registry entries. Split over three
// translation units (tables / ablations / extensions) that mirror the old
// one-binary-per-artifact layout they replaced.
#pragma once

#include <string>
#include <vector>

#include "src/scenario/registry.hpp"

namespace tcdm::scenario {

/// Register every builtin suite and scenario into the process registry.
/// Idempotent: callers (CLIs, tests, the benchmark harness) invoke it freely.
void register_builtin();

namespace builtin {

/// The paper's three testbed presets, smallest first. Shared by every
/// suite that sweeps the testbeds so a renamed or added preset propagates
/// everywhere at once.
[[nodiscard]] const std::vector<std::string>& testbed_presets();

/// Random-probe iteration count for a configuration: scaled down on the
/// 1024-FPU preset to bound sweep wall-clock. Shared by every suite that
/// measures hierarchical-average bandwidth so the Table I, Fig. 3, Pareto
/// and explorer probes (and their recorded baselines) stay in lockstep.
[[nodiscard]] unsigned probe_iters(const ClusterConfig& cfg);

void register_tables(ScenarioRegistry& reg);      // table1, table2, fig3, fig5
void register_ablations(ScenarioRegistry& reg);   // ablation_{burst,gf,rob,store,stride}
void register_extensions(ScenarioRegistry& reg);  // ext_kernels, pareto, traces, studies
void register_system(ScenarioRegistry& reg);      // multi_cluster_scaling

}  // namespace builtin
}  // namespace tcdm::scenario
