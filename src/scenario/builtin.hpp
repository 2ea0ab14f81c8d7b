// Builtin suites: every table, figure, ablation and study the repo
// reproduces, each built as a LoadedSuite — the value a suite file parses
// into — and registered through register_loaded_suite. Split over four
// translation units (tables / ablations / extensions / system); each
// defines its points as (config, kernel spec, options) values plus the
// suites' printers and emit hooks, and includes no kernel header.
#pragma once

#include <vector>

#include "src/scenario/registry.hpp"
#include "src/scenario/scenario_file.hpp"

namespace tcdm::scenario {

/// Register every builtin suite and scenario into the process registry.
/// Idempotent: callers (CLIs, tests, the benchmark harness) invoke it freely.
void register_builtin();

namespace builtin {

/// The builtin suites of each translation unit, in registration order.
/// Built once per process; building them instantiates no kernel.
/// table1, table2, fig3_roofline, fig5_breakdown:
[[nodiscard]] const std::vector<LoadedSuite>& table_suites();
/// ablation_{burst,gf,rob,store,stride}:
[[nodiscard]] const std::vector<LoadedSuite>& ablation_suites();
/// ext_kernels, pareto_area_bw, trace_patterns and the explorer and scaling
/// studies:
[[nodiscard]] const std::vector<LoadedSuite>& extension_suites();
/// multi_cluster_scaling:
[[nodiscard]] const std::vector<LoadedSuite>& system_suites();

/// register_loaded_suite over the matching list above.
void register_tables(ScenarioRegistry& reg);
void register_ablations(ScenarioRegistry& reg);
void register_extensions(ScenarioRegistry& reg);
void register_system(ScenarioRegistry& reg);

}  // namespace builtin
}  // namespace tcdm::scenario
