// Metrics emission over the scenario registry: build a suite's versioned
// MetricsDoc from a completed sweep, or run-and-write whole suites to a
// directory (the `tcdm_run emit` backend). Because
// each scenario runs on its own deterministic cluster and documents sort
// their metric names, a parallel emit is byte-identical to a serial one.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "src/scenario/registry.hpp"
#include "src/scenario/runner.hpp"

namespace tcdm::scenario {

/// Build the suite's metrics document from a full sweep of its scenarios:
/// header from the SuiteSpec, metrics from its emit hook (or each result's
/// kernel metrics when it has none). Throws std::runtime_error if any
/// registered scenario's result carries an error (a gate must never record
/// a half-failed sweep), or std::out_of_range when a registered scenario of
/// the suite is missing from `results`.
[[nodiscard]] metrics::MetricsDoc build_doc(const ScenarioRegistry& reg,
                                            const std::string& suite,
                                            const ResultSet& results);

struct EmitOptions {
  std::string out_dir;  // created if missing
  /// Workers and overrides of the sweep; with `log` set, emit_suites
  /// installs its own on_done. Emissions are byte-identical at any jobs
  /// and stepping.
  SweepOptions sweep;
  /// Progress notes ("ran table1/... [i/n]") go here when set.
  std::ostream* log = nullptr;
};

/// Run every scenario of the named suites (pooled on one sweep, so workers
/// stay busy across suite boundaries) and write `<out_dir>/<suite>.json`
/// per suite. Returns the written paths in suite order. Throws on scenario
/// failures or IO errors.
std::vector<std::string> emit_suites(const ScenarioRegistry& reg,
                                     const std::vector<std::string>& suites,
                                     const EmitOptions& opts);

/// The suites included in `emit --all`: every registered suite with
/// emit_by_default set, in registration order.
[[nodiscard]] std::vector<std::string> default_emit_suites(const ScenarioRegistry& reg);

}  // namespace tcdm::scenario
