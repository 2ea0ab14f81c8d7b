// SweepRunner: execute any selection of scenarios, serially or on a thread
// pool (scenarios are independent; every one runs as a System — a plain
// cluster scenario as a one-cluster System — and each worker reuses
// Systems per shape via ClusterCache + System::reset(), which is
// bit-identical to a fresh System per run — docs/ARCHITECTURE.md, P2).
// Results come back in the selection's (registration) order regardless of
// worker count, so serial and parallel sweeps are interchangeable byte for
// byte.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/scenario/scenario.hpp"

namespace tcdm {
class ClusterCache;
}

namespace tcdm::scenario {

struct SweepOptions {
  /// Worker threads; 0 means one per hardware thread, 1 runs inline.
  unsigned jobs = 1;
  /// Time-advance strategy override (tcdm_run --stepping). Unset keeps each
  /// spec's SimOptions value (event-driven unless a caller changed it); set,
  /// it applies to every scenario of the sweep. Bit-identical either way.
  std::optional<SteppingMode> stepping;
  /// Progress callback, invoked as each scenario finishes (serialized; may
  /// be called from worker threads but never concurrently).
  std::function<void(const ScenarioResult&)> on_done;
};

/// Run one scenario on a fresh System (one cluster unless the spec has a
/// system block). Never throws: failures (exceptions, timeouts, failed
/// expected verification) land in ScenarioResult::error. Of `opts`, only
/// the `stepping` override applies. With a non-null `cache`, the System is
/// drawn from it (reset-reuse per shape — bit-identical results,
/// docs/ARCHITECTURE.md P2) instead of constructed; the cache must not be
/// shared across threads.
[[nodiscard]] ScenarioResult run_scenario(const ScenarioSpec& spec,
                                          const SweepOptions& opts = {},
                                          ClusterCache* cache = nullptr);

/// Run every scenario in `specs` and collect results in the same order.
/// The selection may span suites; group with group_by_suite for per-suite
/// consumers (printers, emission).
[[nodiscard]] std::vector<ScenarioResult> run_scenarios(
    const std::vector<const ScenarioSpec*>& specs, const SweepOptions& opts = {});

/// Partition a sweep's results into suite-scoped ResultSets, suites in
/// first-appearance order. Relative names are only unique within a suite,
/// so cross-suite consumers must go through this.
[[nodiscard]] std::vector<std::pair<std::string, ResultSet>> group_by_suite(
    std::vector<ScenarioResult> results);

}  // namespace tcdm::scenario
