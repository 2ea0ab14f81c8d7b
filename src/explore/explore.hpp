// Memoized, resumable design-space exploration over a data-driven scenario
// suite (the `tcdm_run explore` backend). The driver walks the suite's
// expanded design points in deterministic (expansion) order, in fixed-size
// waves:
//
//   scan   — per candidate: canonical key (config_hash), closed-form area,
//            admissibility (area cap), exact dominance pruning against the
//            committed frontier (bandwidth upper bound, so pruning can never
//            change the outcome), then memo lookup (hit = free) or
//            simulation scheduling (miss);
//   run    — the wave's misses simulate on the sweep runner (`-j`
//            scenario-parallel) and append to the memo store;
//   fold   — results commit into the Pareto frontier in candidate order.
//
// Wave size is a constant, so pruning decisions — and therefore the report,
// byte for byte — are independent of `jobs`. The budget caps
// *simulations* (cache hits are free); an exhausted budget stops the
// search. The memo store is the only state a search persists: to resume a
// stopped or killed run, run it again with the same cache. Every simulated
// point is then a free hit, and since the search starts again at candidate
// 0 it takes the same waves and pruning decisions as an uninterrupted run.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/explore/config_hash.hpp"
#include "src/explore/memo_store.hpp"
#include "src/explore/pareto.hpp"
#include "src/scenario/runner.hpp"

namespace tcdm::explore {

inline constexpr const char* kReportSchemaName = "tcdm-explore-report";
inline constexpr int kReportSchemaVersion = 2;

/// Candidates per wave. A constant (not derived from `jobs`) so that the
/// prune/evaluate schedule and the final report are identical at any
/// parallelism.
inline constexpr std::size_t kWaveSize = 8;

struct ExploreOptions {
  /// Logic-area cap in MGE; 0 = uncapped. Points over the cap are
  /// inadmissible and are dropped before simulation (the cap is a property
  /// of the closed-form area model, not of the run).
  double area_cap_mge = 0.0;
  /// Maximum simulations this invocation may run (cache hits are free);
  /// 0 = unlimited. Exhausting it returns with budget_exhausted set; a
  /// rerun against the same cache_path continues the search.
  std::size_t budget = 0;
  /// JSON-lines memo store path; empty = memoize in memory only.
  std::string cache_path;
  /// Exact dominance pruning. Off = pure exhaustive enumeration; the final
  /// frontier is identical either way (the differential suites prove it).
  bool prune = true;
  /// Workers and overrides of each wave's sweep; with `log` set,
  /// run_explore installs its own on_done. Host knobs only: results, memo
  /// entries and reports are bit-identical at any jobs and stepping.
  scenario::SweepOptions sweep;
  std::ostream* log = nullptr;  // progress notes
};

struct ExploreOutcome {
  std::vector<FrontierPoint> frontier;
  std::size_t candidates = 0;
  std::size_t pruned_area_cap = 0;
  std::size_t pruned_dominated = 0;
  std::size_t cache_hits = 0;
  std::size_t simulations = 0;
  std::size_t failures = 0;  // simulated points that errored
  bool budget_exhausted = false;
};

/// Run the search. Throws ExploreFileError on a corrupt or
/// version-mismatched cache file, std::runtime_error on IO failures.
/// Scenario-level failures do NOT throw: they are counted, cached and
/// excluded from the frontier.
[[nodiscard]] ExploreOutcome run_explore(const scenario::LoadedSuite& suite,
                                         const ExploreOptions& opts);

/// The Pareto report document. Deliberately free of run statistics: a
/// warm-cache rerun emits byte-identical bytes to the cold run that filled
/// the cache (locked by CTest).
[[nodiscard]] Json report_json(const scenario::LoadedSuite& suite,
                               const ExploreOptions& opts,
                               const ExploreOutcome& outcome);

/// Render the frontier as a console table (the `run` subcommand analogue).
void print_frontier(std::ostream& os, const ExploreOptions& opts,
                    const ExploreOutcome& outcome);

}  // namespace tcdm::explore
