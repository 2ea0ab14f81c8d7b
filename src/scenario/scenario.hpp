// Declarative experiment scenarios: every paper table, figure, ablation and
// extension sweep is a suite of named points, each a (config, kernel,
// options[, system]) value — the FileScenario of scenario_file.hpp — with one
// SuiteSpec per artifact carrying the document header, the suite's emission
// rule and its console printer. Builtin suites (builtin.hpp) and suite files
// build the same values and register them the same way. The registry
// (registry.hpp) holds them all, the SweepRunner (runner.hpp) executes any
// selection on a thread pool, and emit.hpp turns a suite's results into the
// versioned metrics JSON the regression gate consumes. Adding a workload is
// a suite file or a list of point values, not a new binary.
#pragma once

#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/analytics/metrics_export.hpp"
#include "src/analytics/power_model.hpp"
#include "src/cluster/cluster_config.hpp"
#include "src/cluster/kernel_runner.hpp"
#include "src/kernels/kernel.hpp"
#include "src/system/system_config.hpp"

namespace tcdm::scenario {

/// Outcome of one scenario run: the kernel metrics, the activity-based
/// power estimate for the same run, and an error string (nonempty when the
/// run threw, timed out, or failed expected verification).
struct ScenarioResult {
  std::string name;  // full scenario name ("suite/rel")
  std::string rel;   // name relative to the suite prefix
  KernelMetrics metrics;
  PowerBreakdown power;
  std::string error;
  /// Quiet cycles the event-driven stepping loop jumped over
  /// (System::cycles_skipped()). Host-side diagnostics only — never part
  /// of emitted metrics, so baselines stay byte-identical across modes.
  double sim_cycles_skipped = 0.0;

  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Registration-ordered result collection with lookup by suite-relative
/// name. Printers and emission only ever see complete suites, so `at`,
/// `metrics` and `power` throw std::out_of_range for a missing name.
class ResultSet {
 public:
  /// Appends; throws std::invalid_argument on a duplicate relative name.
  void add(ScenarioResult r);

  [[nodiscard]] const ScenarioResult& at(const std::string& rel) const;
  [[nodiscard]] const ScenarioResult* find(const std::string& rel) const;
  [[nodiscard]] const KernelMetrics& metrics(const std::string& rel) const {
    return at(rel).metrics;
  }
  [[nodiscard]] const PowerBreakdown& power(const std::string& rel) const {
    return at(rel).power;
  }
  [[nodiscard]] const std::vector<ScenarioResult>& all() const { return ordered_; }
  [[nodiscard]] bool empty() const { return ordered_.empty(); }
  [[nodiscard]] std::size_t size() const { return ordered_.size(); }

 private:
  std::vector<ScenarioResult> ordered_;
  std::map<std::string, std::size_t> index_;  // rel -> position
};

/// One registered experiment point, as the runner consumes it. The
/// factories are built from a point's values by to_scenario_spec
/// (scenario_file.hpp) and called per run, so a scenario can execute
/// concurrently with any other (each run builds its own ClusterConfig,
/// Kernel and Cluster; the simulator holds no global mutable state).
struct ScenarioSpec {
  /// Hierarchical name: first `/`-component is the owning suite, e.g.
  /// "table1/mp4spatz4/gf4" or "ablation_burst/maxlen2".
  std::string name;
  std::function<ClusterConfig()> config;
  std::function<std::unique_ptr<Kernel>()> kernel;
  /// Unset for plain cluster scenarios. When set, the runner builds a
  /// System of `system().num_clusters` clusters of the `config()` shape,
  /// instantiates `kernel()` once per cluster (weak scaling) and runs them
  /// through src/system/system_runner.hpp.
  std::function<SystemConfig()> system;
  RunnerOptions opts;
  /// When opts.verify is on, a run that completes but fails golden
  /// verification becomes an error unless this is cleared.
  bool expect_verified = true;

  [[nodiscard]] std::string suite() const { return name.substr(0, name.find('/')); }
  [[nodiscard]] std::string rel() const {
    const auto slash = name.find('/');
    return slash == std::string::npos ? std::string() : name.substr(slash + 1);
  }
};

/// Declarative kernel description: a kind tag plus its parameters, e.g.
/// {"matmul", {{"n", 256}, {"row_block", 8}}}. `instantiate` builds the
/// kernel for a concrete cluster configuration, which supplies
/// config-dependent defaults (auto-scaled probe iterations, synthetic trace
/// generation), and checks the parameters.
struct KernelSpec {
  std::string kind;
  Json::Object params;

  /// Flat object: {"kind": "...", <param>: <value>, ...}.
  [[nodiscard]] Json to_json() const;
  /// Requires a known "kind", naming the offending `/`-joined path (rooted
  /// at `path`). The parameters are checked by instantiate.
  static KernelSpec from_json(const Json& j, const std::string& path = "kernel");

  /// Build the kernel; throws std::invalid_argument (path-prefixed) on
  /// missing, out-of-range or unknown parameters.
  [[nodiscard]] std::unique_ptr<Kernel> instantiate(
      const ClusterConfig& cfg, const std::string& path = "kernel") const;

  /// Every supported kind, for error messages and documentation.
  [[nodiscard]] static const std::vector<std::string>& kinds();
};

/// RunnerOptions <-> JSON: verify, max_cycles, watchdog_window.
/// Strict on unknown keys, same error convention as the config parsers.
[[nodiscard]] Json runner_options_to_json(const RunnerOptions& o);
[[nodiscard]] RunnerOptions runner_options_from_json(
    const Json& j, const std::string& path = "options");

/// A paper artifact (table, figure, ablation, study): naming, the metrics
/// document header, the suite's emission rule and the console table
/// renderer.
struct SuiteSpec {
  std::string name;
  std::string description;
  /// Included in `tcdm_run emit --all` and the CI regression sweep. The
  /// interactive studies (explorer, scaling) opt out.
  bool emit_by_default = true;
  /// Adds the suite's metrics to its document from a complete sweep: the
  /// per-scenario rows plus closed-form model rows that no run produces
  /// (e.g. Table I's analytical columns). Unset, every result adds
  /// MetricsDoc::add_kernel_metrics under its suite-relative name.
  std::function<void(const ResultSet&, metrics::MetricsDoc&)> emit;
  /// Renders the suite's console table(s) from a full (or partial) sweep.
  std::function<void(const ResultSet&)> print;
};

}  // namespace tcdm::scenario
