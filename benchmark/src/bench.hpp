// tcdm_bench: an outside-in benchmark of the simulator. Every workload runs
// through the public path `tcdm_run emit` uses (scenario::run_scenarios with
// default SweepOptions, then build_doc and Json::dump per suite), serially
// and with no thread, shard or stepping override. A separate traced pass
// replays the same scenarios through each layer's public entry points and
// records host-time spans around them (see benchmark/README.md).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/cluster.hpp"
#include "src/scenario/registry.hpp"
#include "src/scenario/runner.hpp"

namespace tcdm::bench {

/// The benchmark's workload names, in the order run.sh runs them.
[[nodiscard]] const std::vector<std::string>& workload_names();

struct MetricInfo {
  std::string name;
  std::string unit;
};
/// Printed by every untraced run (BENCHMARK.json "end_to_end").
[[nodiscard]] const std::vector<MetricInfo>& end_to_end_metrics();
/// Printed by every traced run (BENCHMARK.json "per_layer").
[[nodiscard]] const std::vector<MetricInfo>& per_layer_metrics();

struct LoadOptions {
  std::uint64_t seed = 1;
  /// Cut every suite to its first 8 scenarios (dse_random: count 20).
  bool smoke = false;
  /// Checkout root; system_halo's suite file lives under benchmark/.
  std::string repo_dir;
};

/// A loaded workload: a private registry holding exactly the scenarios the
/// workload runs, the suites in emission order and the selection in run
/// order (suite by suite, registration order within a suite).
struct Workload {
  std::string name;
  std::uint64_t seed = 1;
  bool smoke = false;
  std::unique_ptr<scenario::ScenarioRegistry> reg;
  std::vector<std::string> suites;
  std::vector<const scenario::ScenarioSpec*> specs;
  /// Cores per cluster of each spec (same order), for core-cycle counts.
  std::vector<unsigned> cores;
};

/// Load a named workload; throws std::invalid_argument on an unknown name.
[[nodiscard]] Workload load_workload(const std::string& name, const LoadOptions& opts);

/// Copy the first `limit` scenarios of each named suite of `src` (all when
/// `limit` is 0) into a fresh workload registry.
[[nodiscard]] Workload make_workload(std::string name, const scenario::ScenarioRegistry& src,
                                     const std::vector<std::string>& suites,
                                     std::size_t limit);

/// Everything one pass over a workload produced.
struct PassResult {
  double wall_s = 0.0;
  /// (suite, emitted document text) in suite order; empty text when
  /// build_doc refused the suite (a failed scenario).
  std::vector<std::pair<std::string, std::string>> docs;
  std::vector<std::pair<std::string, scenario::ResultSet>> sets;
  /// Simulated cycles per scenario, in run order.
  std::vector<Cycle> fingerprint;
  /// FNV-1a 64 over every emitted byte, suites in order.
  std::uint64_t digest = 0;
  unsigned attempted = 0;
  unsigned failed = 0;
  /// Σ cycles × cores per cluster × clusters.
  double core_cycles = 0.0;
  std::string error;  // first scenario or emission failure, if any
};

/// The timed, untraced pass: run_scenarios + build_doc + dump per suite.
[[nodiscard]] PassResult run_pass(const Workload& w);

/// Everything a scenario run does before simulating, for every scenario:
/// config resolution, ClusterCache::acquire or the System constructor, the
/// kernel factory and Kernel::setup. Nothing is simulated.
void setup_only(const Workload& w);

/// Byte-compare each emitted suite document against its recorded
/// reference (smoke runs: every emitted metric must equal the reference's).
/// Returns an empty string when all match, else the first mismatch.
struct ReferenceDirs {
  std::string baselines;  // builtin suites: <baselines>/<suite>.json
  std::string reference;  // system_halo.json, dse_random.seed<S>.json
};
[[nodiscard]] std::string check_references(const Workload& w, const PassResult& pass,
                                           const ReferenceDirs& dirs);

/// Paper-fidelity errors of the pass, for the paper's points it holds:
/// "paper_speedup_err_pp" when it ran all of table2 (Table II gains) and
/// "paper_bw_gain_err_pp" when it ran all of table1 (the abstract's gains).
[[nodiscard]] std::vector<std::pair<std::string, double>> paper_fidelity(
    const PassResult& pass);

// ---------------------------------------------------------------- tracing --

/// Per-run totals of the three calls the traced loop does not span.
struct LoopStats {
  std::uint64_t steps = 0;
  std::uint64_t probes = 0;      // next_event() calls
  std::uint64_t probe_hits = 0;  // probes that led to a skip
  std::uint64_t skipped = 0;     // cycles jumped
  double probe_s = 0.0;
  double skip_s = 0.0;
};

/// Cluster::run's event loop re-driven through the public surface (step,
/// mem_phase_active, next_event, watchdog_deadline, skip_to and, in check
/// mode, cross_check_to), timing next_event and skip_to. Reaches the same
/// state at the same cycle as Cluster::run(max_cycles).
RunOutcome traced_cluster_run(Cluster& cluster, Cycle max_cycles, LoopStats& stats);

struct Span {
  std::string name;  // layer span ("cluster.run") or scenario name
  std::string cat;   // "pass", "scenario", "layer" or "bench"
  int parent = -1;
  int scenario = -1;  // index into Workload::specs, -1 outside scenarios
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  LoopStats loop;  // cluster.run spans only
};

struct TraceReport {
  PassResult pass;
  std::vector<Span> spans;
  std::vector<std::string> scenario_names;
  /// Layer self times, counts, ratios and modelled counters by metric name.
  std::map<std::string, double> metrics;
  /// Traced wall of the run + emit part (the untraced pass's scope).
  double run_wall_s = 0.0;
};

/// Load the workload and run it once with spans around every layer call.
[[nodiscard]] TraceReport traced_pass(const std::function<Workload()>& load);

/// Chrome trace-event JSON (opens in Perfetto / chrome://tracing).
void write_chrome_trace(const TraceReport& report, const std::string& path);

}  // namespace tcdm::bench
