// Data-driven scenario suites: a JSON document describes a SuiteSpec plus
// scenario templates with parameter-sweep expansion. It loads into a
// LoadedSuite, the value every builtin suite is built as too (builtin.hpp),
// and registers through the same register_loaded_suite — so `tcdm_run
// run/emit`, the SweepRunner, build_doc and the regression gate treat file
// and builtin suites alike. A file suite has no emit hook or printer: it
// emits each scenario's kernel metrics and prints the generic table.
//
// Schema (tcdm-scenarios, version 1):
//   {
//     "schema": "tcdm-scenarios",
//     "schema_version": 1,
//     "suite": "burst_grid",                 // no '/', unique per registry
//     "description": "free text",            // optional
//     "emit_by_default": true,               // optional (emit --all member)
//     "scenarios": [
//       {
//         "name": "{kernel.label}/t{tiles}/len{len}",   // suite-relative
//         "sweep": {                                    // optional
//           "tiles": [2, 8],                            // explicit list
//           "len": {"range": {"from": 1, "to": 4, "mul": 2}},  // 1, 2, 4
//           "kernel": [{"label": "dotp", "spec": {"kind": "dotp", "n": 1024}}]
//         },
//         "config": {"preset": "mp4spatz4", "num_tiles": "{tiles}",
//                    "burst": {"gf": 4, "max_burst_len": "{len}"}},
//         "kernel": "{kernel.spec}",
//         "options": {"verify": false, "max_cycles": 10000000},  // optional
//         "expect_verified": true,                               // optional
//         "system": {"num_clusters": 4, "barrier_kind": "tree",  // optional
//                    "dma_words": 256}
//       }
//     ]
//   }
//
// Sweep expansion: the cartesian product over the sweep parameters (keys in
// sorted order, the last key varying fastest) is taken, and for each point
// every "{param}" / "{param.field}" placeholder in name/config/kernel/
// options is substituted. A string that consists of exactly one placeholder
// is replaced by the bound value itself (numbers stay numbers, objects stay
// objects — that is how whole kernel specs are swept); placeholders inside
// longer strings substitute textually. Ranges are arithmetic with "step"
// (from, from+step, ... <= to) or geometric with "mul".
//
// Every expanded scenario is fully validated at load time: the cluster
// config passes ClusterConfig::validate(), the kernel instantiates, the
// options parse. Errors carry the `/`-joined path of the offending value
// (e.g. "scenarios[1]/config/num_tiles") so files are debuggable from the
// message alone.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/scenario/registry.hpp"

namespace tcdm::scenario {

inline constexpr const char* kScenarioSchemaName = "tcdm-scenarios";
inline constexpr unsigned kScenarioSchemaVersion = 1;

/// Expansion guard, applied per range sweep and to a suite's total: a
/// sweep that multiplies out past this is almost certainly a typo'd
/// range, and the registry would be unusable anyway. `tcdm_run gen`
/// bounds --count by it up front.
inline constexpr std::size_t kMaxScenariosPerSuite = 4096;

class ScenarioFileError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Unreadable source (missing file, directory, read failure) — an IO
/// problem, distinct from invalid content; the CLI maps it to exit 2
/// where content errors exit 1.
class ScenarioFileIoError : public ScenarioFileError {
 public:
  using ScenarioFileError::ScenarioFileError;
};

/// One fully expanded and validated scenario from a suite file.
struct FileScenario {
  std::string rel;  // suite-relative name
  ClusterConfig config;
  KernelSpec kernel;
  RunnerOptions opts;
  bool expect_verified = true;
  /// Present when the template carries a "system" block: the scenario runs
  /// num_clusters copies of `config` under the system layer (src/system/).
  std::optional<SystemConfig> system;
};

/// A suite as values: the suite header plus its expanded scenarios, parsed
/// from a suite file or built in C++ by the builtin suites.
struct LoadedSuite {
  SuiteSpec suite;
  std::vector<FileScenario> scenarios;
};

/// Parse + expand + validate one suite document. `source` names the
/// document in error messages (a path, or "<stdin>"). Throws
/// ScenarioFileError on any schema, expansion or validation problem.
[[nodiscard]] LoadedSuite parse_suite(const Json& doc, const std::string& source);

/// Read and parse a suite file ("-" reads stdin). Throws ScenarioFileError
/// (unreadable file, malformed JSON, schema violations).
[[nodiscard]] LoadedSuite load_suite_file(const std::string& path);

/// The runnable spec of one scenario, named "<suite_name>/<rel>": the one
/// place a point becomes factories. They copy the config/kernel/system
/// values, so the spec outlives the LoadedSuite.
[[nodiscard]] ScenarioSpec to_scenario_spec(const std::string& suite_name,
                                            const FileScenario& sc);

/// Register a suite into `reg` through to_scenario_spec, which builds no
/// kernel. Registration outlives the LoadedSuite. Throws
/// std::invalid_argument on duplicate suite/scenario names.
void register_loaded_suite(ScenarioRegistry& reg, const LoadedSuite& suite);

/// load_suite_file + register_loaded_suite; returns the suite name.
std::string register_suite_file(ScenarioRegistry& reg, const std::string& path);

}  // namespace tcdm::scenario
