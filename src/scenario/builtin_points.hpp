// The vocabulary the builtin suite definitions (builtin_*.cpp) share: the
// paper's testbeds, variant names, burst-enabled preset configs and a
// builtin point built from its values. Internal to those files.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <utility>

#include "src/scenario/scenario_file.hpp"

namespace tcdm::scenario::builtin {

/// The paper's three testbed presets, smallest first.
inline constexpr const char* kTestbeds[] = {"mp4spatz4", "mp64spatz4", "mp128spatz8"};

/// "baseline" for grouping factor 0, else "gf<N>".
inline std::string variant_name(unsigned gf) {
  return gf == 0 ? "baseline" : "gf" + std::to_string(gf);
}

/// The named preset, with TCDM Burst at grouping factor `gf` unless 0.
inline ClusterConfig preset_config(const std::string& preset, unsigned gf) {
  const ClusterConfig cfg = ClusterConfig::by_name(preset);
  return gf == 0 ? cfg : cfg.with_burst(gf);
}

/// An empty suite: its header, console printer and emit hook (none: each
/// result's kernel metrics).
inline LoadedSuite make_suite(
    std::string name, std::string description, std::function<void(const ResultSet&)> print,
    std::function<void(const ResultSet&, metrics::MetricsDoc&)> emit = {}) {
  LoadedSuite s;
  s.suite.name = std::move(name);
  s.suite.description = std::move(description);
  s.suite.print = std::move(print);
  s.suite.emit = std::move(emit);
  return s;
}

/// The point `rel`: `kernel` on `config`, stopped after `max_cycles`, and
/// verified against its golden result unless `verify` is off (probes and
/// traces have none).
inline FileScenario point(std::string rel, ClusterConfig config, KernelSpec kernel,
                          Cycle max_cycles, bool verify = true) {
  RunnerOptions opts;
  opts.max_cycles = max_cycles;
  opts.verify = verify;
  return {std::move(rel), std::move(config), std::move(kernel), opts, true, std::nullopt};
}

}  // namespace tcdm::scenario::builtin
