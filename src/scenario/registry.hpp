// ScenarioRegistry: the process-wide catalogue of suites and scenarios.
// Registration order is preserved and is the execution/result order of
// every sweep, so parallel and serial runs emit byte-identical documents.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "src/scenario/scenario.hpp"

namespace tcdm::scenario {

/// Shell-style glob over scenario names: `*` matches any run of characters
/// (including `/`), `?` matches exactly one. A pattern without wildcards is
/// an exact-name match.
[[nodiscard]] bool glob_match(std::string_view pattern, std::string_view text);

class ScenarioRegistry {
 public:
  /// The singleton the builtin registrations and the CLIs share.
  static ScenarioRegistry& instance();

  /// Throws std::invalid_argument on duplicate suite names.
  void add_suite(SuiteSpec suite);
  /// Throws std::invalid_argument on duplicate scenario names, names
  /// without a `suite/rel` structure, or scenarios whose suite was never
  /// registered.
  void add(ScenarioSpec spec);

  [[nodiscard]] const std::vector<SuiteSpec>& suites() const { return suites_; }
  [[nodiscard]] const SuiteSpec* find_suite(const std::string& name) const;
  /// Throws std::out_of_range for unknown suites.
  [[nodiscard]] const SuiteSpec& suite(const std::string& name) const;

  [[nodiscard]] const std::vector<ScenarioSpec>& scenarios() const { return scenarios_; }
  [[nodiscard]] const ScenarioSpec* find(const std::string& name) const;

  /// Union over several globs, deduplicated, in registration order.
  [[nodiscard]] std::vector<const ScenarioSpec*> select_all(
      const std::vector<std::string>& globs) const;
  /// All scenarios of one suite, in registration order.
  [[nodiscard]] std::vector<const ScenarioSpec*> suite_scenarios(
      const std::string& suite) const;

 private:
  std::vector<SuiteSpec> suites_;
  std::vector<ScenarioSpec> scenarios_;
};

}  // namespace tcdm::scenario
