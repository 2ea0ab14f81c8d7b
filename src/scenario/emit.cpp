#include "src/scenario/emit.hpp"

#include <filesystem>
#include <ostream>
#include <stdexcept>

namespace tcdm::scenario {

metrics::MetricsDoc build_doc(const ScenarioRegistry& reg, const std::string& suite,
                              const ResultSet& results) {
  const SuiteSpec& spec = reg.suite(suite);
  for (const ScenarioSpec* s : reg.suite_scenarios(suite)) {
    const ScenarioResult& r = results.at(s->rel());
    if (!r.ok()) {
      throw std::runtime_error("scenario " + r.name + " failed: " + r.error);
    }
  }
  metrics::MetricsDoc doc;
  doc.suite = spec.name;
  doc.description = spec.description;
  if (spec.emit) {
    spec.emit(results, doc);
  } else {
    for (const ScenarioResult& r : results.all()) doc.add_kernel_metrics(r.rel, r.metrics);
  }
  return doc;
}

std::vector<std::string> emit_suites(const ScenarioRegistry& reg,
                                     const std::vector<std::string>& suites,
                                     const EmitOptions& opts) {
  std::vector<const ScenarioSpec*> specs;
  for (const std::string& suite : suites) {
    (void)reg.suite(suite);  // unknown-suite errors before any simulation
    const auto suite_specs = reg.suite_scenarios(suite);
    if (suite_specs.empty()) {
      throw std::runtime_error("suite " + suite + " has no registered scenarios");
    }
    specs.insert(specs.end(), suite_specs.begin(), suite_specs.end());
  }

  SweepOptions sweep = opts.sweep;
  unsigned done = 0;
  if (opts.log != nullptr) {
    sweep.on_done = [&](const ScenarioResult& r) {
      ++done;
      *opts.log << "  [" << done << "/" << specs.size() << "] " << r.name
                << (r.ok() ? "" : "  FAILED: " + r.error) << "\n";
    };
  }
  std::vector<ScenarioResult> results = run_scenarios(specs, sweep);

  std::filesystem::create_directories(opts.out_dir);
  std::vector<std::string> paths;
  auto grouped = group_by_suite(std::move(results));
  for (const std::string& suite : suites) {
    const ResultSet* set = nullptr;
    for (const auto& [name, rs] : grouped) {
      if (name == suite) {
        set = &rs;
        break;
      }
    }
    if (set == nullptr) throw std::logic_error("no results for suite " + suite);
    const metrics::MetricsDoc doc = build_doc(reg, suite, *set);
    const std::string path =
        (std::filesystem::path(opts.out_dir) / (suite + ".json")).string();
    doc.write_file(path);
    if (opts.log != nullptr) {
      *opts.log << "wrote " << doc.metrics.size() << " metrics to " << path << "\n";
    }
    paths.push_back(path);
  }
  return paths;
}

std::vector<std::string> default_emit_suites(const ScenarioRegistry& reg) {
  std::vector<std::string> out;
  for (const SuiteSpec& s : reg.suites()) {
    if (s.emit_by_default) out.push_back(s.name);
  }
  return out;
}

}  // namespace tcdm::scenario
