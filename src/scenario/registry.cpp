#include "src/scenario/registry.hpp"

#include <stdexcept>

namespace tcdm::scenario {

bool glob_match(std::string_view pattern, std::string_view text) {
  // Iterative wildcard match with single-entry backtracking: `*` is the
  // only construct that needs revisiting, so remember the last star and
  // how much of the text it has swallowed.
  std::size_t p = 0, t = 0;
  std::size_t star = std::string_view::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() && (pattern[p] == '?' || pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      star_t = t;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

ScenarioRegistry& ScenarioRegistry::instance() {
  static ScenarioRegistry reg;
  return reg;
}

void ScenarioRegistry::add_suite(SuiteSpec suite) {
  if (suite.name.empty()) throw std::invalid_argument("suite name must not be empty");
  if (find_suite(suite.name) != nullptr) {
    throw std::invalid_argument("duplicate suite registration: " + suite.name);
  }
  suites_.push_back(std::move(suite));
}

void ScenarioRegistry::add(ScenarioSpec spec) {
  if (spec.rel().empty()) {
    throw std::invalid_argument("scenario name must be suite/rel, got: " + spec.name);
  }
  if (find_suite(spec.suite()) == nullptr) {
    throw std::invalid_argument("scenario " + spec.name + " names unregistered suite " +
                                spec.suite());
  }
  if (find(spec.name) != nullptr) {
    throw std::invalid_argument("duplicate scenario registration: " + spec.name);
  }
  if (!spec.config || !spec.kernel) {
    throw std::invalid_argument("scenario " + spec.name +
                                " needs both a config and a kernel factory");
  }
  scenarios_.push_back(std::move(spec));
}

const SuiteSpec* ScenarioRegistry::find_suite(const std::string& name) const {
  for (const SuiteSpec& s : suites_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const SuiteSpec& ScenarioRegistry::suite(const std::string& name) const {
  const SuiteSpec* s = find_suite(name);
  if (s == nullptr) throw std::out_of_range("unknown suite: " + name);
  return *s;
}

const ScenarioSpec* ScenarioRegistry::find(const std::string& name) const {
  for (const ScenarioSpec& s : scenarios_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::vector<const ScenarioSpec*> ScenarioRegistry::select_all(
    const std::vector<std::string>& globs) const {
  std::vector<const ScenarioSpec*> out;
  for (const ScenarioSpec& s : scenarios_) {
    for (const std::string& g : globs) {
      if (glob_match(g, s.name)) {
        out.push_back(&s);
        break;
      }
    }
  }
  return out;
}

std::vector<const ScenarioSpec*> ScenarioRegistry::suite_scenarios(
    const std::string& suite) const {
  std::vector<const ScenarioSpec*> out;
  for (const ScenarioSpec& s : scenarios_) {
    if (s.suite() == suite) out.push_back(&s);
  }
  return out;
}

}  // namespace tcdm::scenario
