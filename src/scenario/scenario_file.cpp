#include "src/scenario/scenario_file.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "src/common/json_fields.hpp"

namespace tcdm::scenario {

namespace {

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw std::invalid_argument(path + ": " + what);
}

/// Scalar -> text for placeholder interpolation inside longer strings.
/// Integral numbers print without a decimal point (so "len{len}" with
/// len = 2 becomes "len2"), matching the JSON serializer's convention.
std::string scalar_text(const Json& v, const std::string& path) {
  if (v.is_string()) return v.as_string();
  if (v.is_bool()) return v.as_bool() ? "true" : "false";
  if (v.is_number()) {
    const double d = v.as_double();
    if (std::isfinite(d) && std::fabs(d) < 1e15 &&
        d == static_cast<double>(static_cast<long long>(d))) {
      return std::to_string(static_cast<long long>(d));
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", d);
    return buf;
  }
  fail(path, "cannot interpolate an object/array/null into a string");
}

/// Resolve "{param}" or "{param.field}" against the sweep bindings.
const Json& resolve_placeholder(const std::string& ref, const Json::Object& bindings,
                                const std::string& path) {
  const std::size_t dot = ref.find('.');
  const std::string param = dot == std::string::npos ? ref : ref.substr(0, dot);
  const auto it = bindings.find(param);
  if (it == bindings.end()) {
    fail(path, "placeholder {" + ref + "} names no sweep parameter");
  }
  if (dot == std::string::npos) return it->second;
  const std::string field = ref.substr(dot + 1);
  if (!it->second.is_object() || !it->second.contains(field)) {
    fail(path, "placeholder {" + ref + "}: sweep value of \"" + param +
                   "\" has no field \"" + field + "\"");
  }
  return it->second.at(field);
}

/// Substitute every placeholder in `v` for one sweep point. A string that
/// is exactly one placeholder becomes the bound value itself (type- and
/// structure-preserving); otherwise placeholders interpolate textually.
Json substitute(const Json& v, const Json::Object& bindings, const std::string& path) {
  if (v.is_string()) {
    const std::string& s = v.as_string();
    if (s.size() >= 2 && s.front() == '{' && s.back() == '}' &&
        s.find('{', 1) == std::string::npos &&
        s.find('}') == s.size() - 1) {
      return resolve_placeholder(s.substr(1, s.size() - 2), bindings, path);
    }
    std::string out;
    std::size_t pos = 0;
    while (pos < s.size()) {
      const std::size_t open = s.find('{', pos);
      if (open == std::string::npos) {
        out += s.substr(pos);
        break;
      }
      const std::size_t close = s.find('}', open);
      if (close == std::string::npos) {
        fail(path, "unterminated placeholder in \"" + s + "\"");
      }
      out += s.substr(pos, open - pos);
      const Json& bound =
          resolve_placeholder(s.substr(open + 1, close - open - 1), bindings, path);
      out += scalar_text(bound, path);
      pos = close + 1;
    }
    return Json(std::move(out));
  }
  if (v.is_array()) {
    Json::Array out;
    for (std::size_t i = 0; i < v.as_array().size(); ++i) {
      out.push_back(substitute(v.as_array()[i], bindings,
                               path + "[" + std::to_string(i) + "]"));
    }
    return Json(std::move(out));
  }
  if (v.is_object()) {
    Json::Object out;
    for (const auto& [key, val] : v.as_object()) {
      out[key] = substitute(val, bindings, path + "/" + key);
    }
    return Json(std::move(out));
  }
  return v;
}

/// `{"range": {"from": F, "to": T, "step": S}}`, or with `"mul": M` for a
/// geometric range.
struct Range {
  double from = 0.0;
  double to = 0.0;
  std::optional<double> step;
  std::optional<double> mul;
};

template <MaybeConst<Range> S, class V>
void fields(S& r, V& v) {
  v("from", r.from, kRequired);
  v("to", r.to, kRequired);
  v("step", r.step);
  v("mul", r.mul);
}

struct RangeSweep {
  Range range;
};

template <MaybeConst<RangeSweep> S, class V>
void fields(S& s, V& v) {
  v("range", s.range, kRequired);
}

/// Expand one sweep value list: an explicit array, or a range object.
std::vector<Json> sweep_values(const Json& v, const std::string& path) {
  if (v.is_array()) {
    if (v.as_array().empty()) fail(path, "sweep list must be non-empty");
    return v.as_array();
  }
  if (!v.is_object()) fail(path, "expected a value list or {\"range\": {...}}");
  RangeSweep sweep;
  read_fields(v, path, ReadPolicy::kUserInput, sweep);
  const Range& r = sweep.range;
  const std::string rpath = path + "/range";
  if (r.step.has_value() == r.mul.has_value()) {
    fail(rpath, "exactly one of \"step\" or \"mul\" is required");
  }
  // Capped inside the loops: an over-wide (or typo'd) range must produce
  // this diagnostic, not an OOM — and the cap also bounds the iteration
  // count below the float plateau where `x += step` stops advancing.
  const auto check_cap = [&](const std::vector<Json>& vals) {
    if (vals.size() > kMaxScenariosPerSuite) {
      fail(rpath, "expands to more than " + std::to_string(kMaxScenariosPerSuite) +
                      " values");
    }
  };
  std::vector<Json> out;
  if (r.step) {
    if (*r.step <= 0.0) fail(rpath + "/step", "must be positive");
    for (double x = r.from; x <= r.to + 1e-9; x += *r.step) {
      out.emplace_back(x);
      check_cap(out);
    }
  } else {
    if (*r.mul <= 1.0) fail(rpath + "/mul", "must be > 1");
    if (r.from <= 0.0) fail(rpath + "/from", "must be positive with mul");
    for (double x = r.from; x <= r.to + 1e-9; x *= *r.mul) {
      out.emplace_back(x);
      check_cap(out);
    }
  }
  if (out.empty()) fail(rpath, "expands to no values");
  return out;
}

struct SweepParam {
  std::string name;
  std::vector<Json> values;
};

std::vector<SweepParam> parse_sweep(const std::map<std::string, const Json*>& sweep,
                                    const std::string& path) {
  std::vector<SweepParam> out;
  for (const auto& [key, val] : sweep) {
    if (key.empty()) fail(path, "empty sweep parameter name");
    for (char c : key) {
      if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') {
        fail(path + "/" + key, "sweep parameter names are [A-Za-z0-9_] only");
      }
    }
    out.push_back({key, sweep_values(*val, path + "/" + key)});
  }
  if (out.empty()) fail(path, "sweep must define at least one parameter");
  return out;
}

/// One scenario template as written. Every value but the name may hold
/// placeholders, so it is read raw and parsed per sweep point.
struct Template {
  std::string name;
  std::optional<std::map<std::string, const Json*>> sweep;
  const Json* config = nullptr;
  const Json* kernel = nullptr;
  const Json* options = nullptr;
  const Json* system = nullptr;
  const Json* expect_verified = nullptr;
};

template <MaybeConst<Template> S, class V>
void fields(S& t, V& v) {
  v("name", t.name, kRequired);
  v("sweep", t.sweep);
  v("config", t.config, kRequired);
  v("kernel", t.kernel, kRequired);
  v("options", t.options);
  v("system", t.system);
  v("expect_verified", t.expect_verified);
}

/// A suite document's keys after the schema header. Its templates borrow
/// from the document.
struct SuiteFile {
  std::string suite;
  std::string description;
  bool emit_by_default = true;
  std::vector<Template> scenarios;
};

template <MaybeConst<SuiteFile> S, class V>
void fields(S& f, V& v) {
  v("suite", f.suite, kRequired);
  v("description", f.description);
  v("emit_by_default", f.emit_by_default);
  v("scenarios", f.scenarios);  // absent reads as empty, refused below
}

/// Expands one template into `out`, one scenario per sweep point.
void expand_template(const Template& tpl, const std::string& tpath,
                     std::set<std::string>& seen, LoadedSuite& out) {
  std::vector<SweepParam> sweep;
  if (tpl.sweep) sweep = parse_sweep(*tpl.sweep, tpath + "/sweep");

  // Odometer over the cartesian product, last parameter varying fastest.
  std::vector<std::size_t> idx(sweep.size(), 0);
  while (true) {
    Json::Object bindings;
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      bindings[sweep[i].name] = sweep[i].values[idx[i]];
    }

    FileScenario sc;
    const Json name_v = substitute(Json(tpl.name), bindings, tpath + "/name");
    if (!name_v.is_string() || name_v.as_string().empty()) {
      fail(tpath + "/name", "expands to an empty or non-string name");
    }
    sc.rel = name_v.as_string();
    if (!seen.insert(sc.rel).second) {
      fail(tpath + "/name", "duplicate expanded scenario name \"" + sc.rel +
                                "\" (sweep parameters must appear in the name template)");
    }
    try {
      sc.config = ClusterConfig::from_json(
          substitute(*tpl.config, bindings, tpath + "/config"), tpath + "/config");
      sc.kernel = KernelSpec::from_json(substitute(*tpl.kernel, bindings, tpath + "/kernel"),
                                        tpath + "/kernel");
      // Dry-run construction so parameter errors surface at load time,
      // not mid-sweep.
      (void)sc.kernel.instantiate(sc.config, tpath + "/kernel");
      if (tpl.options) {
        sc.opts = runner_options_from_json(
            substitute(*tpl.options, bindings, tpath + "/options"), tpath + "/options");
      }
      if (tpl.system) {
        sc.system = SystemConfig::from_json(
            substitute(*tpl.system, bindings, tpath + "/system"), tpath + "/system");
        // The System constructor's cross-field check, surfaced at load
        // time with the scenario path instead.
        sc.system->validate(sc.config, tpath + "/system");
      }
    } catch (const std::exception& e) {
      throw std::invalid_argument(std::string(e.what()) + " (scenario \"" + sc.rel + "\")");
    }
    if (tpl.expect_verified) {
      const Json ev =
          substitute(*tpl.expect_verified, bindings, tpath + "/expect_verified");
      if (!ev.is_bool()) fail(tpath + "/expect_verified", "expected true or false");
      sc.expect_verified = ev.as_bool();
    }
    out.scenarios.push_back(std::move(sc));
    if (out.scenarios.size() > kMaxScenariosPerSuite) {
      fail("scenarios", "the suite expands to more than " +
                            std::to_string(kMaxScenariosPerSuite) + " scenarios");
    }

    std::size_t i = sweep.size();
    bool wrapped = true;
    while (i > 0) {
      --i;
      if (++idx[i] < sweep[i].values.size()) {
        wrapped = false;
        break;
      }
      idx[i] = 0;
    }
    if (wrapped) break;  // product exhausted (also the sweep-less case)
  }
}

}  // namespace

LoadedSuite parse_suite(const Json& doc, const std::string& source) {
  try {
    SuiteFile file;
    read_document(doc, "", ReadPolicy::kUserInput, kScenarioSchemaName,
                  kScenarioSchemaVersion, file);
    if (file.suite.empty()) fail("suite", "expected a non-empty string");
    if (file.suite.find('/') != std::string::npos) {
      fail("suite", "name must not contain '/'");
    }
    if (file.scenarios.empty()) fail("scenarios", "expected a non-empty array");

    LoadedSuite out;
    out.suite.name = file.suite;
    out.suite.description = file.description;
    out.suite.emit_by_default = file.emit_by_default;
    std::set<std::string> seen;
    for (std::size_t t = 0; t < file.scenarios.size(); ++t) {
      expand_template(file.scenarios[t], "scenarios[" + std::to_string(t) + "]", seen, out);
    }
    return out;
  } catch (const std::invalid_argument& e) {
    throw ScenarioFileError(source + ": " + e.what());
  }
}

LoadedSuite load_suite_file(const std::string& path) {
  std::string text;
  if (path == "-") {
    std::ostringstream ss;
    ss << std::cin.rdbuf();
    text = ss.str();
  } else {
    std::error_code ec;
    if (std::filesystem::is_directory(path, ec)) {
      throw ScenarioFileIoError(path + ": is a directory");
    }
    std::ifstream in(path, std::ios::binary);
    if (!in) throw ScenarioFileIoError(path + ": cannot open file");
    std::ostringstream ss;
    ss << in.rdbuf();
    if (in.bad()) throw ScenarioFileIoError(path + ": read failed");
    text = ss.str();
  }
  const std::string source = path == "-" ? "<stdin>" : path;
  Json doc;
  try {
    doc = Json::parse(text);
  } catch (const JsonError& e) {
    throw ScenarioFileError(source + ": " + e.what());
  }
  return parse_suite(doc, source);
}

ScenarioSpec to_scenario_spec(const std::string& suite_name, const FileScenario& sc) {
  ScenarioSpec s;
  s.name = suite_name + "/" + sc.rel;
  s.config = [cfg = sc.config] { return cfg; };
  s.kernel = [kernel = sc.kernel, cfg = sc.config] { return kernel.instantiate(cfg); };
  s.opts = sc.opts;
  s.expect_verified = sc.expect_verified;
  if (sc.system) s.system = [sys = *sc.system] { return sys; };
  return s;
}

void register_loaded_suite(ScenarioRegistry& reg, const LoadedSuite& suite) {
  reg.add_suite(suite.suite);
  for (const FileScenario& sc : suite.scenarios) {
    reg.add(to_scenario_spec(suite.suite.name, sc));
  }
}

std::string register_suite_file(ScenarioRegistry& reg, const std::string& path) {
  const LoadedSuite suite = load_suite_file(path);
  register_loaded_suite(reg, suite);
  return suite.suite.name;
}

}  // namespace tcdm::scenario
