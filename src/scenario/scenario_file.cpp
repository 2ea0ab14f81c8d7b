#include "src/scenario/scenario_file.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <utility>

namespace tcdm::scenario {

namespace {

[[noreturn]] void fail(const std::string& source, const std::string& what) {
  throw ScenarioFileError(source + ": " + what);
}

/// Scalar -> text for placeholder interpolation inside longer strings.
/// Integral numbers print without a decimal point (so "len{len}" with
/// len = 2 becomes "len2"), matching the JSON serializer's convention.
std::string scalar_text(const Json& v, const std::string& source,
                        const std::string& path) {
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
  fail(source, path + ": cannot interpolate an object/array/null into a string");
}

/// Resolve "{param}" or "{param.field}" against the sweep bindings.
const Json& resolve_placeholder(const std::string& ref, const Json::Object& bindings,
                                const std::string& source, const std::string& path) {
  const std::size_t dot = ref.find('.');
  const std::string param = dot == std::string::npos ? ref : ref.substr(0, dot);
  const auto it = bindings.find(param);
  if (it == bindings.end()) {
    fail(source, path + ": placeholder {" + ref + "} names no sweep parameter");
  }
  if (dot == std::string::npos) return it->second;
  const std::string field = ref.substr(dot + 1);
  if (!it->second.is_object() || !it->second.contains(field)) {
    fail(source, path + ": placeholder {" + ref + "}: sweep value of \"" + param +
                     "\" has no field \"" + field + "\"");
  }
  return it->second.at(field);
}

/// Substitute every placeholder in `v` for one sweep point. A string that
/// is exactly one placeholder becomes the bound value itself (type- and
/// structure-preserving); otherwise placeholders interpolate textually.
Json substitute(const Json& v, const Json::Object& bindings, const std::string& source,
                const std::string& path) {
  if (v.is_string()) {
    const std::string& s = v.as_string();
    if (s.size() >= 2 && s.front() == '{' && s.back() == '}' &&
        s.find('{', 1) == std::string::npos &&
        s.find('}') == s.size() - 1) {
      return resolve_placeholder(s.substr(1, s.size() - 2), bindings, source, path);
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
        fail(source, path + ": unterminated placeholder in \"" + s + "\"");
      }
      out += s.substr(pos, open - pos);
      const Json& bound = resolve_placeholder(s.substr(open + 1, close - open - 1),
                                              bindings, source, path);
      out += scalar_text(bound, source, path);
      pos = close + 1;
    }
    return Json(std::move(out));
  }
  if (v.is_array()) {
    Json::Array out;
    for (std::size_t i = 0; i < v.as_array().size(); ++i) {
      out.push_back(substitute(v.as_array()[i], bindings, source,
                               path + "[" + std::to_string(i) + "]"));
    }
    return Json(std::move(out));
  }
  if (v.is_object()) {
    Json::Object out;
    for (const auto& [key, val] : v.as_object()) {
      out[key] = substitute(val, bindings, source, path + "/" + key);
    }
    return Json(std::move(out));
  }
  return v;
}

double range_num(const Json& obj, const std::string& key, const std::string& source,
                 const std::string& path) {
  if (!obj.contains(key)) fail(source, path + "/" + key + ": required");
  const Json& v = obj.at(key);
  if (!v.is_number()) fail(source, path + "/" + key + ": expected a number");
  return v.as_double();
}

/// Expand one sweep value list: an explicit array, or a range object.
std::vector<Json> sweep_values(const Json& v, const std::string& source,
                               const std::string& path) {
  if (v.is_array()) {
    if (v.as_array().empty()) fail(source, path + ": sweep list must be non-empty");
    return v.as_array();
  }
  if (v.is_object() && v.contains("range")) {
    if (v.as_object().size() != 1) {
      fail(source, path + ": a range sweep takes exactly the \"range\" key");
    }
    const Json& r = v.at("range");
    if (!r.is_object()) fail(source, path + "/range: expected an object");
    const double from = range_num(r, "from", source, path + "/range");
    const double to = range_num(r, "to", source, path + "/range");
    const bool has_step = r.contains("step");
    const bool has_mul = r.contains("mul");
    if (has_step == has_mul) {
      fail(source, path + "/range: exactly one of \"step\" or \"mul\" is required");
    }
    for (const auto& [key, val] : r.as_object()) {
      (void)val;
      if (key != "from" && key != "to" && key != "step" && key != "mul") {
        fail(source, path + "/range/" + key + ": unknown key");
      }
    }
    // Capped inside the loops: an over-wide (or typo'd) range must produce
    // this diagnostic, not an OOM — and the cap also bounds the iteration
    // count below the float plateau where `x += step` stops advancing.
    const auto check_cap = [&](const std::vector<Json>& vals) {
      if (vals.size() > kMaxScenariosPerSuite) {
        fail(source, path + "/range: expands to more than " +
                         std::to_string(kMaxScenariosPerSuite) + " values");
      }
    };
    std::vector<Json> out;
    if (has_step) {
      const double step = range_num(r, "step", source, path + "/range");
      if (step <= 0.0) fail(source, path + "/range/step: must be positive");
      for (double x = from; x <= to + 1e-9; x += step) {
        out.emplace_back(x);
        check_cap(out);
      }
    } else {
      const double mul = range_num(r, "mul", source, path + "/range");
      if (mul <= 1.0) fail(source, path + "/range/mul: must be > 1");
      if (from <= 0.0) fail(source, path + "/range/from: must be positive with mul");
      for (double x = from; x <= to + 1e-9; x *= mul) {
        out.emplace_back(x);
        check_cap(out);
      }
    }
    if (out.empty()) fail(source, path + "/range: expands to no values");
    return out;
  }
  fail(source, path + ": expected a value list or {\"range\": {...}}");
}

struct SweepParam {
  std::string name;
  std::vector<Json> values;
};

std::vector<SweepParam> parse_sweep(const Json& v, const std::string& source,
                                    const std::string& path) {
  if (!v.is_object()) fail(source, path + ": expected an object");
  std::vector<SweepParam> out;
  for (const auto& [key, val] : v.as_object()) {
    if (key.empty()) fail(source, path + ": empty sweep parameter name");
    for (char c : key) {
      if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') {
        fail(source, path + "/" + key +
                         ": sweep parameter names are [A-Za-z0-9_] only");
      }
    }
    out.push_back({key, sweep_values(val, source, path + "/" + key)});
  }
  if (out.empty()) fail(source, path + ": sweep must define at least one parameter");
  return out;
}

int schema_version_of(const Json& doc, const std::string& source) {
  if (!doc.contains("schema") || !doc.at("schema").is_string() ||
      doc.at("schema").as_string() != kScenarioSchemaName) {
    fail(source, "schema: expected \"" + std::string(kScenarioSchemaName) + "\"");
  }
  if (!doc.contains("schema_version") || !doc.at("schema_version").is_number()) {
    fail(source, "schema_version: required");
  }
  const double v = doc.at("schema_version").as_double();
  if (v != kScenarioSchemaVersion) {
    fail(source, "schema_version: unsupported version " + scalar_text(
                     doc.at("schema_version"), source, "schema_version"));
  }
  return kScenarioSchemaVersion;
}

}  // namespace

LoadedSuite parse_suite(const Json& doc, const std::string& source) {
  if (!doc.is_object()) fail(source, "expected a JSON object at top level");
  (void)schema_version_of(doc, source);

  LoadedSuite out;
  out.suite.emit_by_default = true;
  for (const auto& [key, val] : doc.as_object()) {
    if (key == "schema" || key == "schema_version" || key == "scenarios") {
      continue;
    } else if (key == "suite") {
      if (!val.is_string() || val.as_string().empty()) {
        fail(source, "suite: expected a non-empty string");
      }
      out.suite.name = val.as_string();
      if (out.suite.name.find('/') != std::string::npos) {
        fail(source, "suite: name must not contain '/'");
      }
    } else if (key == "description") {
      if (!val.is_string()) fail(source, "description: expected a string");
      out.suite.description = val.as_string();
    } else if (key == "emit_by_default") {
      if (!val.is_bool()) fail(source, "emit_by_default: expected true or false");
      out.suite.emit_by_default = val.as_bool();
    } else {
      fail(source, key + ": unknown top-level key");
    }
  }
  if (out.suite.name.empty()) fail(source, "suite: required");
  if (!doc.contains("scenarios") || !doc.at("scenarios").is_array() ||
      doc.at("scenarios").as_array().empty()) {
    fail(source, "scenarios: expected a non-empty array");
  }

  std::set<std::string> seen;
  const Json::Array& templates = doc.at("scenarios").as_array();
  for (std::size_t t = 0; t < templates.size(); ++t) {
    const std::string tpath = "scenarios[" + std::to_string(t) + "]";
    const Json& tpl = templates[t];
    if (!tpl.is_object()) fail(source, tpath + ": expected an object");
    for (const auto& [key, val] : tpl.as_object()) {
      (void)val;
      if (key != "name" && key != "sweep" && key != "config" && key != "kernel" &&
          key != "options" && key != "expect_verified" && key != "system") {
        fail(source, tpath + "/" + key + ": unknown key");
      }
    }
    for (const char* req : {"name", "config", "kernel"}) {
      if (!tpl.contains(req)) fail(source, tpath + "/" + req + ": required");
    }
    if (!tpl.at("name").is_string()) fail(source, tpath + "/name: expected a string");

    std::vector<SweepParam> sweep;
    if (tpl.contains("sweep")) {
      sweep = parse_sweep(tpl.at("sweep"), source, tpath + "/sweep");
    }

    // Odometer over the cartesian product, last parameter varying fastest.
    std::vector<std::size_t> idx(sweep.size(), 0);
    while (true) {
      Json::Object bindings;
      for (std::size_t i = 0; i < sweep.size(); ++i) {
        bindings[sweep[i].name] = sweep[i].values[idx[i]];
      }

      FileScenario sc;
      const Json name_v =
          substitute(tpl.at("name"), bindings, source, tpath + "/name");
      if (!name_v.is_string() || name_v.as_string().empty()) {
        fail(source, tpath + "/name: expands to an empty or non-string name");
      }
      sc.rel = name_v.as_string();
      if (!seen.insert(sc.rel).second) {
        fail(source, tpath + "/name: duplicate expanded scenario name \"" + sc.rel +
                         "\" (sweep parameters must appear in the name template)");
      }
      try {
        sc.config = ClusterConfig::from_json(
            substitute(tpl.at("config"), bindings, source, tpath + "/config"),
            tpath + "/config");
        sc.kernel = KernelSpec::from_json(
            substitute(tpl.at("kernel"), bindings, source, tpath + "/kernel"),
            tpath + "/kernel");
        // Dry-run construction so parameter errors surface at load time,
        // not mid-sweep.
        (void)sc.kernel.instantiate(sc.config, tpath + "/kernel");
        if (tpl.contains("options")) {
          sc.opts = runner_options_from_json(
              substitute(tpl.at("options"), bindings, source, tpath + "/options"),
              tpath + "/options");
        }
        if (tpl.contains("system")) {
          sc.system = SystemConfig::from_json(
              substitute(tpl.at("system"), bindings, source, tpath + "/system"),
              tpath + "/system");
          // Cross-field check the System constructor would reject anyway —
          // surfaced at load time with the scenario path instead.
          const unsigned tcdm_words = sc.config.num_banks() * sc.config.bank_words;
          if (sc.system->dma_words > tcdm_words) {
            fail(source, tpath + "/system/dma_words: " +
                             std::to_string(sc.system->dma_words) +
                             " exceeds the TCDM capacity of cluster config \"" +
                             sc.config.name + "\" (" +
                             std::to_string(sc.config.num_banks()) + " banks x " +
                             std::to_string(sc.config.bank_words) + " words = " +
                             std::to_string(tcdm_words) + " words)");
          }
        }
      } catch (const ScenarioFileError&) {
        throw;
      } catch (const std::exception& e) {
        fail(source, std::string(e.what()) + " (scenario \"" + sc.rel + "\")");
      }
      if (tpl.contains("expect_verified")) {
        const Json ev = substitute(tpl.at("expect_verified"), bindings, source,
                                   tpath + "/expect_verified");
        if (!ev.is_bool()) {
          fail(source, tpath + "/expect_verified: expected true or false");
        }
        sc.expect_verified = ev.as_bool();
      }
      out.scenarios.push_back(std::move(sc));
      if (out.scenarios.size() > kMaxScenariosPerSuite) {
        fail(source, "suite expands to more than " +
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
  return out;
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
  SuiteSpec spec = suite.suite;  // print/emit_model stay unset: file suites
  reg.add_suite(std::move(spec));  // render the generic per-scenario table
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
