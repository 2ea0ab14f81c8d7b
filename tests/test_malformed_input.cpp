// Malformed-input mutation test. Every shipped scenario file, a small
// explore memo store and a recorded metrics baseline are mutated leaf by
// leaf (each leaf deleted, or replaced by a value of every JSON kind and
// several out-of-range numbers) and truncated at a spread of offsets; the
// memo store's header keys are deleted, retyped and truncated too. Each
// mutant must either load or be refused with the loader's own error type —
// ScenarioFileError, ExploreFileError or SchemaError — whose message names
// the source and, where the key is read by a field list, the mutated key's
// path. Any other exception, or a crash under the sanitizer builds, fails
// the test.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/analytics/metrics_export.hpp"
#include "src/explore/memo_store.hpp"
#include "src/scenario/scenario_file.hpp"

namespace tcdm {
namespace {

/// One step from a parent container to a child: an object key, or an
/// array index when `key` is empty.
struct Step {
  std::string key;
  std::size_t index = 0;
};

struct Leaf {
  std::vector<Step> route;
  std::string path;  // the loaders' spelling: "scenarios[0]/config/num_tiles"
};

void collect_leaves(const Json& v, std::vector<Step>& route, const std::string& path,
                    std::vector<Leaf>& out) {
  if (v.is_object() && !v.as_object().empty()) {
    for (const auto& [key, child] : v.as_object()) {
      route.push_back({key, 0});
      collect_leaves(child, route, path.empty() ? key : path + "/" + key, out);
      route.pop_back();
    }
  } else if (v.is_array() && !v.as_array().empty()) {
    for (std::size_t i = 0; i < v.as_array().size(); ++i) {
      route.push_back({"", i});
      collect_leaves(v.as_array()[i], route, path + "[" + std::to_string(i) + "]", out);
      route.pop_back();
    }
  } else {
    out.push_back({route, path});
  }
}

std::vector<Leaf> leaves_of(const Json& doc) {
  std::vector<Leaf> out;
  std::vector<Step> route;
  collect_leaves(doc, route, "", out);
  return out;
}

/// Replaces the leaf at `route` by `*value`, or deletes it when `value` is
/// nullptr.
Json mutate(const Json& doc, const std::vector<Step>& route, const Json* value) {
  Json out = doc;
  Json* parent = &out;
  for (std::size_t i = 0; i + 1 < route.size(); ++i) {
    const Step& s = route[i];
    parent = s.key.empty() ? &parent->as_array()[s.index] : &parent->as_object()[s.key];
  }
  const Step& last = route.back();
  if (value != nullptr) {
    (last.key.empty() ? parent->as_array()[last.index] : parent->as_object()[last.key]) =
        *value;
  } else if (last.key.empty()) {
    Json::Array& a = parent->as_array();
    a.erase(a.begin() + static_cast<std::ptrdiff_t>(last.index));
  } else {
    parent->as_object().erase(last.key);
  }
  return out;
}

const std::vector<Json>& replacements() {
  static const std::vector<Json> values = {
      Json(nullptr), Json(true),         Json("x"),   Json(-1),        Json(1.5),
      Json(4294967296.0), Json(1e300), Json(Json::Array{}), Json(Json::Object{})};
  return values;
}

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

/// Offsets 0, 1, ..., spread over the text, plus the last few bytes.
std::vector<std::size_t> truncation_offsets(std::size_t size) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < 24; ++i) out.push_back(size * i / 24);
  for (std::size_t back = 1; back <= 3 && back < size; ++back) out.push_back(size - back);
  return out;
}

/// "scenarios[3]" for a leaf under the fourth template, "" otherwise.
std::string template_of(const std::string& path) {
  if (path.rfind("scenarios[", 0) != 0) return "";
  return path.substr(0, path.find(']') + 1);
}

/// True when the leaf is read by a field list or kernel parameter reader
/// (config, system, options, kernel), not produced by sweep substitution.
bool read_by_key(const std::string& path) {
  const std::string tpl = template_of(path);
  if (tpl.empty()) return false;
  for (const char* block : {"/config", "/system", "/options", "/kernel"}) {
    if (path.rfind(tpl + block, 0) == 0) return true;
  }
  return false;
}

// ------------------------------------------------------- scenario files ----

class ScenarioFileMutation : public ::testing::TestWithParam<const char*> {};

/// Loads `text` as a suite file; a refusal must be a ScenarioFileError that
/// names the source and every string in `must_name`.
void expect_loads_or_refuses(const std::string& file, const std::string& text,
                             const std::vector<std::string>& must_name,
                             const std::string& what) {
  write_text(file, text);
  try {
    (void)scenario::load_suite_file(file);
  } catch (const scenario::ScenarioFileError& e) {
    const std::string msg = e.what();
    EXPECT_EQ(msg.rfind(file + ": ", 0), 0u) << what << "\n" << msg;
    for (const std::string& name : must_name) {
      EXPECT_NE(msg.find(name), std::string::npos)
          << what << ": message does not name " << name << "\n" << msg;
    }
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": escaped as a non-ScenarioFileError: " << e.what();
  }
}

TEST_P(ScenarioFileMutation, EveryMutantLoadsOrIsRefusedByPath) {
  const std::string source =
      std::string(TCDM_SOURCE_DIR) + "/examples/scenarios/" + GetParam();
  const std::string text = read_text(source);
  ASSERT_FALSE(text.empty()) << source;
  const Json doc = Json::parse(text);
  const std::string file = ::testing::TempDir() + "tcdm_mutant_" + GetParam();

  for (const Leaf& leaf : leaves_of(doc)) {
    const std::string tpl = template_of(leaf.path);
    std::vector<std::string> names;
    if (!tpl.empty()) names.push_back(tpl);
    expect_loads_or_refuses(file, mutate(doc, leaf.route, nullptr).dump(), names,
                            "delete " + leaf.path);
    if (read_by_key(leaf.path)) names.push_back(leaf.path);
    for (const Json& value : replacements()) {
      expect_loads_or_refuses(file, mutate(doc, leaf.route, &value).dump(), names,
                              leaf.path + " = " + value.dump_compact());
    }
  }
  for (const std::size_t cut : truncation_offsets(text.size())) {
    expect_loads_or_refuses(file, text.substr(0, cut), {},
                            "truncated at " + std::to_string(cut));
  }
  std::filesystem::remove(file);
}

INSTANTIATE_TEST_SUITE_P(Examples, ScenarioFileMutation,
                         ::testing::Values("burst_grid.json", "multi_cluster.json",
                                           "rob_gf_grid.json", "trace_patterns.json"),
                         [](const auto& info) {
                           std::string name = info.param;
                           return name.substr(0, name.find('.'));
                         });

// ------------------------------------------------------------ memo store ----

/// A mutated memo entry (line 2) loads or is refused with an
/// ExploreFileError naming `file:2` and the mutated key.
void expect_store_loads_or_refuses(const std::string& file, const std::string& text,
                                   const std::string& must_name,
                                   const std::string& what) {
  write_text(file, text);
  try {
    const explore::MemoStore store(file);
  } catch (const explore::ExploreFileError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(must_name), std::string::npos)
        << what << ": message does not name " << must_name << "\n" << msg;
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": escaped as a non-ExploreFileError: " << e.what();
  }
}

TEST(MemoStoreMutation, EveryMutantLoadsOrIsRefusedByPath) {
  const std::string file = ::testing::TempDir() + "tcdm_mutant_memo.jsonl";
  std::filesystem::remove(file);
  {
    explore::MemoStore store(file);
    explore::CachedResult r;
    r.rel = "c0/dotp";
    r.metrics.config = "mp4spatz4";
    r.metrics.cycles = 1234;
    r.metrics.bw_per_core = 7.5;
    r.metrics.verified = true;
    r.metrics.clusters = 4;
    r.metrics.noc_bytes = 512.0;
    r.power.config = "mp4spatz4";
    r.power.fpu_w = 0.25;
    store.insert("0123456789abcdef0123456789abcdef", r);
  }
  const std::string text = read_text(file);
  const std::size_t eol = text.find('\n');
  ASSERT_NE(eol, std::string::npos);
  const std::string header = text.substr(0, eol + 1);
  const Json entry = Json::parse(text.substr(eol + 1));
  const std::string line2 = file + ":2";

  for (const Leaf& leaf : leaves_of(entry)) {
    // Trailing newline: a torn (newline-less) final line is tolerated.
    expect_store_loads_or_refuses(
        file, header + mutate(entry, leaf.route, nullptr).dump_compact() + "\n", line2,
        "delete " + leaf.path);
    for (const Json& value : replacements()) {
      expect_store_loads_or_refuses(
          file, header + mutate(entry, leaf.route, &value).dump_compact() + "\n",
          line2 + "/" + leaf.path, leaf.path + " = " + value.dump_compact());
    }
  }
  for (const std::size_t cut : truncation_offsets(text.size())) {
    expect_store_loads_or_refuses(file, text.substr(0, cut), file,
                                  "truncated at " + std::to_string(cut));
  }
  std::filesystem::remove(file);
}

/// A store whose header line is `header` must be refused with an
/// ExploreFileError naming `file:1/<key>`.
void expect_header_refused(const std::string& file, const Json& header,
                           const std::string& key, const std::string& what) {
  write_text(file, header.dump_compact() + "\n");
  try {
    const explore::MemoStore store(file);
    ADD_FAILURE() << what << ": loaded";
  } catch (const explore::ExploreFileError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(file + ":1/" + key), std::string::npos)
        << what << ": message does not name " << file << ":1/" << key << "\n" << msg;
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": escaped as a non-ExploreFileError: " << e.what();
  }
}

TEST(MemoStoreMutation, EveryHeaderMutantIsRefusedByKey) {
  const std::string file = ::testing::TempDir() + "tcdm_mutant_memo_header.jsonl";
  std::filesystem::remove(file);
  { const explore::MemoStore store(file); }
  const std::string text = read_text(file);
  const Json header = Json::parse(text.substr(0, text.find('\n')));
  ASSERT_EQ(header.as_object().size(), 2u) << text;

  for (const auto& [key, value] : header.as_object()) {
    Json mutant = header;
    mutant.as_object().erase(key);
    expect_header_refused(file, mutant, key, "delete " + key);
    for (const Json& replacement : replacements()) {
      mutant = header;
      mutant.set(key, replacement);
      expect_header_refused(file, mutant, key, key + " = " + replacement.dump_compact());
    }
    // A truncated key leaves the full one missing.
    mutant = header;
    mutant.as_object().erase(key);
    mutant.set(key.substr(0, key.size() - 1), value);
    expect_header_refused(file, mutant, key, "truncate " + key);
  }
  std::filesystem::remove(file);
}

// ------------------------------------------------------ metrics baseline ----

/// A mutated baseline loads or is refused with a SchemaError naming
/// `must_name`; only a truncated one may instead fail to parse. Every
/// refusal names the file, so a caller reading two documents (a baseline
/// and a fresh emission) can tell which one is malformed.
void expect_doc_loads_or_refuses(const std::string& file, const std::string& text,
                                 const std::string& must_name, const std::string& what) {
  write_text(file, text);
  try {
    (void)metrics::MetricsDoc::read_file(file);
  } catch (const SchemaError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(must_name), std::string::npos)
        << what << ": message does not name " << must_name << "\n" << msg;
    EXPECT_NE(msg.find(file), std::string::npos) << what << ": file not named\n" << msg;
  } catch (const JsonError& e) {
    const std::string msg = e.what();
    EXPECT_TRUE(must_name.empty()) << what << ": unnamed JsonError: " << msg;
    EXPECT_NE(msg.find(file), std::string::npos) << what << ": file not named\n" << msg;
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": escaped as a non-SchemaError: " << e.what();
  }
}

TEST(BaselineMutation, EveryMutantLoadsOrIsRefusedByPath) {
  const std::string source = std::string(TCDM_SOURCE_DIR) + "/baselines/table1.json";
  const std::string text = read_text(source);
  ASSERT_FALSE(text.empty()) << source;
  const Json doc = Json::parse(text);
  const std::string file = ::testing::TempDir() + "tcdm_mutant_baseline.json";

  for (const Leaf& leaf : leaves_of(doc)) {
    expect_doc_loads_or_refuses(file, mutate(doc, leaf.route, nullptr).dump(), leaf.path,
                                "delete " + leaf.path);
    for (const Json& value : replacements()) {
      expect_doc_loads_or_refuses(file, mutate(doc, leaf.route, &value).dump(), leaf.path,
                                  leaf.path + " = " + value.dump_compact());
    }
  }
  for (const std::size_t cut : truncation_offsets(text.size())) {
    expect_doc_loads_or_refuses(file, text.substr(0, cut), "",
                                "truncated at " + std::to_string(cut));
  }
  std::filesystem::remove(file);
}

}  // namespace
}  // namespace tcdm
