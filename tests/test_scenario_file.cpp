// Data-driven scenario layer: ClusterConfig/KernelSpec/RunnerOptions JSON
// round-trips, scenario-file parsing with sweep expansion, strict
// validation with path-named errors, and the randomized generator's
// determinism and invariants.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "src/common/bitutil.hpp"
#include "src/explore/config_hash.hpp"
#include "src/scenario/builtin.hpp"
#include "src/scenario/runner.hpp"
#include "src/scenario/scenario_file.hpp"
#include "src/scenario/scenario_gen.hpp"
#include "tests/support/test_support.hpp"

namespace tcdm::scenario {
namespace {

// --------------------------------------------- ClusterConfig round trip ----

/// Every builtin preset and burst-extension variant must survive
/// to_json -> from_json byte-identically.
TEST(ClusterConfigJson, RoundTripIsIdentityForAllPresetVariants) {
  std::vector<ClusterConfig> variants;
  for (const std::string& preset :
       {"mp4spatz4", "mp64spatz4", "mp128spatz8"}) {
    const ClusterConfig base = ClusterConfig::by_name(preset);
    variants.push_back(base);
    variants.push_back(base.with_burst(2));
    variants.push_back(base.with_burst(4));
    variants.push_back(base.with_burst(4).with_strided_bursts());
    variants.push_back(base.with_burst(4).with_store_bursts(2));
  }
  for (const ClusterConfig& cfg : variants) {
    const Json j = cfg.to_json();
    const ClusterConfig back = ClusterConfig::from_json(j);
    EXPECT_EQ(j.dump(), back.to_json().dump()) << cfg.name;
  }
}

TEST(ClusterConfigJson, PresetPlusBurstSugarMatchesTheCppTransforms) {
  Json j;
  j.set("preset", "mp64spatz4");
  Json burst;
  burst.set("gf", 4);
  j.set("burst", std::move(burst));
  const ClusterConfig from_file = ClusterConfig::from_json(j);
  const ClusterConfig from_cpp = ClusterConfig::mp64spatz4().with_burst(4);
  EXPECT_EQ(from_file.to_json().dump(), from_cpp.to_json().dump());
}

/// The bank, network, burst-manager and scalar-core knobs and the
/// cluster barrier's kind, radix and latency are constants of their
/// components, not config keys: spelling one under a scenario's config is
/// refused by path.
TEST(ClusterConfigJson, RemovedKeysAreRefusedByPath) {
  for (const char* key : {"snitch", "net", "bm", "bank_in_depth", "bank_out_depth",
                          "barrier_release_latency", "barrier_kind", "barrier_radix"}) {
    const std::string text = std::string(R"({"schema": "tcdm-scenarios", "schema_version": 1,
        "suite": "x", "scenarios": [{"name": "a", "kernel": {"kind": "dotp", "n": 64},
        "config": {"preset": "mp4spatz4", ")") + key + R"(": 1}}]})";
    try {
      (void)parse_suite(Json::parse(text), "doc.json");
      ADD_FAILURE() << key << ": expected ScenarioFileError";
    } catch (const ScenarioFileError& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("scenarios[0]/config/") + key +
                                           ": unknown key"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ClusterConfigJson, RequestGroupingFactorRoundTrips) {
  const ClusterConfig cfg = ClusterConfig::mp4spatz4().with_burst(4).with_store_bursts(2);
  const Json j = cfg.to_json();
  EXPECT_EQ(j.at("req_grouping_factor").as_double(), 2.0);
  const ClusterConfig back = ClusterConfig::from_json(j);
  EXPECT_EQ(back.req_grouping_factor, 2u);
  EXPECT_EQ(back.to_json().dump(), j.dump());
}

TEST(ClusterConfigJson, UnknownKeyNamesTheOffendingPath) {
  Json j;
  j.set("preset", "mp4spatz4");
  j.set("num_tile", 8);  // typo
  try {
    (void)ClusterConfig::from_json(j, "scenarios[3]/config");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("scenarios[3]/config/num_tile"),
              std::string::npos)
        << e.what();
  }
}

TEST(ClusterConfigJson, NonPowerOfTwoTilesFailsValidationWithPath) {
  Json j;
  j.set("preset", "mp4spatz4");
  j.set("num_tiles", 3);
  Json::Array sizes;
  sizes.emplace_back(1);
  sizes.emplace_back(3);
  j.set("level_sizes", std::move(sizes));
  try {
    (void)ClusterConfig::from_json(j, "cfg");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("cfg"), std::string::npos) << msg;
    EXPECT_NE(msg.find("powers of two"), std::string::npos) << msg;
  }
}

TEST(ClusterConfigJson, BurstBlockConflictsWithResolvedFields) {
  Json j;
  j.set("preset", "mp4spatz4");
  j.set("burst_enabled", true);
  Json burst;
  burst.set("gf", 2);
  j.set("burst", std::move(burst));
  EXPECT_THROW((void)ClusterConfig::from_json(j), std::invalid_argument);
}

TEST(ClusterConfigJson, BadTypeIsRejectedWithPath) {
  Json j;
  j.set("num_tiles", "four");
  try {
    (void)ClusterConfig::from_json(j, "cfg");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("cfg/num_tiles"), std::string::npos);
  }
}

TEST(ClusterConfigJson, UnknownPresetListsTheKnownOnes) {
  Json j;
  j.set("preset", "mp32spatz2");
  try {
    (void)ClusterConfig::from_json(j);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("mp128spatz8"), std::string::npos);
  }
}

// ------------------------------------------------- KernelSpec round trip ----

TEST(KernelSpecJson, RoundTripAndInstantiation) {
  Json j;
  j.set("kind", "matmul");
  j.set("n", 16);
  j.set("row_block", 4);
  const KernelSpec spec = KernelSpec::from_json(j);
  EXPECT_EQ(spec.kind, "matmul");
  EXPECT_EQ(j.dump(), spec.to_json().dump());
  const auto kernel = spec.instantiate(ClusterConfig::mp4spatz4());
  EXPECT_EQ(kernel->name(), "matmul");
}

TEST(KernelSpecJson, UnknownKindListsTheSupportedKinds) {
  Json j;
  j.set("kind", "sgemm");
  try {
    (void)KernelSpec::from_json(j, "kernel");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("kernel/kind"), std::string::npos) << msg;
    EXPECT_NE(msg.find("dotp"), std::string::npos) << msg;
    EXPECT_NE(msg.find("trace_replay"), std::string::npos) << msg;
  }
}

TEST(KernelSpecJson, UnknownParameterNamesThePath) {
  Json j;
  j.set("kind", "dotp");
  j.set("n", 1024);
  j.set("size", 1024);  // the parameter is called n
  try {
    (void)KernelSpec::from_json(j, "scenarios[0]/kernel")
        .instantiate(ClusterConfig::mp4spatz4(), "scenarios[0]/kernel");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("scenarios[0]/kernel/size"),
              std::string::npos);
  }
}

TEST(KernelSpecJson, MissingRequiredParameterFailsAtInstantiation) {
  Json j;
  j.set("kind", "dotp");
  const KernelSpec spec = KernelSpec::from_json(j);
  try {
    (void)spec.instantiate(ClusterConfig::mp4spatz4(), "kernel");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("kernel/n"), std::string::npos);
  }
}

TEST(KernelSpecJson, AutoProbeItersFollowTheBuiltinRule) {
  Json j;
  j.set("kind", "random_probe");
  const KernelSpec spec = KernelSpec::from_json(j);
  const auto small = spec.instantiate(ClusterConfig::mp4spatz4());
  const auto big = spec.instantiate(ClusterConfig::mp128spatz8());
  // 128 iterations, scaled down to 64 on the 1024-FPU preset.
  EXPECT_EQ(small->size_desc(), "128-uniform");
  EXPECT_EQ(big->size_desc(), "64-uniform");
}

// ---------------------------------------------- RunnerOptions round trip ----

TEST(RunnerOptionsJson, RoundTripPreservesEveryField) {
  RunnerOptions o;
  o.verify = false;
  o.max_cycles = 123456789;
  o.watchdog_window = 4242;
  const RunnerOptions back = runner_options_from_json(runner_options_to_json(o));
  EXPECT_EQ(runner_options_to_json(o).dump(), runner_options_to_json(back).dump());
}

TEST(RunnerOptionsJson, UnknownKeyIsRejected) {
  Json j;
  j.set("max_cycle", 100);
  try {
    (void)runner_options_from_json(j, "scenarios[1]/options");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("scenarios[1]/options/max_cycle"),
              std::string::npos);
  }
}

// ----------------------------------------------------- suite file parsing ----

Json parse_text(const std::string& text) { return Json::parse(text); }

constexpr const char* kMinimalSuite = R"({
  "schema": "tcdm-scenarios",
  "schema_version": 1,
  "suite": "mini",
  "description": "one scenario",
  "scenarios": [
    {
      "name": "dotp",
      "config": {"preset": "mp4spatz4"},
      "kernel": {"kind": "dotp", "n": 256},
      "options": {"max_cycles": 1000000}
    }
  ]
})";

TEST(ScenarioFile, MinimalSuiteParses) {
  const LoadedSuite suite = parse_suite(parse_text(kMinimalSuite), "mini.json");
  EXPECT_EQ(suite.suite.name, "mini");
  EXPECT_TRUE(suite.suite.emit_by_default);
  ASSERT_EQ(suite.scenarios.size(), 1u);
  EXPECT_EQ(suite.scenarios[0].rel, "dotp");
  EXPECT_EQ(suite.scenarios[0].config.name, "mp4spatz4");
  EXPECT_EQ(suite.scenarios[0].opts.max_cycles, 1000000u);
  EXPECT_TRUE(suite.scenarios[0].expect_verified);
}

TEST(ScenarioFile, SweepExpandsTheCartesianProductLastKeyFastest) {
  const LoadedSuite suite = parse_suite(parse_text(R"({
    "schema": "tcdm-scenarios",
    "schema_version": 1,
    "suite": "sweep",
    "scenarios": [{
      "name": "gf{gf}/rob{rob}",
      "sweep": {"gf": [2, 4], "rob": {"range": {"from": 4, "to": 16, "mul": 2}}},
      "config": {"preset": "mp4spatz4", "rob_depth": "{rob}", "burst": {"gf": "{gf}"}},
      "kernel": {"kind": "random_probe", "iters": 8},
      "options": {"verify": false}
    }]
  })"),
                                        "sweep.json");
  ASSERT_EQ(suite.scenarios.size(), 6u);  // 2 gf x 3 rob
  // Sweep keys iterate in sorted order (gf before rob), rob fastest.
  EXPECT_EQ(suite.scenarios[0].rel, "gf2/rob4");
  EXPECT_EQ(suite.scenarios[1].rel, "gf2/rob8");
  EXPECT_EQ(suite.scenarios[2].rel, "gf2/rob16");
  EXPECT_EQ(suite.scenarios[3].rel, "gf4/rob4");
  // with_burst doubles the swept pre-burst depth.
  EXPECT_EQ(suite.scenarios[0].config.rob_depth, 8u);
  EXPECT_EQ(suite.scenarios[2].config.rob_depth, 32u);
  EXPECT_EQ(suite.scenarios[3].config.grouping_factor, 4u);
}

TEST(ScenarioFile, StepRangesAndObjectSweepValuesSubstitute) {
  const LoadedSuite suite = parse_suite(parse_text(R"({
    "schema": "tcdm-scenarios",
    "schema_version": 1,
    "suite": "objs",
    "scenarios": [{
      "name": "{k.label}/s{stagger}",
      "sweep": {
        "k": [{"label": "small", "spec": {"kind": "dotp", "n": 128}},
              {"label": "big", "spec": {"kind": "dotp", "n": 512}}],
        "stagger": {"range": {"from": 0, "to": 2, "step": 2}}
      },
      "config": {"preset": "mp4spatz4", "start_stagger_cycles": "{stagger}"},
      "kernel": "{k.spec}"
    }]
  })"),
                                        "objs.json");
  ASSERT_EQ(suite.scenarios.size(), 4u);
  EXPECT_EQ(suite.scenarios[0].rel, "small/s0");
  EXPECT_EQ(suite.scenarios[1].rel, "small/s2");
  EXPECT_EQ(suite.scenarios[0].config.start_stagger_cycles, 0u);
  EXPECT_EQ(suite.scenarios[1].config.start_stagger_cycles, 2u);
  // Whole-object substitution carried the kernel spec across.
  EXPECT_EQ(suite.scenarios[2].rel, "big/s0");
  EXPECT_EQ(suite.scenarios[2].kernel.kind, "dotp");
  EXPECT_EQ(suite.scenarios[2].kernel.params.at("n").as_double(), 512.0);
}

TEST(ScenarioFile, MalformedDocumentsNameTheOffendingPath) {
  const struct {
    const char* text;
    const char* expected;  // substring of the error message
  } cases[] = {
      {R"({"schema": "nope", "schema_version": 1, "suite": "x",
           "scenarios": [{}]})",
       "schema: expected \"tcdm-scenarios\""},
      {R"({"schema": "tcdm-scenarios", "schema_version": 99, "suite": "x",
           "scenarios": [{}]})",
       "schema_version: unsupported"},
      {R"({"schema": "tcdm-scenarios", "schema_version": 1,
           "scenarios": [{}]})",
       "suite: required"},
      {R"({"schema": "tcdm-scenarios", "schema_version": 1, "suite": "x",
           "scenario": []})",
       "scenario: unknown key (known: schema, schema_version, suite, description, "
       "emit_by_default, scenarios)"},
      {R"({"schema": "tcdm-scenarios", "schema_version": 1, "suite": "x",
           "scenarios": [{"name": "a", "config": {"preset": "mp4spatz4"},
                          "kernel": {"kind": "dotp", "n": 64},
                          "options": {"max_cycle": 5}}]})",
       "scenarios[0]/options/max_cycle"},
      {R"({"schema": "tcdm-scenarios", "schema_version": 1, "suite": "x",
           "scenarios": [{"name": "a",
                          "config": {"preset": "mp4spatz4", "num_tiles": 6,
                                     "level_sizes": [1, 6]},
                          "kernel": {"kind": "dotp", "n": 64}}]})",
       "scenarios[0]/config"},
      {R"({"schema": "tcdm-scenarios", "schema_version": 1, "suite": "x",
           "scenarios": [{"name": "a", "config": {"preset": "mp4spatz4"},
                          "kernel": {"kind": "dotp", "n": 64, "seeds": 3}}]})",
       "scenarios[0]/kernel/seeds"},
      {R"({"schema": "tcdm-scenarios", "schema_version": 1, "suite": "x",
           "scenarios": [{"name": "fixed", "sweep": {"gf": [2, 4]},
                          "config": {"preset": "mp4spatz4", "burst": {"gf": "{gf}"}},
                          "kernel": {"kind": "dotp", "n": 64}}]})",
       "duplicate expanded scenario name"},
      {R"({"schema": "tcdm-scenarios", "schema_version": 1, "suite": "x",
           "scenarios": [{"name": "{typo}", "sweep": {"gf": [2]},
                          "config": {"preset": "mp4spatz4"},
                          "kernel": {"kind": "dotp", "n": 64}}]})",
       "placeholder {typo} names no sweep parameter"},
      // Host thread counts are command-line flags, not scenario fields.
      {R"({"schema": "tcdm-scenarios", "schema_version": 1, "suite": "x",
           "scenarios": [{"name": "a", "config": {"preset": "mp4spatz4"},
                          "kernel": {"kind": "dotp", "n": 64},
                          "options": {"sim_threads": 4}}]})",
       "scenarios[0]/options/sim_threads: unknown key"},
      {R"({"schema": "tcdm-scenarios", "schema_version": 1, "suite": "x",
           "scenarios": [{"name": "a", "config": {"preset": "mp4spatz4"},
                          "kernel": {"kind": "dotp", "n": 64},
                          "system": {"num_clusters": 2, "sim_threads": 2}}]})",
       "scenarios[0]/system/sim_threads: unknown key"},
      // A typo'd range must produce a diagnostic, not expand unboundedly.
      {R"({"schema": "tcdm-scenarios", "schema_version": 1, "suite": "x",
           "scenarios": [{"name": "n{n}",
                          "sweep": {"n": {"range": {"from": 0, "to": 1e16,
                                                    "step": 1}}},
                          "config": {"preset": "mp4spatz4"},
                          "kernel": {"kind": "dotp", "n": 64}}]})",
       "expands to more than"},
  };
  for (const auto& c : cases) {
    try {
      (void)parse_suite(parse_text(c.text), "doc.json");
      FAIL() << "expected ScenarioFileError for: " << c.text;
    } catch (const ScenarioFileError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("doc.json"), std::string::npos) << msg;
      EXPECT_NE(msg.find(c.expected), std::string::npos) << msg;
    }
  }
}

/// Each kind refuses every parameter its constructor call does not read,
/// naming it by path when the suite loads. local_stream is the one kind
/// that takes no seed.
TEST(ScenarioFile, EveryKernelKindRefusesAParameterItDoesNotRead) {
  const std::map<std::string, const char*> minimal = {
      {"dotp", R"({"n": 64})"},
      {"axpy", R"({"n": 64})"},
      {"fft", R"({"instances": 4, "n": 64})"},
      {"matmul", R"({"n": 16})"},
      {"gemv", R"({"m": 16, "n": 16})"},
      {"conv2d", R"({"h": 16, "w": 16})"},
      {"jacobi2d", R"({"h": 16, "w": 16})"},
      {"relu", R"({"n": 64})"},
      {"maxpool2x2", R"({"h": 16, "w": 16})"},
      {"transpose", R"({"n": 16})"},
      {"random_probe", R"({})"},
      {"local_stream", R"({"iters": 32})"},
      {"memcpy", R"({"n": 64})"},
      {"strided_copy", R"({"n": 64, "stride_words": 2})"},
      {"trace_replay", R"({})"},
  };
  const auto suite_with = [](const Json& kernel) {
    Json sc;
    sc.set("name", "a");
    sc.set("config", parse_text(R"({"preset": "mp4spatz4"})"));
    sc.set("kernel", kernel);
    Json doc = parse_text(R"({"schema": "tcdm-scenarios", "schema_version": 1, "suite": "x"})");
    doc.set("scenarios", Json::Array{sc});
    return doc;
  };
  for (const std::string& kind : KernelSpec::kinds()) {
    ASSERT_EQ(minimal.count(kind), 1u) << kind << ": no minimal parameters listed";
    Json kernel = parse_text(minimal.at(kind));
    kernel.set("kind", kind);
    EXPECT_NO_THROW((void)parse_suite(suite_with(kernel), "doc.json")) << kind;
    std::vector<std::string> extras = {"bogus"};
    if (kind == "local_stream") extras.emplace_back("seed");
    for (const std::string& extra : extras) {
      Json bad = kernel;
      bad.set(extra, 1);
      try {
        (void)parse_suite(suite_with(bad), "doc.json");
        ADD_FAILURE() << kind << " accepted " << extra;
      } catch (const ScenarioFileError& e) {
        EXPECT_NE(std::string(e.what()).find("doc.json: scenarios[0]/kernel/" + extra +
                                             ": unknown key (known: "),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(ScenarioFile, RegistersIntoARegistryAndRunsThroughTheSweepRunner) {
  ScenarioRegistry reg;
  register_loaded_suite(reg, parse_suite(parse_text(kMinimalSuite), "mini.json"));
  ASSERT_EQ(reg.suites().size(), 1u);
  const auto specs = reg.suite_scenarios("mini");
  ASSERT_EQ(specs.size(), 1u);
  const ScenarioResult r = run_scenario(*specs[0]);
  EXPECT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.metrics.verified);
  EXPECT_GT(r.metrics.cycles, 0u);
}

/// The shipped trace_patterns suite file must expand to exactly the builtin
/// suite's scenarios: same names, same configurations, same options. (The
/// byte-identical-emission CTest proves the metrics end of the claim; this
/// pins the structural one without re-simulating MP64.)
TEST(ScenarioFile, ShippedTracePatternsFileMirrorsTheBuiltinSuite) {
  const LoadedSuite file = load_suite_file(
      std::string(TCDM_SOURCE_DIR) + "/examples/scenarios/trace_patterns.json");
  register_builtin();
  const ScenarioRegistry& reg = ScenarioRegistry::instance();
  const SuiteSpec& builtin_suite = reg.suite("trace_patterns");
  EXPECT_EQ(file.suite.name, builtin_suite.name);
  EXPECT_EQ(file.suite.description, builtin_suite.description);

  const auto builtin_specs = reg.suite_scenarios("trace_patterns");
  ASSERT_EQ(file.scenarios.size(), builtin_specs.size());
  for (const FileScenario& sc : file.scenarios) {
    const ScenarioSpec* b = reg.find("trace_patterns/" + sc.rel);
    ASSERT_NE(b, nullptr) << sc.rel;
    EXPECT_EQ(sc.config.to_json().dump(), b->config().to_json().dump()) << sc.rel;
    EXPECT_EQ(runner_options_to_json(sc.opts).dump(),
              runner_options_to_json(b->opts).dump())
        << sc.rel;
    EXPECT_EQ(sc.expect_verified, b->expect_verified);
  }
}

/// Every builtin point can be written as a suite file: one template per
/// point, spelled as explore::canonical_point_json plus its name, loads back
/// through parse_suite (which validates each config and dry-runs each
/// kernel) as the same design points in the same order. Registration builds
/// no kernel, so this is where the builtin kernels' parameters are checked.
TEST(BuiltinSuites, EveryPointRoundTripsThroughASuiteFile) {
  for (const auto* group : {&builtin::table_suites(), &builtin::ablation_suites(),
                            &builtin::extension_suites(), &builtin::system_suites()}) {
    for (const LoadedSuite& suite : *group) {
      SCOPED_TRACE(suite.suite.name);
      Json::Array templates;
      for (const FileScenario& point : suite.scenarios) {
        Json t = explore::canonical_point_json(point);
        t.set("name", point.rel);
        templates.push_back(std::move(t));
      }
      Json doc;
      doc.set("schema", kScenarioSchemaName);
      doc.set("schema_version", kScenarioSchemaVersion);
      doc.set("suite", suite.suite.name);
      doc.set("description", suite.suite.description);
      doc.set("emit_by_default", suite.suite.emit_by_default);
      doc.set("scenarios", Json(std::move(templates)));

      const LoadedSuite back = parse_suite(Json::parse(doc.dump()), suite.suite.name);
      EXPECT_EQ(back.suite.description, suite.suite.description);
      EXPECT_EQ(back.suite.emit_by_default, suite.suite.emit_by_default);
      ASSERT_EQ(back.scenarios.size(), suite.scenarios.size());
      for (std::size_t i = 0; i < suite.scenarios.size(); ++i) {
        EXPECT_EQ(back.scenarios[i].rel, suite.scenarios[i].rel);
        EXPECT_EQ(explore::canonical_key(back.scenarios[i]),
                  explore::canonical_key(suite.scenarios[i]))
            << suite.scenarios[i].rel;
      }
    }
  }
}

// ------------------------------------------------------------- generator ----

TEST(ScenarioGen, SameSeedIsByteIdenticalDifferentSeedIsNot) {
  GenOptions opts;
  opts.seed = 7;
  opts.count = 12;
  const std::string a = generate_suite(opts).dump();
  const std::string b = generate_suite(opts).dump();
  EXPECT_EQ(a, b);
  opts.seed = 8;
  EXPECT_NE(a, generate_suite(opts).dump());
}

TEST(ScenarioGen, OutputLoadsAndHonoursTheInvariants) {
  GenOptions opts;
  opts.seed = 12345;
  opts.count = 40;
  const LoadedSuite suite = parse_suite(generate_suite(opts), "gen");
  EXPECT_EQ(suite.suite.name, "gen_seed12345");
  ASSERT_EQ(suite.scenarios.size(), 40u);
  for (const FileScenario& sc : suite.scenarios) {
    EXPECT_TRUE(is_pow2(sc.config.num_tiles)) << sc.rel;
    EXPECT_TRUE(is_pow2(sc.config.banks_per_tile)) << sc.rel;
    EXPECT_GE(sc.config.banks_per_tile, sc.config.vlsu_ports) << sc.rel;
    unsigned prod = 1;
    for (unsigned s : sc.config.level_sizes) prod *= s;
    EXPECT_EQ(prod, sc.config.num_tiles) << sc.rel;
    if (sc.config.burst_enabled) {
      EXPECT_GE(sc.config.grouping_factor, 2u) << sc.rel;
      EXPECT_LE(sc.config.effective_max_burst_len(), sc.config.banks_per_tile)
          << sc.rel;
    } else {
      EXPECT_FALSE(sc.config.strided_bursts) << sc.rel;
      EXPECT_FALSE(sc.config.store_bursts) << sc.rel;
    }
    EXPECT_NO_THROW(sc.config.validate()) << sc.rel;
  }
}

/// A small generated sample actually simulates cleanly end to end — the
/// nightly CI sweep in miniature.
TEST(ScenarioGen, GeneratedScenariosRunCleanly) {
  GenOptions opts;
  opts.seed = 99;
  opts.count = 4;
  ScenarioRegistry reg;
  register_loaded_suite(reg, parse_suite(generate_suite(opts), "gen"));
  for (const ScenarioSpec* spec : reg.suite_scenarios("gen_seed99")) {
    const ScenarioResult r = run_scenario(*spec);
    EXPECT_TRUE(r.ok()) << spec->name << ": " << r.error;
  }
}

}  // namespace
}  // namespace tcdm::scenario
