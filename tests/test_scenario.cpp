// Scenario-engine tests: glob selection, registry invariants over the
// builtin catalogue, runner error capture, and the core determinism
// contract — a parallel sweep emits byte-identical metrics JSON to a
// serial one.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/kernels/probes.hpp"
#include "src/scenario/builtin.hpp"
#include "src/scenario/emit.hpp"
#include "src/scenario/registry.hpp"
#include "src/scenario/runner.hpp"
#include "tests/support/test_support.hpp"

namespace tcdm::scenario {
namespace {

// ------------------------------------------------------------- globbing ---

TEST(GlobMatch, ExactNamesNeedNoWildcards) {
  EXPECT_TRUE(glob_match("table1/mp4spatz4/gf4", "table1/mp4spatz4/gf4"));
  EXPECT_FALSE(glob_match("table1/mp4spatz4/gf4", "table1/mp4spatz4/gf2"));
  EXPECT_FALSE(glob_match("table1", "table1/mp4spatz4/gf4"));
}

TEST(GlobMatch, StarCrossesPathSeparators) {
  EXPECT_TRUE(glob_match("table1/*", "table1/mp4spatz4/gf4"));
  EXPECT_TRUE(glob_match("*/mp64spatz4/*", "fig3_roofline/mp64spatz4/probe/baseline"));
  EXPECT_TRUE(glob_match("*", "anything/at/all"));
  EXPECT_FALSE(glob_match("table2/*", "table1/mp4spatz4/gf4"));
}

TEST(GlobMatch, QuestionMarkMatchesOneCharacter) {
  EXPECT_TRUE(glob_match("ablation_gf/probe/gf?", "ablation_gf/probe/gf8"));
  EXPECT_FALSE(glob_match("ablation_gf/probe/gf?", "ablation_gf/probe/gf"));
  EXPECT_FALSE(glob_match("?", ""));
}

TEST(GlobMatch, BacktracksThroughMultipleStars) {
  EXPECT_TRUE(glob_match("*burst*maxlen?", "ablation_burst/maxlen2"));
  EXPECT_TRUE(glob_match("a*b*c", "axxbyybzzc"));
  EXPECT_FALSE(glob_match("a*b*c", "axxbyyb"));
}

// ------------------------------------------------------------- registry ---

TEST(ScenarioRegistry, BuiltinRegistrationIsIdempotent) {
  register_builtin();
  const std::size_t suites = ScenarioRegistry::instance().suites().size();
  const std::size_t scenarios = ScenarioRegistry::instance().scenarios().size();
  register_builtin();
  EXPECT_EQ(ScenarioRegistry::instance().suites().size(), suites);
  EXPECT_EQ(ScenarioRegistry::instance().scenarios().size(), scenarios);
}

TEST(ScenarioRegistry, BuiltinCatalogueCoversEveryPaperArtifact) {
  register_builtin();
  const ScenarioRegistry& reg = ScenarioRegistry::instance();
  for (const char* suite :
       {"table1", "table2", "fig3_roofline", "fig5_breakdown", "ablation_burst",
        "ablation_gf", "ablation_rob", "ablation_store", "ablation_stride",
        "ext_kernels", "pareto_area_bw", "trace_patterns", "multi_cluster_scaling",
        "explorer", "scaling"}) {
    EXPECT_NE(reg.find_suite(suite), nullptr) << suite;
    EXPECT_FALSE(reg.suite_scenarios(suite).empty()) << suite;
  }
  // Every gated artifact emits by default; the interactive studies do not.
  EXPECT_EQ(default_emit_suites(reg).size(), 13u);
  EXPECT_FALSE(reg.suite("explorer").emit_by_default);
  EXPECT_FALSE(reg.suite("scaling").emit_by_default);
}

TEST(ScenarioRegistry, LookupAndGlobSelection) {
  register_builtin();
  const ScenarioRegistry& reg = ScenarioRegistry::instance();
  ASSERT_NE(reg.find("table1/mp4spatz4/gf4"), nullptr);
  EXPECT_EQ(reg.find("table1/nonexistent"), nullptr);
  EXPECT_EQ(reg.select_all({"table1/*"}).size(), 9u);
  EXPECT_EQ(reg.select_all({"table2/*"}).size(), 24u);
  EXPECT_EQ(reg.select_all({"fig3_roofline/*"}).size(), 30u);
  EXPECT_EQ(reg.select_all({"no/such/thing"}).size(), 0u);
  // Union selection dedups and keeps registration order.
  const auto both = reg.select_all({"table1/mp4spatz4/*", "table1/*"});
  EXPECT_EQ(both.size(), 9u);
  EXPECT_EQ(both.front()->name, "table1/mp4spatz4/baseline");
}

TEST(ScenarioRegistry, SelectionPreservesRegistrationOrder) {
  register_builtin();
  const auto sel = ScenarioRegistry::instance().select_all({"table1/*"});
  ASSERT_EQ(sel.size(), 9u);
  std::vector<std::string> names;
  for (const ScenarioSpec* s : sel) names.push_back(s->name);
  const std::vector<std::string> expected = {
      "table1/mp4spatz4/baseline",   "table1/mp4spatz4/gf2",
      "table1/mp4spatz4/gf4",        "table1/mp64spatz4/baseline",
      "table1/mp64spatz4/gf2",       "table1/mp64spatz4/gf4",
      "table1/mp128spatz8/baseline", "table1/mp128spatz8/gf2",
      "table1/mp128spatz8/gf4"};
  EXPECT_EQ(names, expected);
}

ScenarioSpec tiny_probe_spec(const std::string& name) {
  ScenarioSpec s;
  s.name = name;
  s.config = [] { return test::tiny_config(); };
  s.kernel = [] { return std::make_unique<RandomProbeKernel>(8); };
  s.opts.verify = false;
  s.opts.max_cycles = 200'000;
  return s;
}

TEST(ScenarioRegistry, RejectsMalformedAndDuplicateRegistrations) {
  ScenarioRegistry reg;  // fresh, not the singleton
  SuiteSpec suite;
  suite.name = "demo";
  reg.add_suite(suite);
  EXPECT_THROW(reg.add_suite(suite), std::invalid_argument);  // duplicate suite

  reg.add(tiny_probe_spec("demo/a"));
  EXPECT_THROW(reg.add(tiny_probe_spec("demo/a")), std::invalid_argument);
  EXPECT_THROW(reg.add(tiny_probe_spec("unregistered/a")), std::invalid_argument);
  EXPECT_THROW(reg.add(tiny_probe_spec("no_rel_part")), std::invalid_argument);
  ScenarioSpec no_factories;
  no_factories.name = "demo/b";
  EXPECT_THROW(reg.add(no_factories), std::invalid_argument);
}

// --------------------------------------------------------------- runner ---

TEST(SweepRunner, CapturesTimeoutAsError) {
  ScenarioSpec s = tiny_probe_spec("demo/timeout");
  s.opts.max_cycles = 10;  // cannot finish
  const ScenarioResult r = run_scenario(s);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("timed out"), std::string::npos);
}

TEST(SweepRunner, CapturesFactoryExceptionsAsErrors) {
  ScenarioSpec s = tiny_probe_spec("demo/broken");
  s.config = []() -> ClusterConfig { throw std::runtime_error("boom"); };
  const ScenarioResult r = run_scenario(s);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error, "boom");
}

TEST(SweepRunner, ResultSetLookupSemantics) {
  ScenarioResult ok;
  ok.name = "demo/a";
  ok.rel = "a";
  ok.metrics.cycles = 42;
  ResultSet set;
  set.add(ok);
  EXPECT_EQ(set.at("a").metrics.cycles, 42u);
  EXPECT_EQ(set.metrics("a").cycles, 42u);
  EXPECT_THROW((void)set.at("missing"), std::out_of_range);
  EXPECT_THROW((void)set.metrics("missing"), std::out_of_range);
  EXPECT_THROW((void)set.power("missing"), std::out_of_range);
  EXPECT_THROW(set.add(ok), std::invalid_argument);  // duplicate rel
  EXPECT_EQ(set.size(), 1u);
}

TEST(SweepRunner, EveryBuiltinPrinterNamesOnlyItsSuitesPoints) {
  // A printer looks its points up by name, and a missing name throws: give
  // each builtin printer a complete suite of default results (no
  // simulation), so a name its suite lacks fails here, not in `tcdm_run run`.
  register_builtin();
  const ScenarioRegistry& reg = ScenarioRegistry::instance();
  std::size_t printed = 0;
  for (const SuiteSpec& suite : reg.suites()) {
    if (!suite.print) continue;
    ResultSet set;
    for (const ScenarioSpec* spec : reg.suite_scenarios(suite.name)) {
      ScenarioResult r;
      r.name = spec->name;
      r.rel = spec->rel();
      set.add(std::move(r));
    }
    testing::internal::CaptureStdout();
    EXPECT_NO_THROW(suite.print(set)) << suite.name;
    (void)testing::internal::GetCapturedStdout();
    ++printed;
  }
  EXPECT_GE(printed, 15u);  // every builtin suite has a printer
}

TEST(SweepRunner, GroupBySuiteSplitsMixedSelections) {
  register_builtin();
  const ScenarioRegistry& reg = ScenarioRegistry::instance();
  const auto sel =
      reg.select_all({"ablation_burst/maxlen4", "ablation_gf/probe/gf0"});
  ASSERT_EQ(sel.size(), 2u);
  auto grouped = group_by_suite(run_scenarios(sel));
  ASSERT_EQ(grouped.size(), 2u);
  EXPECT_EQ(grouped[0].first, "ablation_burst");
  EXPECT_EQ(grouped[1].first, "ablation_gf");
  EXPECT_TRUE(grouped[0].second.at("maxlen4").ok());
  EXPECT_TRUE(grouped[1].second.at("probe/gf0").ok());
}

// -------------------------------------------------- emission determinism --

/// The acceptance contract of the whole engine: a parallel sweep's suite
/// document is byte-identical to a serial one. Uses the cheapest builtin
/// suite (ablation_burst: five MP4-sized runs) to keep test wall-clock low.
TEST(SweepRunner, ParallelEmissionIsByteIdenticalToSerial) {
  register_builtin();
  const ScenarioRegistry& reg = ScenarioRegistry::instance();
  const auto specs = reg.suite_scenarios("ablation_burst");
  ASSERT_EQ(specs.size(), 5u);

  SweepOptions serial;
  serial.jobs = 1;
  SweepOptions parallel;
  parallel.jobs = 4;

  auto to_doc = [&](std::vector<ScenarioResult> results) {
    ResultSet set;
    for (ScenarioResult& r : results) set.add(std::move(r));
    return build_doc(reg, "ablation_burst", set);
  };
  const std::string doc_serial = to_doc(run_scenarios(specs, serial)).to_json().dump();
  const std::string doc_parallel =
      to_doc(run_scenarios(specs, parallel)).to_json().dump();
  EXPECT_FALSE(doc_serial.empty());
  EXPECT_EQ(doc_serial, doc_parallel);
}

TEST(SweepRunner, BuildDocRefusesFailedResults) {
  register_builtin();
  const ScenarioRegistry& reg = ScenarioRegistry::instance();
  ResultSet set;
  for (const ScenarioSpec* s : reg.suite_scenarios("ablation_burst")) {
    ScenarioResult r;
    r.name = s->name;
    r.rel = s->rel();
    r.error = "injected failure";
    set.add(std::move(r));
  }
  EXPECT_THROW((void)build_doc(reg, "ablation_burst", set), std::runtime_error);
}

}  // namespace
}  // namespace tcdm::scenario
