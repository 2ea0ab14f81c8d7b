// Regression-gate tests: tolerance comparator edge cases (missing metric,
// new metric, NaN, zero baselines, exact metrics), delta-table rendering,
// and the file loop behind `tcdm_run check` — including the
// injected-regression case that must exit non-zero naming the offending
// metric. The command line's argument errors are CTests (CMakeLists.txt).
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/analytics/metrics_regression.hpp"
#include "tests/support/test_support.hpp"

namespace tcdm {
namespace {

using metrics::CompareResult;
using metrics::DiffStatus;
using metrics::MetricsDoc;

MetricsDoc base_doc() {
  MetricsDoc doc;
  doc.suite = "table1";
  doc.add("a/model/peak", 16.0, metrics::kModelRelTol);
  doc.add("a/sim/bw_per_core", 10.0, 0.02);
  doc.add("a/sim/verified", 1.0, metrics::kExactTol);
  return doc;
}

const metrics::MetricDiff& diff_named(const CompareResult& r, const std::string& name) {
  for (const auto& d : r.diffs) {
    if (d.name == name) return d;
  }
  ADD_FAILURE() << "no diff named " << name;
  static metrics::MetricDiff none;
  return none;
}

TEST(RegressionGate, IdenticalDocumentsPass) {
  const CompareResult r = metrics::compare(base_doc(), base_doc());
  EXPECT_TRUE(r.passed());
  EXPECT_EQ(r.num_ok, 3u);
  EXPECT_EQ(r.num_out_of_tolerance + r.num_missing + r.num_new + r.num_not_finite, 0u);
}

TEST(RegressionGate, DriftWithinToleranceIsOk) {
  MetricsDoc cur = base_doc();
  cur.metrics["a/sim/bw_per_core"].value = 10.15;  // +1.5% of a 2% budget
  const CompareResult r = metrics::compare(base_doc(), cur);
  EXPECT_TRUE(r.passed());
  EXPECT_NEAR(diff_named(r, "a/sim/bw_per_core").rel_delta, 0.015, 1e-12);
}

TEST(RegressionGate, DriftBeyondToleranceFails) {
  MetricsDoc cur = base_doc();
  cur.metrics["a/sim/bw_per_core"].value = 9.0;  // -10%
  const CompareResult r = metrics::compare(base_doc(), cur);
  EXPECT_FALSE(r.passed());
  EXPECT_EQ(r.num_out_of_tolerance, 1u);
  EXPECT_EQ(diff_named(r, "a/sim/bw_per_core").status, DiffStatus::kOutOfTolerance);
}

TEST(RegressionGate, ToleranceComesFromTheBaselineNotTheCurrentDoc) {
  MetricsDoc cur = base_doc();
  cur.metrics["a/sim/bw_per_core"].value = 9.0;
  cur.metrics["a/sim/bw_per_core"].rel_tol = 0.5;  // current's own claim is ignored
  EXPECT_FALSE(metrics::compare(base_doc(), cur).passed());
}

TEST(RegressionGate, ExactMetricsAllowNoDrift) {
  MetricsDoc cur = base_doc();
  cur.metrics["a/sim/verified"].value = 0.0;  // kernel stopped verifying
  const CompareResult r = metrics::compare(base_doc(), cur);
  EXPECT_FALSE(r.passed());
  EXPECT_EQ(diff_named(r, "a/sim/verified").status, DiffStatus::kOutOfTolerance);
}

TEST(RegressionGate, MissingMetricFails) {
  MetricsDoc cur = base_doc();
  cur.metrics.erase("a/sim/bw_per_core");
  const CompareResult r = metrics::compare(base_doc(), cur);
  EXPECT_FALSE(r.passed());
  EXPECT_EQ(r.num_missing, 1u);
  EXPECT_EQ(diff_named(r, "a/sim/bw_per_core").status, DiffStatus::kMissing);
}

TEST(RegressionGate, NewMetricWarns) {
  MetricsDoc cur = base_doc();
  cur.add("a/sim/brand_new", 1.0, 0.02);
  const CompareResult r = metrics::compare(base_doc(), cur);
  EXPECT_TRUE(r.passed());
  EXPECT_EQ(r.num_new, 1u);
  EXPECT_EQ(diff_named(r, "a/sim/brand_new").status, DiffStatus::kNew);
}

TEST(RegressionGate, NanInUnrecordedMetricFailsDespiteLenientNewPolicy) {
  MetricsDoc cur = base_doc();
  cur.add("a/sim/brand_new", std::nan(""), 0.02);
  const CompareResult r = metrics::compare(base_doc(), cur);
  EXPECT_FALSE(r.passed());
  EXPECT_EQ(r.num_not_finite, 1u);
  EXPECT_EQ(r.num_new, 0u);
  EXPECT_EQ(diff_named(r, "a/sim/brand_new").status, DiffStatus::kNotFinite);
}

TEST(RegressionGate, NanCurrentValueFails) {
  MetricsDoc cur = base_doc();
  cur.metrics["a/sim/bw_per_core"].value = std::nan("");
  const CompareResult r = metrics::compare(base_doc(), cur);
  EXPECT_FALSE(r.passed());
  EXPECT_EQ(r.num_not_finite, 1u);
  EXPECT_EQ(diff_named(r, "a/sim/bw_per_core").status, DiffStatus::kNotFinite);
}

TEST(RegressionGate, ZeroBaselineMatchesOnlyZero) {
  MetricsDoc base;
  base.add("z", 0.0, 0.02);
  MetricsDoc same = base;
  EXPECT_TRUE(metrics::compare(base, same).passed());
  MetricsDoc off;
  off.add("z", 1e-6, 0.02);  // any nonzero is an infinite relative delta
  EXPECT_FALSE(metrics::compare(base, off).passed());
}

TEST(RegressionGate, NonFiniteToleranceFailsInsteadOfPassingVacuously) {
  // NaN/inf budgets must not disable the gate: "NaN <= tol" is false for
  // every comparison, which would report a 100% regression as ok.
  for (double bad_tol : {std::nan(""), static_cast<double>(INFINITY)}) {
    MetricsDoc base = base_doc();
    base.metrics["a/sim/bw_per_core"].rel_tol = bad_tol;
    MetricsDoc cur = base_doc();
    cur.metrics["a/sim/bw_per_core"].value = 5.0;  // -50%
    const CompareResult r = metrics::compare(base, cur);
    EXPECT_FALSE(r.passed());
    EXPECT_EQ(diff_named(r, "a/sim/bw_per_core").status, DiffStatus::kOutOfTolerance);
  }
}

TEST(RegressionGate, DeltaTableNamesOffendersAndCounts) {
  MetricsDoc cur = base_doc();
  cur.metrics["a/sim/bw_per_core"].value = 9.0;
  cur.metrics.erase("a/model/peak");
  const std::string table = metrics::render_delta_table(metrics::compare(base_doc(), cur));
  EXPECT_NE(table.find("a/sim/bw_per_core"), std::string::npos);
  EXPECT_NE(table.find("OUT OF TOLERANCE"), std::string::npos);
  EXPECT_NE(table.find("a/model/peak"), std::string::npos);
  EXPECT_NE(table.find("MISSING"), std::string::npos);
  EXPECT_NE(table.find("1 out of tolerance"), std::string::npos);
  EXPECT_NE(table.find("1 missing"), std::string::npos);
  // Passing rows stay out of the table.
  EXPECT_EQ(table.find("a/sim/verified"), std::string::npos);
}

// ----------------------------------------------------------- file loop ---

class CheckPairs : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) / "regression_gate";
    std::filesystem::create_directories(dir_);
    baseline_path_ = (dir_ / "baseline.json").string();
    current_path_ = (dir_ / "current.json").string();
  }

  int run(const std::vector<std::string>& paths) {
    out_.str("");
    return metrics::check_pairs(paths, out_);
  }

  std::filesystem::path dir_;
  std::string baseline_path_;
  std::string current_path_;
  std::ostringstream out_;
};

TEST_F(CheckPairs, CleanTreePassesWithExitZero) {
  base_doc().write_file(baseline_path_);
  base_doc().write_file(current_path_);
  EXPECT_EQ(run({baseline_path_, current_path_}), 0);
  EXPECT_EQ(out_.str(), "=== table1: " + baseline_path_ + " vs " + current_path_ +
                            " ===\n3 ok, 0 out of tolerance, 0 non-finite, 0 missing, "
                            "0 new\nPASS\n");
}

TEST_F(CheckPairs, InjectedRegressionExitsOneNamingTheMetric) {
  base_doc().write_file(baseline_path_);
  MetricsDoc cur = base_doc();
  cur.metrics["a/sim/bw_per_core"].value *= 0.90;  // perturb a bandwidth figure
  cur.write_file(current_path_);
  EXPECT_EQ(run({baseline_path_, current_path_}), 1);
  EXPECT_NE(out_.str().find("a/sim/bw_per_core"), std::string::npos);
  EXPECT_NE(out_.str().find("FAIL"), std::string::npos);
}

TEST_F(CheckPairs, SecondPairFailingFailsTheWholeRun) {
  base_doc().write_file(baseline_path_);
  base_doc().write_file(current_path_);
  const std::string bad = (dir_ / "bad.json").string();
  MetricsDoc cur = base_doc();
  cur.metrics.erase("a/model/peak");
  cur.write_file(bad);
  EXPECT_EQ(run({baseline_path_, current_path_, baseline_path_, bad}), 1);
}

TEST_F(CheckPairs, UnreadableFilesExitTwo) {
  base_doc().write_file(baseline_path_);
  EXPECT_EQ(run({baseline_path_, (dir_ / "absent.json").string()}), 2);
  std::ofstream(dir_ / "garbage.json") << "not json at all";
  EXPECT_EQ(run({baseline_path_, (dir_ / "garbage.json").string()}), 2);
}

}  // namespace
}  // namespace tcdm
