// Checks on the benchmark itself: the traced pass reproduces the untraced
// one exactly, injected host time lands in the right layer row, failures
// are counted, and BENCHMARK.json names exactly what tcdm_bench prints.
#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <thread>

#include "benchmark/src/bench.hpp"
#include "src/cluster/kernel_runner.hpp"
#include "src/kernels/dotp.hpp"

namespace tcdm::bench {
namespace {

ClusterConfig preset(const std::string& name) {
  ClusterConfig cfg = ClusterConfig::by_name(name);
  return cfg.with_burst(name == "mp128spatz8" ? 2 : 4);
}

/// Forwards to a DOTP kernel; optionally sleeps in setup or fails verify.
class WrappedDotp final : public Kernel {
 public:
  WrappedDotp(std::chrono::milliseconds setup_sleep, bool fail_verify)
      : inner_(4096), setup_sleep_(setup_sleep), fail_verify_(fail_verify) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] std::string size_desc() const override { return inner_.size_desc(); }
  void setup(Cluster& cluster) override {
    std::this_thread::sleep_for(setup_sleep_);
    inner_.setup(cluster);
  }
  [[nodiscard]] bool verify(const Cluster& cluster) const override {
    return !fail_verify_ && inner_.verify(cluster);
  }
  [[nodiscard]] double traffic_bytes(const Cluster& cluster) const override {
    return inner_.traffic_bytes(cluster);
  }

 private:
  DotpKernel inner_;
  std::chrono::milliseconds setup_sleep_;
  bool fail_verify_;
};

/// One DOTP-4096 scenario per preset plus a 2-cluster system scenario
/// (the first `limit` of them when nonzero), with the mp4spatz4 kernel
/// optionally wrapped.
Workload mini_workload(std::chrono::milliseconds setup_sleep = {}, bool fail_verify = false,
                       std::size_t limit = 0) {
  scenario::ScenarioRegistry reg;
  scenario::SuiteSpec suite;
  suite.name = "mini";
  reg.add_suite(suite);
  for (const std::string name : {"mp4spatz4", "mp64spatz4", "mp128spatz8"}) {
    scenario::ScenarioSpec s;
    s.name = "mini/" + name;
    s.config = [name] { return preset(name); };
    if (name == "mp4spatz4") {
      s.kernel = [=]() -> std::unique_ptr<Kernel> {
        return std::make_unique<WrappedDotp>(setup_sleep, fail_verify);
      };
    } else {
      s.kernel = [] { return std::make_unique<DotpKernel>(4096); };
    }
    reg.add(std::move(s));
  }
  scenario::ScenarioSpec sys;
  sys.name = "mini/system";
  sys.config = [] { return preset("mp4spatz4"); };
  sys.kernel = [] { return std::make_unique<DotpKernel>(4096); };
  sys.system = [] {
    SystemConfig c;
    c.num_clusters = 2;
    c.dma_words = 256;
    return c;
  };
  reg.add(std::move(sys));
  return make_workload("mini", reg, {"mini"}, limit);
}

TEST(TracedLoop, MatchesClusterRunOnEveryPresetAndMode) {
  struct Case {
    std::string preset;
    SteppingMode mode;
  };
  const std::vector<Case> cases = {{"mp4spatz4", SteppingMode::kEventDriven},
                                   {"mp4spatz4", SteppingMode::kCycleByCycle},
                                   {"mp4spatz4", SteppingMode::kCrossCheck},
                                   {"mp64spatz4", SteppingMode::kEventDriven},
                                   {"mp128spatz8", SteppingMode::kEventDriven}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.preset);
    SimOptions sim;
    sim.stepping = c.mode;
    Cluster reference(preset(c.preset), sim);
    Cluster traced(preset(c.preset), sim);
    DotpKernel k1(4096);
    DotpKernel k2(4096);
    k1.setup(reference);
    k2.setup(traced);
    const RunOutcome want = reference.run();
    LoopStats loop;
    const RunOutcome got = traced_cluster_run(traced, 50'000'000, loop);
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(got.all_halted, want.all_halted);
    EXPECT_EQ(traced.stats().to_json(), reference.stats().to_json());
    EXPECT_TRUE(k2.verify(traced));
    EXPECT_GT(loop.steps, 0u);
    if (c.mode == SteppingMode::kEventDriven) {
      EXPECT_EQ(static_cast<double>(loop.skipped), traced.cycles_skipped());
    }
  }
}

TEST(TracedPass, EmitsTheUntracedBytes) {
  const Workload w = mini_workload();
  const PassResult untraced = run_pass(w);
  ASSERT_EQ(untraced.failed, 0u) << untraced.error;
  const TraceReport traced = traced_pass([] { return mini_workload(); });
  ASSERT_EQ(traced.pass.failed, 0u) << traced.pass.error;
  EXPECT_EQ(traced.pass.docs, untraced.docs);
  EXPECT_EQ(traced.pass.fingerprint, untraced.fingerprint);
  EXPECT_EQ(traced.pass.digest, untraced.digest);
  EXPECT_EQ(traced.metrics.at("cluster.ctors"), 3.0);
  EXPECT_GT(traced.metrics.at("system.run_s"), 0.0);
  EXPECT_GT(traced.metrics.at("system.noc_bytes"), 0.0);
  EXPECT_GT(traced.metrics.at("bench.coverage_pct"), 0.0);
  EXPECT_LE(traced.metrics.at("bench.coverage_pct"), 100.0);
  for (const MetricInfo& m : per_layer_metrics()) {
    EXPECT_EQ(traced.metrics.count(m.name), 1u) << m.name;
  }
}

TEST(TracedPass, InjectedSetupDelayLandsInKernelsSetup) {
  // Only the wrapped scenario, so that host noise on the other rows stays
  // far below the 10 ms they may move by.
  constexpr double kSleep = 0.050;
  const TraceReport base = traced_pass([] { return mini_workload({}, false, 1); });
  const TraceReport slow = traced_pass([] {
    return mini_workload(std::chrono::milliseconds(50), false, 1);
  });
  for (const MetricInfo& m : per_layer_metrics()) {
    if (m.unit != "s") continue;
    const double delta = slow.metrics.at(m.name) - base.metrics.at(m.name);
    if (m.name == "kernels.setup_s") {
      EXPECT_NEAR(delta, kSleep, 0.010) << m.name;
    } else {
      EXPECT_LT(std::abs(delta), 0.010) << m.name;
    }
  }
}

TEST(Pass, FailedVerificationIsCounted) {
  const Workload w = mini_workload({}, /*fail_verify=*/true);
  const PassResult pass = run_pass(w);
  EXPECT_EQ(pass.attempted, 4u);
  EXPECT_EQ(pass.failed, 1u);
  EXPECT_NE(pass.error.find("golden verification failed"), std::string::npos) << pass.error;
  ASSERT_EQ(pass.docs.size(), 1u);
  EXPECT_TRUE(pass.docs.front().second.empty());
  const TraceReport traced = traced_pass([] { return mini_workload({}, true); });
  EXPECT_EQ(traced.pass.failed, 1u);
}

TEST(BenchmarkJson, NamesExactlyWhatTcdmBenchPrints) {
  std::ifstream in(std::string(TCDM_REPO_DIR) + "/BENCHMARK.json");
  ASSERT_TRUE(in) << "BENCHMARK.json not found";
  std::ostringstream buf;
  buf << in.rdbuf();
  const Json doc = Json::parse(buf.str());

  std::vector<std::string> workloads;
  for (const Json& w : doc.at("workloads").as_array()) {
    workloads.push_back(w.at("name").as_string());
  }
  EXPECT_EQ(workloads, workload_names());

  const auto names_units = [](const Json& list) {
    std::vector<std::pair<std::string, std::string>> out;
    for (const Json& m : list.as_array()) {
      out.emplace_back(m.at("name").as_string(), m.at("unit").as_string());
    }
    return out;
  };
  const auto catalog = [](const std::vector<MetricInfo>& list) {
    std::vector<std::pair<std::string, std::string>> out;
    for (const MetricInfo& m : list) out.emplace_back(m.name, m.unit);
    return out;
  };
  EXPECT_EQ(names_units(doc.at("end_to_end")), catalog(end_to_end_metrics()));
  EXPECT_EQ(names_units(doc.at("per_layer")), catalog(per_layer_metrics()));
}

}  // namespace
}  // namespace tcdm::bench
