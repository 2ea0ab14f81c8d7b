// Simulator-vs-analytical-model properties (the paper's §II-B claims):
// local traffic reaches VLSU peak, serialized remote streams, GF response
// scaling, and the simulated random probe landing within a contention band
// of the closed-form hierarchical average.
#include <gtest/gtest.h>


#include "src/analytics/bandwidth_model.hpp"
#include "src/kernels/probes.hpp"
#include "tests/support/test_support.hpp"

namespace tcdm {
namespace {

KernelMetrics probe(const ClusterConfig& cfg, RandomProbeKernel::Pattern pattern,
                    unsigned iters = 128) {
  RandomProbeKernel k(iters, pattern);
  return test::run_unverified(cfg, k);
}

TEST(Bandwidth, LocalTileTrafficNearsPeak) {
  // Eq. (2): BW_locTile == VLSU peak. Loop overhead costs a few percent.
  const ClusterConfig cfg = test::mp4_config();
  LocalStreamKernel k(512);
  const KernelMetrics m = test::run_unverified(cfg, k);
  EXPECT_GT(m.bw_per_core, 0.82 * cfg.vlsu_peak_bw());
  EXPECT_LE(m.bw_per_core, cfg.vlsu_peak_bw() + 1e-9);
}

TEST(Bandwidth, RemoteBaselineSerializesNearFourBytesPerCycle) {
  // Eq. (3): remote-hierarchy accesses serialize on the narrow channel.
  const KernelMetrics m =
      probe(test::mp4_config(), RandomProbeKernel::Pattern::kRemoteOnly, 256);
  EXPECT_LT(m.bw_per_core, 4.0 + 0.3);
  EXPECT_GT(m.bw_per_core, 4.0 * 0.55);  // contention/latency band
}

TEST(Bandwidth, RemoteScalesWithGroupingFactor) {
  const auto base = test::mp4_config();
  const KernelMetrics m1 = probe(base, RandomProbeKernel::Pattern::kRemoteOnly, 256);
  const KernelMetrics m2 =
      probe(base.with_burst(2), RandomProbeKernel::Pattern::kRemoteOnly, 256);
  const KernelMetrics m4 =
      probe(base.with_burst(4), RandomProbeKernel::Pattern::kRemoteOnly, 256);
  EXPECT_GT(m2.bw_per_core, 1.5 * m1.bw_per_core);
  // GF2 -> GF4 gains less on the all-remote pattern at this small scale:
  // with only 3 remote peers the responder-side injection ports, not the
  // response width, start to bind. The full Table-I-band check lives in
  // UniformProbeVsModel; here we only require strict monotonicity.
  EXPECT_GT(m4.bw_per_core, 1.1 * m2.bw_per_core);
}

struct ProbeCase {
  const char* name;
  unsigned gf;  // 0 = baseline
};

class UniformProbeVsModel
    : public ::testing::TestWithParam<std::tuple<const char*, unsigned>> {};

TEST_P(UniformProbeVsModel, WithinContentionBandOfTable1) {
  const auto [preset, gf] = GetParam();
  ClusterConfig cfg = ClusterConfig::by_name(preset);
  if (gf > 0) cfg = cfg.with_burst(gf);
  const unsigned eff_gf = gf == 0 ? 1 : gf;
  const double analytic =
      model::hier_avg_bw(cfg.num_cores(), cfg.vlsu_ports, eff_gf);
  const KernelMetrics m = probe(cfg, RandomProbeKernel::Pattern::kUniform);
  // The RTL paper also measures below the closed form (its Fig. 3 dashed
  // lines sit at 70-85% of Table I); accept a 50%..110% band.
  EXPECT_GT(m.bw_per_core, 0.50 * analytic) << cfg.name;
  EXPECT_LT(m.bw_per_core, 1.10 * analytic) << cfg.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllPresets, UniformProbeVsModel,
    ::testing::Values(std::make_tuple("mp4spatz4", 0u), std::make_tuple("mp4spatz4", 2u),
                      std::make_tuple("mp4spatz4", 4u), std::make_tuple("mp64spatz4", 0u),
                      std::make_tuple("mp64spatz4", 2u),
                      std::make_tuple("mp64spatz4", 4u),
                      std::make_tuple("mp128spatz8", 0u),
                      std::make_tuple("mp128spatz8", 2u)),
    [](const ::testing::TestParamInfo<std::tuple<const char*, unsigned>>& info) {
      const unsigned gf = std::get<1>(info.param);
      return std::string(std::get<0>(info.param)) +
             (gf == 0 ? "_base" : "_gf" + std::to_string(gf));
    });

TEST(Bandwidth, BurstImprovementOrderingMatchesPaper) {
  // Headline claim: burst improves the hierarchical average bandwidth on
  // every scale; GF4 > GF2 > baseline.
  for (const char* preset : {"mp4spatz4", "mp64spatz4"}) {
    const ClusterConfig base = ClusterConfig::by_name(preset);
    // 64 probe iterations suffice for the coarse ordering claim and halve
    // the MP64 rows' wall-clock.
    const double b0 = probe(base, RandomProbeKernel::Pattern::kUniform, 64).bw_per_core;
    const double b2 =
        probe(base.with_burst(2), RandomProbeKernel::Pattern::kUniform, 64).bw_per_core;
    const double b4 =
        probe(base.with_burst(4), RandomProbeKernel::Pattern::kUniform, 64).bw_per_core;
    EXPECT_GT(b2, 1.3 * b0) << preset;
    EXPECT_GT(b4, b2) << preset;
  }
}

TEST(Bandwidth, RequestConservation) {
  // Every word requested over the network is answered exactly once.
  ClusterConfig cfg = test::mp4_config(4);
  Cluster cluster(cfg);
  RandomProbeKernel k(64);
  RunnerOptions o;
  o.verify = false;
  (void)run_kernel_on(cluster, k, o);
  const auto& st = cluster.stats();
  // Loads travel as request words and return as response words; stores/acks
  // are out of band here (probe issues no vector stores).
  EXPECT_DOUBLE_EQ(st.value("network.req_words"), st.value("network.rsp_words"));
}

TEST(Bandwidth, BankAccessConservation) {
  // Bank reads equal the vector+scalar words the cores loaded.
  ClusterConfig cfg = test::mp4_config();
  Cluster cluster(cfg);
  RandomProbeKernel k(64);
  RunnerOptions o;
  o.verify = false;
  (void)run_kernel_on(cluster, k, o);
  const auto& st = cluster.stats();
  const double loaded =
      st.sum_suffix(".vlsu.words_loaded") + st.sum_suffix(".snitch.load_words");
  EXPECT_DOUBLE_EQ(st.sum_suffix(".reads"), loaded);
}

}  // namespace
}  // namespace tcdm
