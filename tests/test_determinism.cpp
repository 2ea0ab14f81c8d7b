// Determinism regression suite: the simulator is a pure function of
// (configuration, kernel, seed). Every run of the same workload must
// produce identical cycle counts AND identical derived metrics, on every
// configuration class we ship — this is the guard rail future
// parallelization or event-reordering refactors have to pass.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "src/cluster/cluster.hpp"
#include "src/kernels/dotp.hpp"
#include "src/kernels/gemv.hpp"
#include "src/kernels/probes.hpp"
#include "src/kernels/stencil.hpp"
#include "src/kernels/trace_replay.hpp"
#include "tests/support/test_support.hpp"

namespace tcdm {
namespace {

using test::mp4_config;
using test::run_capped;
using test::run_unverified;
using test::tiny_config;

/// Every numeric field of KernelMetrics must match bit for bit — a run is
/// either identical or it is not; there is no tolerance here. Plain == on
/// the doubles gives exactly that (a 1-ULP accumulation-order drift fails).
void expect_identical(const KernelMetrics& a, const KernelMetrics& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.flops, b.flops);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.fpu_util, b.fpu_util);
  EXPECT_EQ(a.flops_per_cycle, b.flops_per_cycle);
  EXPECT_EQ(a.gflops_ss, b.gflops_ss);
  EXPECT_EQ(a.gflops_tt, b.gflops_tt);
  EXPECT_EQ(a.bw_bytes_per_cycle, b.bw_bytes_per_cycle);
  EXPECT_EQ(a.bw_per_core, b.bw_per_core);
  EXPECT_EQ(a.arithmetic_intensity, b.arithmetic_intensity);
  EXPECT_EQ(a.verified, b.verified);
  EXPECT_EQ(a.timed_out, b.timed_out);
}

using DeterminismOnConfig = test::BurstSweepTest;

TEST_P(DeterminismOnConfig, SeededDotpRepeatsExactly) {
  DotpKernel k1(1024, /*seed=*/9), k2(1024, /*seed=*/9);
  const KernelMetrics a = run_capped(config(), k1);
  const KernelMetrics b = run_capped(config(), k2);
  ASSERT_KERNEL_OK(a);
  expect_identical(a, b);
}

TEST_P(DeterminismOnConfig, SeededJacobiRepeatsExactly) {
  Jacobi2dKernel k1(10, 34, /*seed=*/21), k2(10, 34, /*seed=*/21);
  const KernelMetrics a = run_capped(config(), k1);
  const KernelMetrics b = run_capped(config(), k2);
  ASSERT_KERNEL_OK(a);
  expect_identical(a, b);
}

TEST_P(DeterminismOnConfig, RandomProbeRepeatsExactly) {
  // The probe's access pattern is itself RNG-driven: same seed, same
  // traffic, same contention history, same cycle count.
  RandomProbeKernel k1(96, RandomProbeKernel::Pattern::kUniform, /*seed=*/5);
  RandomProbeKernel k2(96, RandomProbeKernel::Pattern::kUniform, /*seed=*/5);
  const KernelMetrics a = run_unverified(config(), k1);
  const KernelMetrics b = run_unverified(config(), k2);
  EXPECT_FALSE(a.timed_out);
  expect_identical(a, b);
}

TEST_P(DeterminismOnConfig, DifferentSeedsChangeTheProbeRun) {
  // Sanity check on the guard itself: the seed must actually matter,
  // otherwise the repeat tests above prove nothing.
  RandomProbeKernel k1(96, RandomProbeKernel::Pattern::kUniform, /*seed=*/5);
  RandomProbeKernel k2(96, RandomProbeKernel::Pattern::kUniform, /*seed=*/6);
  const KernelMetrics a = run_unverified(config(), k1);
  const KernelMetrics b = run_unverified(config(), k2);
  EXPECT_NE(a.cycles, b.cycles);
}

TCDM_INSTANTIATE_BURST_SWEEP(DeterminismOnConfig);

TEST(Determinism, ExtensionConfigsRepeatExactly) {
  for (const auto& cfg : {mp4_config(4).with_strided_bursts(),
                          mp4_config(4).with_store_bursts(4)}) {
    MemcpyKernel k1(1024, /*seed=*/6), k2(1024, /*seed=*/6);
    const KernelMetrics a = run_capped(cfg, k1);
    const KernelMetrics b = run_capped(cfg, k2);
    ASSERT_KERNEL_OK(a);
    expect_identical(a, b);
  }
}

TEST(Determinism, TinyClusterScalarProgramRepeatsExactly) {
  GemvKernel k1(8, 16, 4), k2(8, 16, 4);
  const KernelMetrics a = run_capped(tiny_config(), k1);
  const KernelMetrics b = run_capped(tiny_config(), k2);
  ASSERT_KERNEL_OK(a);
  expect_identical(a, b);
}

TEST(Determinism, SyntheticTraceGenerationIsSeedStable) {
  const ClusterConfig cfg = mp4_config();
  TraceConfig tc;
  tc.entries_per_hart = 48;
  tc.write_fraction = 0.25;
  tc.seed = 17;
  const std::vector<TraceEntry> t1 = synthetic_trace(cfg, tc);
  const std::vector<TraceEntry> t2 = synthetic_trace(cfg, tc);
  ASSERT_EQ(t1.size(), t2.size());
  for (std::size_t i = 0; i < t1.size(); ++i) {
    EXPECT_EQ(t1[i].hart, t2[i].hart) << i;
    EXPECT_EQ(t1[i].write, t2[i].write) << i;
    EXPECT_EQ(t1[i].addr, t2[i].addr) << i;
    EXPECT_EQ(t1[i].len, t2[i].len) << i;
  }
}

TEST(Determinism, TraceReplayRepeatsExactly) {
  const ClusterConfig cfg = mp4_config(4);
  TraceConfig tc;
  tc.entries_per_hart = 48;
  tc.seed = 17;
  const std::vector<TraceEntry> trace = synthetic_trace(cfg, tc);
  TraceReplayKernel k1(trace), k2(trace);
  const KernelMetrics a = run_unverified(cfg, k1);
  const KernelMetrics b = run_unverified(cfg, k2);
  EXPECT_FALSE(a.timed_out);
  expect_identical(a, b);
}

}  // namespace
}  // namespace tcdm
