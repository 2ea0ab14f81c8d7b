// Barrier kinds (central / tree / butterfly): release-delay models,
// generation protocol, the named over-arrival contract error, factory and
// name round trips — and the cross-kind cluster guarantee: every kind runs
// every kernel to the same verified result, with the central kind
// bit-identical to the pre-refactor single-barrier behavior (the default
// config carries kind "central", so all recorded baselines are unchanged).
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/cluster/barrier.hpp"
#include "src/cluster/cluster.hpp"
#include "src/cluster/kernel_runner.hpp"
#include "src/kernels/axpy.hpp"
#include "src/kernels/dotp.hpp"
#include "tests/support/test_support.hpp"

namespace tcdm {
namespace {

using test::mp4_config;

// ------------------------------------------------------- names & factory ----

TEST(BarrierKindNames, RoundTrip) {
  for (const BarrierKind kind :
       {BarrierKind::kCentral, BarrierKind::kTree, BarrierKind::kButterfly}) {
    EXPECT_EQ(barrier_kind_from_name(barrier_kind_name(kind)), kind);
  }
  EXPECT_STREQ(barrier_kind_name(BarrierKind::kCentral), "central");
  EXPECT_STREQ(barrier_kind_name(BarrierKind::kTree), "tree");
  EXPECT_STREQ(barrier_kind_name(BarrierKind::kButterfly), "butterfly");
  EXPECT_THROW((void)barrier_kind_from_name("ring"), std::invalid_argument);
}

TEST(BarrierFactory, BuildsTheRequestedKind) {
  const auto central = make_barrier(BarrierKind::kCentral, 8, 5);
  const auto tree = make_barrier(BarrierKind::kTree, 8, 5, 4);
  const auto butterfly = make_barrier(BarrierKind::kButterfly, 8, 5);
  EXPECT_EQ(central->kind(), BarrierKind::kCentral);
  EXPECT_EQ(tree->kind(), BarrierKind::kTree);
  EXPECT_EQ(butterfly->kind(), BarrierKind::kButterfly);
  EXPECT_EQ(dynamic_cast<TreeBarrier&>(*tree).radix(), 4u);
}

TEST(BarrierFactory, TreeRejectsRadixBelowTwo) {
  EXPECT_THROW((void)make_barrier(BarrierKind::kTree, 8, 5, 1),
               std::invalid_argument);
}

// -------------------------------------------------------- release delays ----

/// Drive `n` arrivals at `now` and report when the release lands.
Cycle release_cycle(Barrier& b, unsigned n, Cycle now) {
  for (unsigned h = 0; h < n; ++h) b.arrive(h, now);
  EXPECT_TRUE(b.release_pending());
  return b.release_at();
}

TEST(BarrierDelay, CentralIsTheConfiguredLatencyRegardlessOfSize) {
  for (unsigned n : {2u, 16u, 256u}) {
    CentralBarrier b(n, 7);
    EXPECT_EQ(release_cycle(b, n, 100), 107u) << n;
  }
}

TEST(BarrierDelay, TreeIsTwoTraversalsOfTheReductionTree) {
  // 16 members radix 2: 4 levels, up + down at link latency 3 -> 24.
  TreeBarrier r2(16, 3, 2);
  EXPECT_EQ(r2.levels(), 4u);
  EXPECT_EQ(release_cycle(r2, 16, 100), 124u);
  // Radix 4 halves the level count: ceil(log4(16)) = 2 -> 12.
  TreeBarrier r4(16, 3, 4);
  EXPECT_EQ(r4.levels(), 2u);
  EXPECT_EQ(release_cycle(r4, 16, 100), 112u);
  // Non-power sizes round up: 5 members radix 2 -> 3 levels.
  EXPECT_EQ(TreeBarrier(5, 1, 2).levels(), 3u);
}

TEST(BarrierDelay, ButterflyIsOneDisseminationPass) {
  // ceil(log2(16)) = 4 stages at link latency 3 -> 12: half the tree cost.
  ButterflyBarrier b(16, 3);
  EXPECT_EQ(b.stages(), 4u);
  EXPECT_EQ(release_cycle(b, 16, 100), 112u);
}

TEST(BarrierDelay, LargeLinkLatenciesDoNotWrapAt32Bits) {
  // 2 levels (4 members, radix 2) x 2 traversals x 2^31 = 2^33 cycles.
  TreeBarrier tree(4, 1u << 31, 2);
  EXPECT_EQ(release_cycle(tree, 4, 100), (Cycle{1} << 33) + 100);
  // 2 stages x 2^31 = 2^32 cycles.
  ButterflyBarrier butterfly(4, 1u << 31);
  EXPECT_EQ(release_cycle(butterfly, 4, 100), (Cycle{1} << 32) + 100);
}

// --------------------------------------------------- generation protocol ----

TEST(BarrierProtocol, GenerationAdvancesOnReleaseAndCountsClear) {
  CentralBarrier b(4, 2);
  EXPECT_EQ(b.generation(), 0u);
  for (unsigned h = 0; h < 4; ++h) b.arrive(h, 10);
  b.cycle(11);  // before release_at: nothing happens
  EXPECT_EQ(b.generation(), 0u);
  EXPECT_EQ(b.arrived(), 4u);
  b.cycle(12);  // at release_at: release, clear, next generation
  EXPECT_EQ(b.generation(), 1u);
  EXPECT_EQ(b.arrived(), 0u);
  EXPECT_FALSE(b.release_pending());
}

TEST(BarrierProtocol, OverArrivalNamesTheOffendingHart) {
  CentralBarrier b(2, 2);
  b.arrive(0, 5);
  b.arrive(1, 5);
  try {
    b.arrive(7, 6);  // all members present, release not yet broadcast
    FAIL() << "expected BarrierContractError";
  } catch (const BarrierContractError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("hart=7"), std::string::npos) << what;
    EXPECT_NE(what.find("central"), std::string::npos) << what;
    EXPECT_NE(what.find("generation 0"), std::string::npos) << what;
  }
}

TEST(BarrierProtocol, ResetRestoresTheConstructedState) {
  ButterflyBarrier b(4, 3);
  for (unsigned h = 0; h < 4; ++h) b.arrive(h, 10);
  b.cycle(b.release_at());
  ASSERT_EQ(b.generation(), 1u);
  b.arrive(0, 20);  // partial arrival in generation 1
  b.reset();
  EXPECT_EQ(b.generation(), 0u);
  EXPECT_EQ(b.arrived(), 0u);
  EXPECT_FALSE(b.release_pending());
  EXPECT_EQ(b.release_at(), 0u);
}

// --------------------------------------------------- cross-kind clusters ----

/// All barrier kinds run the same kernels to the same verified answer; the
/// kinds only move the end-of-phase release timing.
TEST(BarrierCluster, EveryKindVerifiesEveryKernel) {
  for (const BarrierKind kind :
       {BarrierKind::kCentral, BarrierKind::kTree, BarrierKind::kButterfly}) {
    ClusterConfig cfg = mp4_config(4);
    cfg.barrier_kind = kind;
    DotpKernel dotp(2048);
    EXPECT_KERNEL_OK(test::run_capped(cfg, dotp)) << barrier_kind_name(kind);
    AxpyKernel axpy(768, 1.25f, 11);
    EXPECT_KERNEL_OK(test::run_capped(cfg, axpy)) << barrier_kind_name(kind);
  }
}

/// The default config's central kind is the pre-refactor barrier: spelling
/// the default explicitly cannot change a single cycle.
TEST(BarrierCluster, ExplicitCentralIsBitIdenticalToDefault) {
  const ClusterConfig base = mp4_config(4);
  ClusterConfig central = base;
  central.barrier_kind = BarrierKind::kCentral;
  DotpKernel k1(2048);
  DotpKernel k2(2048);
  const KernelMetrics a = test::run_capped(base, k1);
  const KernelMetrics b = test::run_capped(central, k2);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.flops, b.flops);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.bw_bytes_per_cycle, b.bw_bytes_per_cycle);
}

/// The config round-trips the kind and radix — and omits them at their
/// defaults, keeping pre-existing serializations byte-identical.
TEST(BarrierCluster, ConfigRoundTripsKindOffDefaultOnly) {
  ClusterConfig cfg = mp4_config(0);
  const std::string plain = cfg.to_json().dump();
  EXPECT_EQ(plain.find("barrier_kind"), std::string::npos);
  EXPECT_EQ(plain.find("barrier_radix"), std::string::npos);

  cfg.barrier_kind = BarrierKind::kTree;
  cfg.barrier_radix = 4;
  const ClusterConfig back =
      ClusterConfig::from_json(Json::parse(cfg.to_json().dump()));
  EXPECT_EQ(back.barrier_kind, BarrierKind::kTree);
  EXPECT_EQ(back.barrier_radix, 4u);
}

}  // namespace
}  // namespace tcdm
