// Barrier kinds (central / tree / butterfly): release-delay models,
// generation protocol, the named over-arrival contract error and name
// round trips. A cluster always synchronizes its harts with the
// central kind; the System's global barrier uses all three
// (tests/test_system.cpp runs every kind end to end).
#include <gtest/gtest.h>

#include <string>

#include "src/cluster/barrier.hpp"

namespace tcdm {
namespace {

// ---------------------------------------------------------------- names ----

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

TEST(BarrierDelay, TreeRejectsRadixBelowTwo) {
  EXPECT_THROW((void)barrier_release_delay(BarrierKind::kTree, 8, 5, 1),
               std::invalid_argument);
}

// -------------------------------------------------------- release delays ----

/// A barrier of `kind` over `n` members at `latency`, with the release delay
/// its kind models.
Barrier make(BarrierKind kind, unsigned n, unsigned latency, unsigned radix = 2) {
  return Barrier(kind, n, barrier_release_delay(kind, n, latency, radix));
}

/// Drive `n` arrivals at `now` and report when the release lands.
Cycle release_cycle(Barrier&& b, unsigned n, Cycle now) {
  for (unsigned h = 0; h < n; ++h) b.arrive(h, now);
  EXPECT_TRUE(b.release_pending());
  return b.release_at();
}

TEST(BarrierDelay, CentralIsTheConfiguredLatencyRegardlessOfSize) {
  for (unsigned n : {2u, 16u, 256u}) {
    EXPECT_EQ(barrier_release_delay(BarrierKind::kCentral, n, 7), 7u) << n;
    EXPECT_EQ(release_cycle(make(BarrierKind::kCentral, n, 7), n, 100), 107u) << n;
  }
}

TEST(BarrierDelay, TreeIsTwoTraversalsOfTheReductionTree) {
  // 16 members radix 2: 4 levels, up + down at link latency 3 -> 24.
  EXPECT_EQ(barrier_release_delay(BarrierKind::kTree, 16, 3, 2), 24u);
  EXPECT_EQ(release_cycle(make(BarrierKind::kTree, 16, 3, 2), 16, 100), 124u);
  // Radix 4 halves the level count: ceil(log4(16)) = 2 -> 12.
  EXPECT_EQ(release_cycle(make(BarrierKind::kTree, 16, 3, 4), 16, 100), 112u);
  // Non-power sizes round up: 5 members radix 2 -> 3 levels -> 6 links.
  EXPECT_EQ(barrier_release_delay(BarrierKind::kTree, 5, 1, 2), 6u);
  // The radix only applies to the tree.
  EXPECT_EQ(barrier_release_delay(BarrierKind::kButterfly, 16, 3, 4), 12u);
}

TEST(BarrierDelay, ButterflyIsOneDisseminationPass) {
  // ceil(log2(16)) = 4 stages at link latency 3 -> 12: half the tree cost.
  EXPECT_EQ(barrier_release_delay(BarrierKind::kButterfly, 16, 3), 12u);
  EXPECT_EQ(release_cycle(make(BarrierKind::kButterfly, 16, 3), 16, 100), 112u);
  // Non-power sizes round up: 5 members -> 3 stages.
  EXPECT_EQ(barrier_release_delay(BarrierKind::kButterfly, 5, 1), 3u);
}

TEST(BarrierDelay, LargeLinkLatenciesDoNotWrapAt32Bits) {
  // 2 levels (4 members, radix 2) x 2 traversals x 2^31 = 2^33 cycles.
  EXPECT_EQ(release_cycle(make(BarrierKind::kTree, 4, 1u << 31, 2), 4, 100),
            (Cycle{1} << 33) + 100);
  // 2 stages x 2^31 = 2^32 cycles.
  EXPECT_EQ(release_cycle(make(BarrierKind::kButterfly, 4, 1u << 31), 4, 100),
            (Cycle{1} << 32) + 100);
}

// --------------------------------------------------- generation protocol ----

TEST(BarrierProtocol, GenerationAdvancesOnReleaseAndCountsClear) {
  Barrier b(BarrierKind::kCentral, 4, 2);
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
  Barrier b(BarrierKind::kCentral, 2, 2);
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
  Barrier b(BarrierKind::kButterfly, 4, barrier_release_delay(BarrierKind::kButterfly, 4, 3));
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

}  // namespace
}  // namespace tcdm
