// Shared test-support mini-library for the gtest suites.
//
// Collects the setup every suite used to re-declare privately:
//   * cluster-config fixtures — the deterministic single-tile and 2-tile
//     configs directed tests run on, and the MP4Spatz4 baseline/GF presets
//     the kernel suites sweep;
//   * kernel run helpers with the suite-wide cycle caps;
//   * golden-output comparison with ULP and relative tolerance, with
//     per-element diagnostics on failure;
//   * deterministic-seed RNG fixtures so randomized tests stay reproducible;
//   * metric-assertion macros for KernelMetrics (completion, speedup,
//     arithmetic intensity).
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/burst/burst_manager.hpp"
#include "src/cluster/cluster_config.hpp"
#include "src/cluster/kernel_runner.hpp"
#include "src/cluster/tile_services.hpp"
#include "src/common/rng.hpp"
#include "src/interconnect/network.hpp"
#include "src/interconnect/topology.hpp"
#include "src/memory/address_map.hpp"
#include "src/memory/spm_bank.hpp"

namespace tcdm::test {

// ------------------------------------------------- cluster-config fixtures --

/// Deterministic single-tile cluster (4 ports, VLEN 128, no start stagger):
/// the config the Snitch/Spatz semantics tests run on so timing is exact.
[[nodiscard]] ClusterConfig one_tile_config();

/// Tiny 2-tile cluster for fast directed end-to-end tests.
[[nodiscard]] ClusterConfig tiny_config();

/// MP4Spatz4 preset with the burst extension applied at grouping factor
/// `gf`; gf == 0 returns the plain baseline.
[[nodiscard]] ClusterConfig mp4_config(unsigned gf = 0);

/// Value-parameterized fixture for the baseline/GF2/GF4 sweep every kernel
/// suite runs on MP4Spatz4. Use with TCDM_INSTANTIATE_BURST_SWEEP.
class BurstSweepTest : public ::testing::TestWithParam<unsigned> {
 protected:
  [[nodiscard]] ClusterConfig config() const { return mp4_config(GetParam()); }
};

/// Param pretty-printer: 0 -> "baseline", gf -> "gf<gf>".
[[nodiscard]] std::string burst_param_name(
    const ::testing::TestParamInfo<unsigned>& info);

/// Registers `fixture` (a BurstSweepTest subclass) over {baseline, GF2, GF4}.
#define TCDM_INSTANTIATE_BURST_SWEEP(fixture)                                \
  INSTANTIATE_TEST_SUITE_P(BaselineGf2Gf4, fixture,                          \
                           ::testing::Values(0u, 2u, 4u),                    \
                           [](const ::testing::TestParamInfo<unsigned>& i) { \
                             return ::tcdm::test::burst_param_name(i);       \
                           })

// ------------------------------------------------ substrate fixtures -------

/// Flat 4-tile hierarchy ({1, 4}, unit latencies): the smallest topology on
/// which every remote class exists, used by the interconnect/burst unit
/// suites.
[[nodiscard]] Topology flat4_topology();

/// 4 tiles as 2 groups of 2 ({2, 2}, latencies {1,1}/{2,2}): pairs with
/// round-trip 3 inside a group and 5 across, so latency-class behaviour is
/// observable.
[[nodiscard]] Topology two_pair_topology();

/// 16 banks, 4 per tile (4 tiles), 64 rows — the standard map the memory
/// and burst unit suites address against.
[[nodiscard]] AddressMap small_address_map();

/// Banks pre-filled with recognizable data: bank b, row r holds 100*b + r,
/// so merged burst beats can be checked for word placement at a glance.
[[nodiscard]] std::vector<SpmBank> patterned_banks(unsigned num_banks = 4,
                                                   unsigned rows = 64);

/// Home tile 0 of flat4_topology() over small_address_map() for the Burst
/// Sender suites: its remote path is a real HierNetwork, its local banks a
/// record of the pushes (refused while `accept_local` is false). In
/// flat4_topology() tile 0 reaches each peer through its own class port:
/// tile 1 -> class 1, tile 2 -> class 2, tile 3 -> class 3.
class FakeTile final : public TileServices {
 public:
  explicit FakeTile(StatsRegistry& stats);

  bool try_local_push(unsigned bank, const BankReq& req) override;
  HierNetwork& net() override { return net_; }
  const AddressMap& map() const override { return map_; }
  TileId tile_id() const override { return 0; }

  /// The network cycle at `now` that Cluster::step runs after the core
  /// phase. Each request it moves into a slave queue is popped there and
  /// its address appended to `arrived[destination tile]`.
  void drain(Cycle now);

  std::vector<std::pair<unsigned, BankReq>> local_pushes;
  bool accept_local = true;
  std::vector<std::vector<Addr>> arrived;
  AddressMap map_;
  Topology topo_;
  HierNetwork net_;
};

/// The response side of a Burst Manager at tile 1 of flat4_topology(): a
/// real HierNetwork into which step() lets the manager emit its merged
/// beats, recording every beat the network delivers.
class BeatCollector {
 public:
  explicit BeatCollector(StatsRegistry& stats);

  /// `cycles` cycles, from `now` on, of the manager's emission followed by
  /// the network cycle. Returns the beats delivered in these cycles.
  std::vector<TcdmResp> step(BurstManager& bm, unsigned cycles = 2 * BurstManager::kMergeSlots);

  Topology topo_;
  HierNetwork net_;
  Cycle now = 0;
};

// ------------------------------------------------------ kernel run helpers --

/// Run a kernel with verification on, under the suite-wide cycle cap.
[[nodiscard]] KernelMetrics run_capped(const ClusterConfig& cfg, Kernel& k,
                                       Cycle max_cycles = 5'000'000);

/// Run a probe/stream kernel with verification off (pure traffic pattern).
[[nodiscard]] KernelMetrics run_unverified(const ClusterConfig& cfg, Kernel& k,
                                           Cycle max_cycles = 3'000'000);

// --------------------------------------------- golden-output comparison ----

/// Distance in units-in-the-last-place between two finite floats. Equal
/// values (including matching infinities) are 0 ULP; NaN or mismatched
/// non-finite values return UINT32_MAX. Opposite-sign values measure
/// through zero (so -0.0f vs +0.0f is 0 ULP).
[[nodiscard]] std::uint32_t ulp_distance(float a, float b);

/// EXPECT_PRED_FORMAT3-compatible single-value ULP comparison.
[[nodiscard]] ::testing::AssertionResult FloatUlpNear(
    const char* actual_expr, const char* expected_expr, const char* ulp_expr,
    float actual, float expected, std::uint32_t max_ulp);

/// Element-wise ULP comparison of two float sequences; reports the first
/// few offending indices with values and ULP distances.
[[nodiscard]] ::testing::AssertionResult all_ulp_near(
    std::span<const float> actual, std::span<const float> expected,
    std::uint32_t max_ulp);

/// Element-wise relative/absolute tolerance comparison (the tolerance the
/// golden models use for reduction-order differences), with per-element
/// diagnostics on failure.
[[nodiscard]] ::testing::AssertionResult all_close(
    std::span<const float> actual, std::span<const float> expected,
    float rel_tol = 1e-3f, float abs_tol = 1e-4f);

#define EXPECT_FLOAT_ULP_NEAR(actual, expected, max_ulp) \
  EXPECT_PRED_FORMAT3(::tcdm::test::FloatUlpNear, actual, expected, max_ulp)

// ----------------------------------------------- deterministic RNG fixture --

/// Fixture holding a deterministically seeded Xoshiro128. Tests that want
/// distinct but reproducible streams reseed with `reseed(local_seed)`.
class SeededRngTest : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kTestSeed = 0x7c3d9f2ab5e81640ULL;

  void reseed(std::uint64_t seed) { rng_.reseed(seed); }

  /// n uniform floats in [lo, hi) from the fixture stream.
  [[nodiscard]] std::vector<float> random_floats(std::size_t n, float lo = -1.0f,
                                                 float hi = 1.0f);

  Xoshiro128 rng_{kTestSeed};
};

/// Free-function variant for tests not using the fixture.
[[nodiscard]] std::vector<float> random_floats(std::uint64_t seed, std::size_t n,
                                               float lo = -1.0f, float hi = 1.0f);

// --------------------------------------------------- metric assertions -----

/// Passes when the run neither timed out nor failed golden verification.
[[nodiscard]] ::testing::AssertionResult KernelCompleted(const char* metrics_expr,
                                                         const KernelMetrics& m);

/// Passes when `improved` reaches at least `min_ratio` x the baseline's
/// FLOP/cycle; the failure message carries both runs' cycles and rates.
[[nodiscard]] ::testing::AssertionResult SpeedupAtLeast(
    const char* base_expr, const char* improved_expr, const char* ratio_expr,
    const KernelMetrics& base, const KernelMetrics& improved, double min_ratio);

#define EXPECT_KERNEL_OK(m) EXPECT_PRED_FORMAT1(::tcdm::test::KernelCompleted, m)
#define ASSERT_KERNEL_OK(m) ASSERT_PRED_FORMAT1(::tcdm::test::KernelCompleted, m)
#define EXPECT_SPEEDUP_GE(base, improved, min_ratio) \
  EXPECT_PRED_FORMAT3(::tcdm::test::SpeedupAtLeast, base, improved, min_ratio)
#define EXPECT_AI_NEAR(m, expected, tol) \
  EXPECT_NEAR((m).arithmetic_intensity, expected, tol)

}  // namespace tcdm::test
