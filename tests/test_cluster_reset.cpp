// Reset-reuse determinism (hot-path rule P2, docs/ARCHITECTURE.md): a run
// on a dirtied-then-reset() cluster must be bit-identical — metrics, every
// statistics counter, and the full TCDM image — to the same run on a
// freshly constructed cluster, across baseline/GF2/GF4 presets and all
// three stepping modes, whether the dirtying run finished or was cut off
// with words staged in the VLSUs and bursts outstanding, and for every
// point (System points too) of two generated suites. This is the
// contract that lets the scenario runners keep one pooled System per
// shape (ClusterCache, capacity counted in clusters) instead of paying
// construction per scenario.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/cluster.hpp"
#include "src/cluster/cluster_cache.hpp"
#include "src/cluster/kernel_runner.hpp"
#include "src/kernels/axpy.hpp"
#include "src/kernels/dotp.hpp"
#include "src/kernels/probes.hpp"
#include "src/scenario/scenario_file.hpp"
#include "src/scenario/scenario_gen.hpp"
#include "src/system/system.hpp"
#include "src/system/system_runner.hpp"
#include "tests/support/test_support.hpp"

namespace tcdm {
namespace {

using test::mp4_config;

/// Everything a run can observably leave behind.
struct RunImage {
  KernelMetrics metrics;
  std::string stats_json;     // every counter, sorted and complete
  std::vector<Word> tcdm;     // full memory image, ascending addresses
};

std::vector<Word> tcdm_image(const Cluster& cluster) {
  std::vector<Word> image;
  for (Addr addr = 0; cluster.map().valid(addr); addr += kWordBytes) {
    image.push_back(cluster.read_word(addr));
  }
  return image;
}

RunnerOptions default_opts() {
  RunnerOptions opts;
  opts.max_cycles = 5'000'000;
  return opts;
}

RunImage capture(Cluster& cluster, Kernel& kernel, const RunnerOptions& opts = default_opts()) {
  RunImage img;
  img.metrics = run_kernel_on(cluster, kernel, opts);
  img.stats_json = cluster.stats().to_json();
  img.tcdm = tcdm_image(cluster);
  return img;
}

/// A System run: its aggregate metrics, then every cluster's counters and
/// TCDM image in cluster order.
RunImage capture(System& system, const std::vector<std::unique_ptr<Kernel>>& kernels,
                 const RunnerOptions& opts) {
  RunImage img;
  img.metrics = run_system_kernel(system, kernels, opts);
  for (unsigned c = 0; c < system.num_clusters(); ++c) {
    img.stats_json += system.cluster(c).stats().to_json();
    const std::vector<Word> image = tcdm_image(system.cluster(c));
    img.tcdm.insert(img.tcdm.end(), image.begin(), image.end());
  }
  return img;
}

/// Field-exact comparison: the P2 contract is bit-identity, not tolerance.
void expect_identical(const RunImage& fresh, const RunImage& reused) {
  EXPECT_EQ(fresh.metrics.cycles, reused.metrics.cycles);
  EXPECT_EQ(fresh.metrics.flops, reused.metrics.flops);
  EXPECT_EQ(fresh.metrics.bytes, reused.metrics.bytes);
  EXPECT_EQ(fresh.metrics.flops_per_cycle, reused.metrics.flops_per_cycle);
  EXPECT_EQ(fresh.metrics.bw_bytes_per_cycle, reused.metrics.bw_bytes_per_cycle);
  EXPECT_EQ(fresh.metrics.verified, reused.metrics.verified);
  EXPECT_EQ(fresh.metrics.timed_out, reused.metrics.timed_out);
  EXPECT_EQ(fresh.stats_json, reused.stats_json);
  EXPECT_EQ(fresh.tcdm, reused.tcdm);
}

/// The sweep axis: {baseline, GF2, GF4} via TCDM_INSTANTIATE_BURST_SWEEP.
class ResetIdentity : public test::BurstSweepTest {};

void check_reset_identity(const ClusterConfig& cfg, const SimOptions& sim) {
  // Fresh reference run.
  AxpyKernel fresh_kernel(768, 1.25f, 11);
  Cluster fresh(cfg, sim);
  const RunImage ref = capture(fresh, fresh_kernel);
  ASSERT_FALSE(ref.metrics.timed_out);
  ASSERT_TRUE(ref.metrics.verified);

  // Dirty a second cluster with a different kernel (different program,
  // different data, different cycle count), then reset() and re-run.
  Cluster reused(cfg, sim);
  DotpKernel dirt(512);
  RunnerOptions opts;
  opts.max_cycles = 5'000'000;
  (void)run_kernel_on(reused, dirt, opts);
  reused.reset();
  AxpyKernel reused_kernel(768, 1.25f, 11);
  const RunImage got = capture(reused, reused_kernel);
  expect_identical(ref, got);
}

/// Any VLSU with staged words, and any with a live burst-table entry.
struct SenderState {
  bool staged = false;
  bool live_bursts = false;
};

SenderState sender_state(Cluster& cluster) {
  SenderState st;
  for (TileId t = 0; t < cluster.num_tiles(); ++t) {
    const BurstSender& s = cluster.tile(t).cc().spatz().vlsu().sender();
    st.staged = st.staged || !s.staging_empty();
    st.live_bursts = st.live_bursts || s.live_bursts() != 0;
  }
  return st;
}

void check_mid_run_reset_identity(const ClusterConfig& cfg, const SimOptions& sim) {
  AxpyKernel fresh_kernel(768, 1.25f, 11);
  Cluster fresh(cfg, sim);
  const RunImage ref = capture(fresh, fresh_kernel);
  ASSERT_FALSE(ref.metrics.timed_out);
  ASSERT_TRUE(ref.metrics.verified);

  // Interrupt a copy kernel (remote loads and stores keep the staging
  // rings busy) while staging holds words and, with bursts on, the burst
  // table holds entries: reset() must drop both.
  Cluster reused(cfg, sim);
  MemcpyKernel dirt(1024);
  dirt.setup(reused);
  bool caught = false;
  for (int i = 0; i < 1'000'000 && !caught; ++i) {
    if (reused.step()) break;
    const SenderState st = sender_state(reused);
    caught = st.staged && (st.live_bursts || !cfg.burst_enabled);
  }
  ASSERT_TRUE(caught) << "the dirtying run never had staged words in flight";
  reused.reset();
  AxpyKernel reused_kernel(768, 1.25f, 11);
  const RunImage got = capture(reused, reused_kernel);
  expect_identical(ref, got);
}

TEST_P(ResetIdentity, EventDriven) {
  check_reset_identity(config(), SimOptions{SteppingMode::kEventDriven});
}

TEST_P(ResetIdentity, CycleByCycle) {
  check_reset_identity(config(), SimOptions{SteppingMode::kCycleByCycle});
}

TEST_P(ResetIdentity, CrossCheck) {
  check_reset_identity(config(), SimOptions{SteppingMode::kCrossCheck});
}

TEST_P(ResetIdentity, MidRunEventDriven) {
  check_mid_run_reset_identity(config(), SimOptions{SteppingMode::kEventDriven});
}

TEST_P(ResetIdentity, MidRunCycleByCycle) {
  check_mid_run_reset_identity(config(), SimOptions{SteppingMode::kCycleByCycle});
}

TEST_P(ResetIdentity, MidRunCrossCheck) {
  check_mid_run_reset_identity(config(), SimOptions{SteppingMode::kCrossCheck});
}

TCDM_INSTANTIATE_BURST_SWEEP(ResetIdentity);

/// Seeds of the generated-suite leg: 3 and 42, or the one seed named by
/// TCDM_GEN_SEED (the nightly CI job passes a fresh one).
std::vector<std::uint64_t> generated_seeds() {
  if (const char* env = std::getenv("TCDM_GEN_SEED"); env != nullptr && *env != '\0') {
    return {std::stoull(env)};
  }
  return {3, 42};
}

std::vector<std::unique_ptr<Kernel>> system_kernels(const scenario::FileScenario& sc,
                                                    unsigned clusters) {
  std::vector<std::unique_ptr<Kernel>> kernels;
  for (unsigned c = 0; c < clusters; ++c) kernels.push_back(sc.kernel.instantiate(sc.config));
  return kernels;
}

/// Run `sc` on a fresh instance, then run it, reset() and run it again on a
/// second one: the rerun must match the fresh run bit for bit.
void check_generated_point(const scenario::FileScenario& sc) {
  if (sc.system) {
    System fresh(*sc.system, sc.config, sc.opts.sim);
    const RunImage ref =
        capture(fresh, system_kernels(sc, fresh.num_clusters()), sc.opts);
    ASSERT_FALSE(ref.metrics.timed_out);
    System reused(*sc.system, sc.config, sc.opts.sim);
    (void)capture(reused, system_kernels(sc, reused.num_clusters()), sc.opts);
    reused.reset();
    expect_identical(ref, capture(reused, system_kernels(sc, reused.num_clusters()), sc.opts));
  } else {
    Cluster fresh(sc.config, sc.opts.sim);
    const RunImage ref = capture(fresh, *sc.kernel.instantiate(sc.config), sc.opts);
    ASSERT_FALSE(ref.metrics.timed_out);
    Cluster reused(sc.config, sc.opts.sim);
    (void)capture(reused, *sc.kernel.instantiate(sc.config), sc.opts);
    reused.reset();
    expect_identical(ref, capture(reused, *sc.kernel.instantiate(sc.config), sc.opts));
  }
}

TEST(ResetIdentity, GeneratedPoints) {
  for (const std::uint64_t seed : generated_seeds()) {
    const scenario::LoadedSuite suite =
        scenario::parse_suite(scenario::generate_suite({seed, 24}), "gen");
    ASSERT_EQ(suite.scenarios.size(), 24u);
    for (const scenario::FileScenario& sc : suite.scenarios) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ": " + sc.rel);
      check_generated_point(sc);
    }
  }
}

// ------------------------------------------------------------- ClusterCache

TEST(ClusterCache, ReusesClusterForSameShape) {
  ClusterCache cache;
  const ClusterConfig cfg = mp4_config(2);
  const SimOptions sim;
  Cluster& a = cache.acquire(cfg, sim);
  Cluster& b = cache.acquire(cfg, sim);
  EXPECT_EQ(&a, &b);  // same pooled instance, reset between acquires
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(ClusterCache, ShapeKeyIncludesSteppingMode) {
  ClusterCache cache;
  const ClusterConfig cfg = mp4_config(2);
  Cluster& eventwise = cache.acquire(cfg, SimOptions{SteppingMode::kEventDriven});
  Cluster& cyclewise = cache.acquire(cfg, SimOptions{SteppingMode::kCycleByCycle});
  EXPECT_NE(&eventwise, &cyclewise);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(ClusterCache, EvictsLeastRecentlyUsedAtCapacity) {
  ClusterCache cache(2);
  const ClusterConfig a = mp4_config(0);
  const ClusterConfig b = mp4_config(2);
  const ClusterConfig c = mp4_config(4);
  const SimOptions sim;
  (void)cache.acquire(a, sim);
  (void)cache.acquire(b, sim);
  (void)cache.acquire(c, sim);  // evicts a (LRU)
  EXPECT_EQ(cache.misses(), 3u);
  (void)cache.acquire(b, sim);  // still resident
  EXPECT_EQ(cache.hits(), 1u);
  (void)cache.acquire(a, sim);  // evicted above: a fresh miss
  EXPECT_EQ(cache.misses(), 4u);
}

TEST(ClusterCache, RunKernelThroughCacheMatchesFreshRuns) {
  ClusterCache cache;
  const ClusterConfig cfg = mp4_config(4);
  RunnerOptions opts;
  AxpyKernel k1(768, 1.25f, 11);
  AxpyKernel k2(768, 1.25f, 11);
  AxpyKernel k3(768, 1.25f, 11);
  const KernelMetrics fresh = run_kernel(cfg, k1, opts);
  const KernelMetrics first = run_kernel_on(cache.acquire(cfg, opts.sim), k2, opts);  // cold
  const KernelMetrics second =
      run_kernel_on(cache.acquire(cfg, opts.sim), k3, opts);  // reused
  EXPECT_EQ(fresh.cycles, first.cycles);
  EXPECT_EQ(fresh.cycles, second.cycles);
  EXPECT_EQ(fresh.flops, second.flops);
  EXPECT_TRUE(second.verified);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

// ---------------------------------------------- ClusterCache: System points

SystemConfig halo_system(unsigned clusters) {
  SystemConfig sys;
  sys.name = "cachesys";
  sys.num_clusters = clusters;
  sys.dma_words = 256;
  return sys;
}

std::vector<std::unique_ptr<Kernel>> axpy_kernels(unsigned n) {
  std::vector<std::unique_ptr<Kernel>> kernels;
  for (unsigned c = 0; c < n; ++c) {
    kernels.push_back(std::make_unique<AxpyKernel>(768, 1.25f, 11));
  }
  return kernels;
}

TEST(ClusterCache, SystemPointIsReusedAndMatchesAFreshSystem) {
  const ClusterConfig cfg = mp4_config(4);
  const SystemConfig sys = halo_system(2);
  const SimOptions sim;
  System fresh(sys, cfg, sim);
  const RunImage ref = capture(fresh, axpy_kernels(2), default_opts());
  ASSERT_TRUE(ref.metrics.verified);

  ClusterCache cache;
  System& first = cache.acquire(sys, cfg, sim);
  std::vector<std::unique_ptr<Kernel>> dirt;
  for (unsigned c = 0; c < 2; ++c) dirt.push_back(std::make_unique<DotpKernel>(512));
  (void)run_system_kernel(first, dirt, default_opts());
  System& second = cache.acquire(sys, cfg, sim);
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  expect_identical(ref, capture(second, axpy_kernels(2), default_opts()));
}

TEST(ClusterCache, CapacityCountsClusters) {
  ClusterCache cache;  // 4 clusters
  const SimOptions sim;
  const ClusterConfig shapes[] = {mp4_config(0), mp4_config(2), mp4_config(4)};
  for (const ClusterConfig& cfg : shapes) (void)cache.acquire(cfg, sim);
  ASSERT_EQ(cache.misses(), 3u);
  // Three one-cluster entries plus four clusters cannot fit: all three go.
  (void)cache.acquire(halo_system(4), mp4_config(4), sim);
  for (const ClusterConfig& cfg : shapes) (void)cache.acquire(cfg, sim);
  EXPECT_EQ(cache.misses(), 7u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(ClusterCache, SystemBeyondCapacityIsKeptAloneUntilTheNextMiss) {
  ClusterCache cache;
  const ClusterConfig cfg = mp4_config(4);
  const SimOptions sim;
  (void)cache.acquire(cfg, sim);
  System& big = cache.acquire(halo_system(8), cfg, sim);  // evicts the 1-cluster entry
  EXPECT_EQ(&cache.acquire(halo_system(8), cfg, sim), &big);
  EXPECT_EQ(cache.hits(), 1u);
  (void)cache.acquire(cfg, sim);  // miss: evicts the 8-cluster System
  EXPECT_EQ(cache.misses(), 3u);
  (void)cache.acquire(halo_system(8), cfg, sim);
  EXPECT_EQ(cache.misses(), 4u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(ClusterCache, ClusterAcquireIsTheSingleClusterSystemEntry) {
  ClusterCache cache;
  const ClusterConfig cfg = mp4_config(2);
  const SimOptions sim;
  Cluster& cluster = cache.acquire(cfg, sim);
  System& system = cache.acquire(SystemConfig::single(cfg), cfg, sim);
  EXPECT_EQ(&cluster, &system.cluster(0));
  EXPECT_EQ(system.num_clusters(), 1u);
  EXPECT_EQ(system.config().name, cfg.name);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

}  // namespace
}  // namespace tcdm
