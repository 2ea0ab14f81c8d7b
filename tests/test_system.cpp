// System layer (src/system/): N clusters over the modeled L2/NoC. Covers
// the N == 1 degenerate identity with a bare Cluster run (every emitted
// byte), bit-identical determinism across all three stepping modes at
// N == 4, check mode verifying the system loop's own skips, the P2
// fresh-vs-reset identity, DMA payload accounting and checksums, the 64-bit
// burst header latency, clusters halting at different cycles, the earliest
// fault surfacing first (S3), monotone aggregate-bandwidth weak scaling
// 1 -> 8, and cross-kind correctness of the global barrier.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/analytics/metrics_export.hpp"
#include "src/cluster/kernel_runner.hpp"
#include "src/common/sim_time.hpp"
#include "src/kernels/axpy.hpp"
#include "src/kernels/dotp.hpp"
#include "src/system/system.hpp"
#include "src/system/system_runner.hpp"
#include "tests/support/test_support.hpp"

namespace tcdm {
namespace {

using test::mp4_config;

SystemConfig small_system(unsigned clusters) {
  SystemConfig sys;
  sys.name = "testsys";
  sys.num_clusters = clusters;
  sys.dma_words = 256;
  sys.dma_burst_len = 16;
  return sys;
}

std::vector<std::unique_ptr<Kernel>> axpy_per_cluster(unsigned n) {
  std::vector<std::unique_ptr<Kernel>> kernels;
  for (unsigned c = 0; c < n; ++c) {
    kernels.push_back(std::make_unique<AxpyKernel>(768, 1.25f, 11));
  }
  return kernels;
}

RunnerOptions capped_opts() {
  RunnerOptions opts;
  opts.max_cycles = 5'000'000;
  return opts;
}

/// Everything a system run can observably produce, for bit-exact diffs.
struct SystemImage {
  KernelMetrics metrics;
  std::vector<std::string> stats_json;  // per cluster, index order
};

SystemImage run_image(System& system) {
  SystemImage img;
  img.metrics =
      run_system_kernel(system, axpy_per_cluster(system.num_clusters()), capped_opts());
  for (unsigned c = 0; c < system.num_clusters(); ++c) {
    img.stats_json.push_back(system.cluster(c).stats().to_json());
  }
  return img;
}

void expect_identical(const SystemImage& a, const SystemImage& b) {
  EXPECT_EQ(a.metrics.cycles, b.metrics.cycles);
  EXPECT_EQ(a.metrics.flops, b.metrics.flops);
  EXPECT_EQ(a.metrics.bytes, b.metrics.bytes);
  EXPECT_EQ(a.metrics.noc_bytes, b.metrics.noc_bytes);
  EXPECT_EQ(a.metrics.bw_bytes_per_cycle, b.metrics.bw_bytes_per_cycle);
  EXPECT_EQ(a.metrics.verified, b.metrics.verified);
  EXPECT_EQ(a.metrics.timed_out, b.metrics.timed_out);
  ASSERT_EQ(a.stats_json.size(), b.stats_json.size());
  for (std::size_t c = 0; c < a.stats_json.size(); ++c) {
    EXPECT_EQ(a.stats_json[c], b.stats_json[c]) << "cluster " << c;
  }
}

// ------------------------------------------------------------ degeneracy ----

TEST(SystemDegenerate, SingleClusterMatchesBareClusterExactly) {
  // A one-cluster System must reproduce the bare cluster run exactly, with
  // or without a DMA config (no DMA phase runs at N == 1). A plain cluster
  // scenario runs as SystemConfig::single(cfg), so for that System every
  // emitted byte must match too: the full metrics document (fpu_util,
  // bw_per_core, GFLOPS, arithmetic intensity) and the power breakdown,
  // config name included.
  const ClusterConfig cfg = mp4_config(4);
  AxpyKernel bare_kernel(768, 1.25f, 11);
  Cluster bare(cfg, SimOptions{});
  const KernelMetrics bare_m = run_kernel_on(bare, bare_kernel, capped_opts());
  const std::string bare_stats = bare.stats().to_json();
  const std::string bare_metrics = write_fields(bare_m).dump();

  for (const SystemConfig& sys_cfg : {small_system(1), SystemConfig::single(cfg)}) {
    SCOPED_TRACE(sys_cfg.name);
    System system(sys_cfg, cfg, SimOptions{});
    const SystemImage sys = run_image(system);

    EXPECT_EQ(sys.metrics.cycles, bare_m.cycles);
    EXPECT_EQ(sys.metrics.flops, bare_m.flops);
    EXPECT_EQ(sys.metrics.bytes, bare_m.bytes);
    EXPECT_EQ(sys.metrics.clusters, 1u);
    EXPECT_EQ(sys.metrics.noc_bytes, 0.0);  // no DMA phase at N == 1
    EXPECT_TRUE(system.dma_checksums_ok());
    EXPECT_EQ(sys.stats_json.front(), bare_stats);
    EXPECT_EQ(write_fields(sys.metrics).dump(), bare_metrics);
  }

  // The power breakdown carries the System's name, so it matches the bare
  // cluster's only for the System a plain cluster scenario runs on.
  System single(SystemConfig::single(cfg), cfg, SimOptions{});
  const SystemImage img = run_image(single);
  const PowerBreakdown sys_power =
      estimate_system_power(single, img.metrics.cycles, cfg.freq_tt_mhz);
  EXPECT_EQ(write_fields(sys_power).dump(),
            write_fields(estimate_power(bare, bare_m.cycles, cfg.freq_tt_mhz)).dump());
}

// ---------------------------------------------------------- determinism ----

TEST(SystemDeterminism, BitIdenticalAcrossSteppingModes) {
  const ClusterConfig cfg = mp4_config(4);
  const SystemConfig sys_cfg = small_system(4);

  // Reference: cycle-by-cycle.
  System ref(sys_cfg, cfg, SimOptions{SteppingMode::kCycleByCycle});
  const SystemImage ref_img = run_image(ref);
  ASSERT_FALSE(ref_img.metrics.timed_out);
  ASSERT_TRUE(ref_img.metrics.verified);

  for (const SteppingMode mode :
       {SteppingMode::kEventDriven, SteppingMode::kCycleByCycle, SteppingMode::kCrossCheck}) {
    System sys(sys_cfg, cfg, SimOptions{mode});
    const SystemImage img = run_image(sys);
    // Every registry counter is modelled state (EV1-EV3), so the full
    // per-cluster stats match across modes too.
    EXPECT_EQ(img.metrics.cycles, ref_img.metrics.cycles) << "mode " << static_cast<int>(mode);
    EXPECT_EQ(img.stats_json, ref_img.stats_json) << "mode " << static_cast<int>(mode);
    EXPECT_EQ(img.metrics.flops, ref_img.metrics.flops);
    EXPECT_EQ(img.metrics.noc_bytes, ref_img.metrics.noc_bytes);
    EXPECT_EQ(img.metrics.verified, ref_img.metrics.verified);
  }
}

// ---------------------------------------------------------------- reset ----

TEST(SystemReset, FreshAndResetRunsAreBitIdentical) {
  const ClusterConfig cfg = mp4_config(4);
  const SystemConfig sys_cfg = small_system(4);

  System fresh(sys_cfg, cfg, SimOptions{});
  const SystemImage ref = run_image(fresh);
  ASSERT_FALSE(ref.metrics.timed_out);

  // Dirty with a different kernel shape, then reset and re-run.
  System reused(sys_cfg, cfg, SimOptions{});
  std::vector<std::unique_ptr<Kernel>> dirt;
  for (unsigned c = 0; c < 4; ++c) dirt.push_back(std::make_unique<DotpKernel>(512));
  (void)run_system_kernel(reused, dirt, capped_opts());
  reused.reset();
  EXPECT_EQ(reused.now(), 0u);
  EXPECT_FALSE(reused.done());
  EXPECT_EQ(reused.global_barrier().generation(), 0u);
  const SystemImage got = run_image(reused);
  expect_identical(ref, got);
}

// ------------------------------------------------------------------ DMA ----

TEST(SystemDma, MovesTheConfiguredPayloadAndChecksums) {
  const ClusterConfig cfg = mp4_config(4);
  SystemConfig sys_cfg = small_system(4);
  System system(sys_cfg, cfg, SimOptions{});
  const SystemImage img = run_image(system);
  ASSERT_TRUE(img.metrics.verified);
  // Every cluster gathers dma_words from its ring neighbor.
  EXPECT_EQ(img.metrics.noc_bytes, 4.0 * sys_cfg.dma_words * kWordBytes);
  EXPECT_TRUE(system.dma_checksums_ok());
  EXPECT_TRUE(system.done());
}

TEST(SystemDma, ZeroWordsSkipsTheExchange) {
  const ClusterConfig cfg = mp4_config(4);
  SystemConfig sys_cfg = small_system(2);
  sys_cfg.dma_words = 0;
  System system(sys_cfg, cfg, SimOptions{});
  const SystemImage img = run_image(system);
  ASSERT_TRUE(img.metrics.verified);
  EXPECT_EQ(img.metrics.noc_bytes, 0.0);
  EXPECT_TRUE(system.done());
}

TEST(SystemDma, BurstHeaderLatencyDoesNotWrapAt32Bits) {
  SystemConfig sys_cfg = small_system(2);  // one NoC hop
  sys_cfg.noc_hop_latency = 1u << 31;
  EXPECT_EQ(sys_cfg.noc_hops(), 1u);
  EXPECT_EQ(sys_cfg.burst_header_latency(), (Cycle{1} << 32) + sys_cfg.l2_latency);
}

TEST(SystemDma, RejectsPayloadBeyondTcdmCapacity) {
  const ClusterConfig cfg = mp4_config(0);
  SystemConfig sys_cfg = small_system(2);
  sys_cfg.dma_words = cfg.num_banks() * cfg.bank_words + 1;
  EXPECT_THROW((System{sys_cfg, cfg, SimOptions{}}), std::invalid_argument);
}

TEST(SystemDma, RejectsLatenciesThatReachTheWatchdogWindow) {
  // Nothing moves while a DMA header is pending, so the system watchdog
  // would end the run: such configs are invalid.
  SystemConfig header = small_system(2);
  header.dma_words = 64;
  header.l2_latency = static_cast<unsigned>(kDefaultWatchdogWindow) - 2 * header.noc_hop_latency;
  EXPECT_THROW(header.validate(), std::invalid_argument);
  --header.l2_latency;
  EXPECT_NO_THROW(header.validate());
  header.dma_words = 0;  // no DMA phase, no header wait
  header.l2_latency = 1u << 31;
  EXPECT_NO_THROW(header.validate());

  SystemConfig single = small_system(1);  // no DMA phase
  single.noc_hop_latency = 1u << 31;
  EXPECT_NO_THROW(single.validate());
}

// ----------------------------------------------------------- weak scaling ----

TEST(SystemScaling, AggregateBandwidthIsMonotoneOneToEight) {
  const ClusterConfig cfg = mp4_config(4);
  double prev_bw = 0.0;
  for (const unsigned n : {1u, 2u, 4u, 8u}) {
    SystemConfig sys_cfg = small_system(n);
    sys_cfg.dma_burst_len = 32;
    System system(sys_cfg, cfg, SimOptions{});
    std::vector<std::unique_ptr<Kernel>> kernels;
    for (unsigned c = 0; c < n; ++c) {
      kernels.push_back(std::make_unique<DotpKernel>(4096));
    }
    const KernelMetrics m = run_system_kernel(system, kernels, capped_opts());
    ASSERT_TRUE(m.verified) << n;
    ASSERT_FALSE(m.timed_out) << n;
    EXPECT_GT(m.bw_bytes_per_cycle, prev_bw) << n << " clusters";
    prev_bw = m.bw_bytes_per_cycle;
  }
}

// ------------------------------------------------------ staggered halts ----

TEST(SystemStaggered, ClustersHaltingApartMatchBareClustersAndLockstep) {
  // One dotp size per cluster, so the four kernels halt at four different
  // cycles and reach the global barrier one by one; every other System
  // test runs the same kernel on every cluster.
  const unsigned sizes[] = {256, 512, 1024, 2048};
  const ClusterConfig cfg = mp4_config(4);
  const SystemConfig sys_cfg = small_system(4);

  std::vector<std::vector<std::pair<std::string, double>>> bare_stats;
  for (const unsigned size : sizes) {
    Cluster bare(cfg, SimOptions{});
    DotpKernel kernel(size);
    ASSERT_TRUE(run_kernel_on(bare, kernel, capped_opts()).verified) << size;
    bare_stats.push_back(bare.stats().snapshot());
  }

  for (const SteppingMode mode :
       {SteppingMode::kEventDriven, SteppingMode::kCycleByCycle, SteppingMode::kCrossCheck}) {
    SCOPED_TRACE("mode " + std::to_string(static_cast<int>(mode)));
    System system(sys_cfg, cfg, SimOptions{mode});
    std::vector<std::unique_ptr<Kernel>> kernels;
    for (const unsigned size : sizes) kernels.push_back(std::make_unique<DotpKernel>(size));
    const KernelMetrics m = run_system_kernel(system, kernels, capped_opts());
    ASSERT_TRUE(m.verified);
    ASSERT_FALSE(m.timed_out);
    // Recorded from the loop that stepped every cluster every cycle.
    EXPECT_EQ(m.cycles, 940u);
    EXPECT_EQ(m.noc_bytes, 4096.0);
    for (unsigned c = 0; c < 4; ++c) {
      EXPECT_EQ(system.cluster(c).now(), system.now()) << "cluster " << c;
      EXPECT_EQ(system.cluster(c).stats().snapshot(), bare_stats[c]) << "cluster " << c;
    }
  }
}

TEST(SystemStaggered, HaltsOneCycleApartAreAllReplayed) {
  // Cluster c's harts spin through the same counted loop and then run c
  // nops, so the four clusters halt on four consecutive cycles. An event
  // skip after one arrival must not jump over the arrival due next cycle.
  const ClusterConfig cfg = mp4_config(4);
  const auto programs_for = [&](unsigned c) {
    std::vector<Program> programs;
    for (unsigned h = 0; h < cfg.num_cores(); ++h) {
      ProgramBuilder b("spin");
      b.li(t0, 40);
      const Label loop = b.make_label();
      b.bind(loop);
      b.addi(t0, t0, -1);
      b.bnez(t0, loop);
      for (unsigned k = 0; k < c; ++k) b.nop();
      b.halt();
      programs.push_back(b.build());
    }
    return programs;
  };
  std::vector<Cycle> bare_cycles;
  for (unsigned c = 0; c < 4; ++c) {
    Cluster bare(cfg, SimOptions{});
    bare.load_programs(programs_for(c));
    const RunOutcome out = bare.run(1'000'000);
    ASSERT_TRUE(out.all_halted) << c;
    bare_cycles.push_back(out.cycles);
  }
  for (unsigned c = 1; c < 4; ++c) ASSERT_EQ(bare_cycles[c], bare_cycles[c - 1] + 1) << c;

  const auto run_system = [&](SteppingMode mode) {
    System system(small_system(4), cfg, SimOptions{mode});
    for (unsigned c = 0; c < 4; ++c) system.cluster(c).load_programs(programs_for(c));
    return system.run(200'000);
  };
  const RunOutcome ref = run_system(SteppingMode::kCycleByCycle);
  ASSERT_TRUE(ref.all_halted);
  for (const SteppingMode mode : {SteppingMode::kEventDriven, SteppingMode::kCrossCheck}) {
    const RunOutcome got = run_system(mode);
    EXPECT_TRUE(got.all_halted) << "mode " << static_cast<int>(mode);
    EXPECT_EQ(got.cycles, ref.cycles) << "mode " << static_cast<int>(mode);
  }
}

TEST(SystemStaggered, RunSplitAtAnyBudgetMatchesOneRun) {
  // A run() that stops at its budget with some clusters parked and others
  // still running must resume exactly: the second run() picks up the halt
  // cycles already recorded and the clusters still mid-kernel.
  const unsigned sizes[] = {256, 512, 1024, 2048};
  const ClusterConfig cfg = mp4_config(4);
  const RunnerOptions opts = capped_opts();

  std::vector<Cycle> halts;  // bare-cluster cycle counts, one per size
  for (const unsigned size : sizes) {
    Cluster bare(cfg, SimOptions{});
    DotpKernel kernel(size);
    halts.push_back(run_kernel_on(bare, kernel, opts).cycles);
  }
  ASSERT_LT(halts[0] + 1, halts[1]);

  struct Image {
    Cycle cycles = 0;
    bool halted = false;
    double noc_bytes = 0.0;
    std::vector<std::vector<std::pair<std::string, double>>> stats;
  };
  const auto run_split = [&](SteppingMode mode, Cycle first_budget) {
    System system(small_system(4), cfg, SimOptions{mode});
    system.set_watchdog_window(opts.watchdog_window);
    std::vector<DotpKernel> kernels(std::begin(sizes), std::end(sizes));
    for (unsigned c = 0; c < 4; ++c) kernels[c].setup(system.cluster(c));
    Image img;
    if (first_budget != 0) {
      const RunOutcome first = system.run(first_budget);
      EXPECT_FALSE(first.all_halted) << first_budget;
      EXPECT_EQ(first.cycles, first_budget);
      for (unsigned c = 0; c < 4; ++c) EXPECT_EQ(system.cluster(c).now(), system.now()) << c;
      img.cycles = first.cycles;
    }
    const RunOutcome rest = system.run(opts.max_cycles);
    img.cycles += rest.cycles;
    img.halted = rest.all_halted;
    img.noc_bytes = system.noc_bytes_transferred();
    for (unsigned c = 0; c < 4; ++c) img.stats.push_back(system.cluster(c).stats().snapshot());
    return img;
  };

  // Budgets ending on the cycle before the first halt, right after it,
  // between the first two halts, and in the DMA phase after every halt.
  const Cycle budgets[] = {halts[0] - 1, halts[0], (halts[0] + halts[1]) / 2, halts[3] + 50};
  for (const SteppingMode mode :
       {SteppingMode::kEventDriven, SteppingMode::kCycleByCycle, SteppingMode::kCrossCheck}) {
    const Image whole = run_split(mode, 0);
    ASSERT_TRUE(whole.halted);
    for (const Cycle budget : budgets) {
      SCOPED_TRACE("mode " + std::to_string(static_cast<int>(mode)) + ", first budget " +
                   std::to_string(budget));
      const Image split = run_split(mode, budget);
      EXPECT_TRUE(split.halted);
      EXPECT_EQ(split.cycles, whole.cycles);
      EXPECT_EQ(split.noc_bytes, whole.noc_bytes);
      EXPECT_EQ(split.stats, whole.stats);
    }
  }
}

// ---------------------------------------------------------------- faults ----

TEST(SystemFaults, EarliestFaultCycleSurfacesBeforeLowerIndex) {
  // Clusters 1 and 3 both deadlock at a mismatched barrier, but cluster 1's
  // waiting harts first spin through a counted loop, so its watchdog fires
  // much later. The ascending kernel loop meets cluster 1's fault first,
  // yet the earliest fault is cluster 3's: that DeadlockError must surface
  // (S3), byte-equal to a bare Cluster's.
  const ClusterConfig cfg = mp4_config(4);
  constexpr Cycle kWindow = 2000;
  const auto programs_for = [&](unsigned c) {
    std::vector<Program> programs;
    for (unsigned h = 0; h < cfg.num_cores(); ++h) {
      ProgramBuilder b("hart");
      if ((c == 1 || c == 3) && h > 0) {
        if (c == 1) {
          b.li(t0, 3000);
          const Label loop = b.make_label();
          b.bind(loop);
          b.addi(t0, t0, -1);
          b.bnez(t0, loop);
        }
        b.barrier();
      }
      b.halt();
      programs.push_back(b.build());
    }
    return programs;
  };
  const auto bare_what = [&](unsigned c) {
    Cluster bare(cfg, SimOptions{});
    bare.set_watchdog_window(kWindow);
    bare.load_programs(programs_for(c));
    try {
      (void)bare.run(1'000'000);
    } catch (const DeadlockError& e) {
      return std::string(e.what());
    }
    return std::string("no deadlock");
  };
  const std::string expected = bare_what(3);
  ASSERT_NE(expected, "no deadlock");
  ASSERT_NE(expected, bare_what(1));  // the two faults are distinguishable

  System system(small_system(4), cfg, SimOptions{});
  system.set_watchdog_window(kWindow);
  for (unsigned c = 0; c < 4; ++c) system.cluster(c).load_programs(programs_for(c));
  try {
    (void)system.run(1'000'000);
    FAIL() << "deadlock run returned normally";
  } catch (const DeadlockError& e) {
    EXPECT_EQ(std::string(e.what()), expected);
  }
  // The system clock stops at cluster 3's fault cycle, and the clusters
  // parked before it (0 and 2 halt at once) catch up to it on the throw.
  for (const unsigned c : {0u, 2u, 3u}) {
    EXPECT_EQ(system.cluster(c).now(), system.now()) << "cluster " << c;
  }
  EXPECT_GT(system.cluster(1).now(), system.now());
}

// ------------------------------------------------------------ check mode ----

TEST(SystemCrossCheck, TooLateSystemWakeupIsCaughtOnlyInCheckMode) {
  // The system loop runs on the same advance() loop as a cluster, so
  // kCrossCheck steps its quiet spans (arrival replays, DMA header waits,
  // barrier releases) and must refuse a next event reported one cycle too
  // late: EV1, named with the System loop.
  const ClusterConfig cfg = mp4_config(4);
  System checked(small_system(2), cfg, SimOptions{SteppingMode::kCrossCheck});
  checked.debug_set_wakeup_bias(1);
  try {
    (void)run_system_kernel(checked, axpy_per_cluster(2), capped_opts());
    FAIL() << "biased System wakeup was not detected";
  } catch (const WakeupContractError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("EV1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("System loop"), std::string::npos) << msg;
  }

  // Event mode acts on the biased decision unverified, which is exactly why
  // check mode exists: the run may mis-simulate, but no contract error.
  System event(small_system(2), cfg, SimOptions{SteppingMode::kEventDriven});
  event.debug_set_wakeup_bias(1);
  try {
    (void)run_system_kernel(event, axpy_per_cluster(2), capped_opts());
  } catch (const WakeupContractError& e) {
    FAIL() << "event mode verified a System-loop skip: " << e.what();
  } catch (const std::exception&) {
    // Any other failure of the mis-timed run is beside the point here.
  }
}

// -------------------------------------------------------- barrier kinds ----

TEST(SystemBarrierKinds, AllKindsCompleteAndVerify) {
  const ClusterConfig cfg = mp4_config(4);
  Cycle central_cycles = 0;
  for (const BarrierKind kind :
       {BarrierKind::kCentral, BarrierKind::kTree, BarrierKind::kButterfly}) {
    SystemConfig sys_cfg = small_system(4);
    sys_cfg.barrier_kind = kind;
    System system(sys_cfg, cfg, SimOptions{});
    EXPECT_EQ(system.global_barrier().kind(), kind);
    const SystemImage img = run_image(system);
    ASSERT_TRUE(img.metrics.verified) << barrier_kind_name(kind);
    ASSERT_FALSE(img.metrics.timed_out) << barrier_kind_name(kind);
    if (kind == BarrierKind::kCentral) central_cycles = img.metrics.cycles;
  }
  EXPECT_GT(central_cycles, 0u);
}

}  // namespace
}  // namespace tcdm
