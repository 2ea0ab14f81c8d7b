// Sharded System execution (docs/CONCURRENCY.md, S1-S3): shard-count
// clamping, bit-identity of sharded System runs against the serial run
// across shard_threads x stepping-mode combinations at N == 4 and N == 8,
// the P2 fresh-vs-reset identity under shards, serial-equal DeadlockError
// surfacing from faulting clusters (earliest fault cycle first), and the
// exclusion of shard_threads from the explore config hash.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/cluster/kernel_runner.hpp"
#include "src/common/sim_time.hpp"
#include "src/explore/config_hash.hpp"
#include "src/kernels/axpy.hpp"
#include "src/kernels/dotp.hpp"
#include "src/scenario/scenario_file.hpp"
#include "src/system/system.hpp"
#include "src/system/system_runner.hpp"
#include "tests/support/test_support.hpp"

namespace tcdm {
namespace {

using test::mp4_config;

SystemConfig small_system(unsigned clusters) {
  SystemConfig sys;
  sys.name = "shardsys";
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

// ------------------------------------------------------------ clamping ----

TEST(SystemShardResolution, ShardThreadsClampToTheClusterCount) {
  const ClusterConfig cfg = mp4_config(4);
  const SystemConfig sys_cfg = small_system(4);
  EXPECT_EQ(System(sys_cfg, cfg, SimOptions{}).shard_threads(), 1u);
  EXPECT_EQ(System(sys_cfg, cfg, SimOptions{SteppingMode::kEventDriven, 0}).shard_threads(),
            1u);
  EXPECT_EQ(System(sys_cfg, cfg, SimOptions{SteppingMode::kEventDriven, 2}).shard_threads(),
            2u);
  // Never more shards than clusters.
  EXPECT_EQ(System(sys_cfg, cfg, SimOptions{SteppingMode::kEventDriven, 16}).shard_threads(),
            4u);
}

// ---------------------------------------------------------- determinism ----

TEST(SystemShardDeterminism, BitIdenticalToSerialAcrossTheGrid) {
  const ClusterConfig cfg = mp4_config(4);
  for (const unsigned n : {4u, 8u}) {
    const SystemConfig sys_cfg = small_system(n);

    // Cross-mode anchor: serial, cycle-by-cycle.
    System anchor(sys_cfg, cfg, SimOptions{SteppingMode::kCycleByCycle});
    const SystemImage anchor_img = run_image(anchor);
    ASSERT_FALSE(anchor_img.metrics.timed_out);
    ASSERT_TRUE(anchor_img.metrics.verified);

    for (const SteppingMode mode :
         {SteppingMode::kEventDriven, SteppingMode::kCycleByCycle,
          SteppingMode::kCrossCheck}) {
      // Within one mode the FULL image (metrics + every per-cluster stats
      // document) must be bit-identical at any shard count; only the
      // `sim.*` bookkeeping differs across modes (EV1-EV3).
      System ref(sys_cfg, cfg, SimOptions{mode, 1});
      const SystemImage ref_img = run_image(ref);
      EXPECT_EQ(ref_img.metrics.cycles, anchor_img.metrics.cycles);
      EXPECT_EQ(ref_img.metrics.noc_bytes, anchor_img.metrics.noc_bytes);
      EXPECT_EQ(ref_img.metrics.verified, anchor_img.metrics.verified);

      for (const unsigned shards : {2u, 4u}) {
        System sys(sys_cfg, cfg, SimOptions{mode, shards});
        EXPECT_EQ(sys.shard_threads(), shards);
        const SystemImage img = run_image(sys);
        SCOPED_TRACE(std::to_string(n) + " clusters, " + std::to_string(shards) +
                     " shards, mode " + std::to_string(static_cast<int>(mode)));
        expect_identical(ref_img, img);
      }
    }
  }
}

// ---------------------------------------------------------------- reset ----

TEST(SystemShardReset, FreshAndResetRunsAreBitIdenticalUnderShards) {
  const ClusterConfig cfg = mp4_config(4);
  const SystemConfig sys_cfg = small_system(4);
  const SimOptions sim{SteppingMode::kEventDriven, 4};

  System fresh(sys_cfg, cfg, sim);
  const SystemImage ref = run_image(fresh);
  ASSERT_FALSE(ref.metrics.timed_out);

  // Dirty with a different kernel shape, then reset and re-run (P2).
  System reused(sys_cfg, cfg, sim);
  std::vector<std::unique_ptr<Kernel>> dirt;
  for (unsigned c = 0; c < 4; ++c) dirt.push_back(std::make_unique<DotpKernel>(512));
  (void)run_system_kernel(reused, dirt, capped_opts());
  reused.reset();
  const SystemImage got = run_image(reused);
  expect_identical(ref, got);
}

// ---------------------------------------------------------------- faults ----

TEST(SystemShardFaults, DeadlockSurfacesTheSameErrorAsTheSerialLoop) {
  // Clusters 1 and 3 deadlock at a mismatched barrier (hart 0 halts, the
  // rest wait forever); clusters 0 and 2 halt immediately. The serial
  // ascending-index loop surfaces cluster 1's DeadlockError; the sharded
  // run must surface the byte-identical message (S3).
  const ClusterConfig cfg = mp4_config(4);
  const auto program_system = [&](System& system) {
    system.set_watchdog_window(2000);
    for (unsigned c = 0; c < system.num_clusters(); ++c) {
      std::vector<Program> programs;
      for (unsigned h = 0; h < cfg.num_cores(); ++h) {
        if ((c % 2 == 1) && h > 0) {
          ProgramBuilder w("wait");
          w.barrier();
          w.halt();
          programs.push_back(w.build());
        } else {
          ProgramBuilder done("done");
          done.halt();
          programs.push_back(done.build());
        }
      }
      system.cluster(c).load_programs(std::move(programs));
    }
  };

  std::string serial_what;
  {
    System system(small_system(4), cfg, SimOptions{});
    program_system(system);
    try {
      (void)system.run(1'000'000);
      FAIL() << "serial deadlock run returned normally";
    } catch (const DeadlockError& e) {
      serial_what = e.what();
    }
  }
  ASSERT_FALSE(serial_what.empty());

  System system(small_system(4), cfg, SimOptions{SteppingMode::kEventDriven, 4});
  program_system(system);
  try {
    (void)system.run(1'000'000);
    FAIL() << "sharded deadlock run returned normally";
  } catch (const DeadlockError& e) {
    EXPECT_EQ(std::string(e.what()), serial_what);
  }
}

TEST(SystemShardFaults, EarliestFaultCycleSurfacesBeforeLowerIndex) {
  // Clusters 1 and 3 both deadlock at a mismatched barrier, but cluster 1's
  // waiting harts first spin through a counted loop, so its watchdog fires
  // much later. The earliest fault is cluster 3's: that DeadlockError must
  // surface, serial and sharded, byte-equal to a bare Cluster's.
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

  for (const unsigned shards : {1u, 4u}) {
    System system(small_system(4), cfg, SimOptions{SteppingMode::kEventDriven, shards});
    system.set_watchdog_window(kWindow);
    for (unsigned c = 0; c < 4; ++c) system.cluster(c).load_programs(programs_for(c));
    try {
      (void)system.run(1'000'000);
      FAIL() << shards << " shards: deadlock run returned normally";
    } catch (const DeadlockError& e) {
      EXPECT_EQ(std::string(e.what()), expected) << shards << " shards";
    }
    // The system clock stops at cluster 3's fault cycle, and the clusters
    // parked before it (0 and 2 halt at once) catch up to it on the throw.
    for (const unsigned c : {0u, 2u, 3u}) {
      EXPECT_EQ(system.cluster(c).now(), system.now()) << shards << " shards, cluster " << c;
    }
    EXPECT_GT(system.cluster(1).now(), system.now());
  }
}

// ------------------------------------------------------------- hashing ----

TEST(SystemShardConfig, ShardThreadsDoesNotAffectTheExploreKey) {
  scenario::FileScenario a;
  a.rel = "a";
  a.config = ClusterConfig::by_name("mp4spatz4");
  a.kernel = scenario::KernelSpec::from_json([] {
    Json k;
    k.set("kind", "axpy");
    k.set("n", 512);
    return k;
  }());
  a.system = small_system(4);

  scenario::FileScenario b = a;
  b.opts.sim.shard_threads = 8;  // a host knob: bit-identical results
  EXPECT_EQ(explore::canonical_key(a), explore::canonical_key(b));
  EXPECT_EQ(explore::canonical_point_json(a).dump(),
            explore::canonical_point_json(b).dump());
}

}  // namespace
}  // namespace tcdm
