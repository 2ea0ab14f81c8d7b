// Trace-replay tests: synthetic generator invariants, setup validation,
// replay accounting (every trace word moves exactly once) and the
// contention ordering the patterns are designed to expose (local > neighbor
// > uniform > hotspot bandwidth).
#include <gtest/gtest.h>

#include "src/kernels/trace_replay.hpp"
#include "tests/support/test_support.hpp"

namespace tcdm {
namespace {

TEST(TraceGenerator, ProducesInBoundsEntriesForEveryPattern) {
  const ClusterConfig cfg = test::mp4_config();
  const AddressMap map = cfg.address_map();
  for (const TracePattern p : {TracePattern::kUniform, TracePattern::kHotspot,
                               TracePattern::kLocal, TracePattern::kNeighbor}) {
    TraceConfig tc;
    tc.pattern = p;
    tc.entries_per_hart = 32;
    tc.write_fraction = 0.25;
    const std::vector<TraceEntry> trace = synthetic_trace(cfg, tc);
    EXPECT_EQ(trace.size(), 32u * cfg.num_cores());
    for (const TraceEntry& e : trace) {
      EXPECT_LT(e.hart, cfg.num_cores());
      EXPECT_EQ(e.addr % kWordBytes, 0u);
      EXPECT_LE(e.addr + e.len * kWordBytes, map.total_bytes());
    }
  }
}

TEST(TraceGenerator, LocalPatternStaysInTheHartsTile) {
  const ClusterConfig cfg = test::mp4_config();
  const AddressMap map = cfg.address_map();
  TraceConfig tc;
  tc.pattern = TracePattern::kLocal;
  tc.access_len = 1;  // single-word accesses cannot cross tiles
  for (const TraceEntry& e : synthetic_trace(cfg, tc)) {
    EXPECT_EQ(map.tile_of(e.addr), e.hart % map.num_tiles());
  }
}

TEST(TraceGenerator, HotspotConcentratesOnTheHotTile) {
  const ClusterConfig cfg = test::mp4_config();
  const AddressMap map = cfg.address_map();
  TraceConfig tc;
  tc.pattern = TracePattern::kHotspot;
  tc.hotspot_tile = 2;
  tc.hotspot_fraction = 0.9;
  tc.access_len = 1;
  tc.entries_per_hart = 256;
  unsigned hot = 0, total = 0;
  for (const TraceEntry& e : synthetic_trace(cfg, tc)) {
    hot += map.tile_of(e.addr) == 2 ? 1 : 0;
    ++total;
  }
  // 90% directed + ~25% of the uniform remainder also lands there.
  EXPECT_GT(static_cast<double>(hot) / total, 0.85);
}

TEST(TraceGenerator, RejectsBadParameters) {
  const ClusterConfig cfg = test::mp4_config();
  TraceConfig too_long;
  too_long.access_len = cfg.vlen_bits / 32 * 8 + 1;
  EXPECT_THROW((void)synthetic_trace(cfg, too_long), std::invalid_argument);
  TraceConfig bad_tile;
  bad_tile.hotspot_tile = cfg.num_tiles;
  bad_tile.pattern = TracePattern::kHotspot;
  EXPECT_THROW((void)synthetic_trace(cfg, bad_tile), std::invalid_argument);
}

TEST(TraceReplay, SetupRejectsMalformedTraces) {
  Cluster cluster(test::mp4_config());
  {
    TraceReplayKernel k({{99, false, 0, 4}});  // bad hart
    EXPECT_THROW(k.setup(cluster), std::invalid_argument);
  }
  {
    TraceReplayKernel k({{0, false, 2, 4}});  // misaligned
    EXPECT_THROW(k.setup(cluster), std::invalid_argument);
  }
  {
    TraceReplayKernel k(
        {{0, false, static_cast<Addr>(cluster.map().total_bytes() - 4), 4}});  // OOB
    EXPECT_THROW(k.setup(cluster), std::invalid_argument);
  }
}

TEST(TraceReplay, EveryTraceWordMovesExactlyOnce) {
  const ClusterConfig cfg = test::mp4_config(4);
  TraceConfig tc;
  tc.entries_per_hart = 24;
  tc.write_fraction = 0.25;
  const std::vector<TraceEntry> trace = synthetic_trace(cfg, tc);
  double expect_loaded = 0, expect_stored = 0;
  for (const TraceEntry& e : trace) {
    (e.write ? expect_stored : expect_loaded) += e.len;
  }
  Cluster cluster(cfg);
  TraceReplayKernel k(trace);
  RunnerOptions opts;
  opts.verify = false;
  const KernelMetrics m = run_kernel_on(cluster, k, opts);
  EXPECT_FALSE(m.timed_out);
  EXPECT_DOUBLE_EQ(cluster.stats().sum_suffix(".vlsu.words_loaded"), expect_loaded);
  EXPECT_DOUBLE_EQ(cluster.stats().sum_suffix(".vlsu.words_stored"), expect_stored);
}

TEST(TraceReplay, StorePayloadActuallyLands) {
  const ClusterConfig cfg = test::mp4_config();
  // Hart 3 writes 4 words at a known address; the payload is the hart id
  // splat across the vector (raw bits, moved via fmv.w.x).
  std::vector<TraceEntry> trace{{3, true, 0x80, 4}};
  Cluster cluster(cfg);
  TraceReplayKernel k(trace);
  RunnerOptions opts;
  opts.verify = false;
  const KernelMetrics m = run_kernel_on(cluster, k, opts);
  EXPECT_FALSE(m.timed_out);
  for (unsigned i = 0; i < 4; ++i) {
    EXPECT_EQ(cluster.read_word(0x80 + i * kWordBytes), 3u);
  }
}

TEST(TraceReplay, ContentionOrderingAcrossPatterns) {
  // Local traffic must beat neighbor (remote but conflict-free), which must
  // beat hotspot (every hart hammering one tile's banks and ports).
  const ClusterConfig cfg = test::mp4_config();
  const auto bw_of = [&](TracePattern p) {
    TraceConfig tc;
    tc.pattern = p;
    tc.entries_per_hart = 64;
    tc.seed = 23;
    TraceReplayKernel k(synthetic_trace(cfg, tc));
    return test::run_unverified(cfg, k).bw_per_core;
  };
  const double local = bw_of(TracePattern::kLocal);
  const double neighbor = bw_of(TracePattern::kNeighbor);
  const double hotspot = bw_of(TracePattern::kHotspot);
  EXPECT_GT(local, neighbor);
  EXPECT_GT(neighbor, hotspot);
}

TEST(TraceReplay, BurstLiftsUniformTraceBandwidth) {
  const ClusterConfig base = test::mp4_config();
  TraceConfig tc;
  tc.entries_per_hart = 64;
  const std::vector<TraceEntry> trace = synthetic_trace(base, tc);
  TraceReplayKernel k1(trace), k2(trace);
  const double bw_base = test::run_unverified(base, k1).bw_per_core;
  const double bw_gf4 = test::run_unverified(base.with_burst(4), k2).bw_per_core;
  EXPECT_GT(bw_gf4, 1.4 * bw_base);
}

}  // namespace
}  // namespace tcdm
