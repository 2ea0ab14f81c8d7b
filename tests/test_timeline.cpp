// Timeline recorder tests: sampling accounting (deltas sum to run totals),
// interval spacing, run completion, and both serialization formats.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "src/analytics/timeline.hpp"
#include "src/kernels/dotp.hpp"
#include "src/kernels/probes.hpp"
#include "tests/support/test_support.hpp"

namespace tcdm {
namespace {

TimelineResult record_dotp(unsigned interval, const ClusterConfig& cfg,
                           Cluster** out_cluster = nullptr) {
  static std::unique_ptr<Cluster> cluster;  // keep alive for caller inspection
  cluster = std::make_unique<Cluster>(cfg);
  DotpKernel dotp(512);
  dotp.setup(*cluster);
  TimelineResult t = record_timeline(*cluster, interval);
  if (out_cluster != nullptr) *out_cluster = cluster.get();
  return t;
}

TEST(Timeline, RejectsZeroInterval) {
  Cluster cluster(test::mp4_config());
  EXPECT_THROW((void)record_timeline(cluster, 0), std::invalid_argument);
}

TEST(Timeline, RejectsAClusterWithNoProgram) {
  Cluster cluster(test::mp4_config());
  EXPECT_THROW((void)record_timeline(cluster, 10), std::logic_error);
}

TEST(Timeline, RunsToCompletionAndCoversAllCycles) {
  const TimelineResult t = record_dotp(50, test::mp4_config());
  EXPECT_TRUE(t.all_halted);
  EXPECT_GT(t.total_cycles, 0u);
  ASSERT_FALSE(t.samples.empty());
  EXPECT_EQ(t.samples.back().cycle, t.total_cycles);
}

TEST(Timeline, SampleDeltasSumToClusterTotals) {
  Cluster* cluster = nullptr;
  const TimelineResult t = record_dotp(64, test::mp4_config(), &cluster);
  ASSERT_NE(cluster, nullptr);
  double loaded = 0, stored = 0, flops = 0;
  for (const TimelineSample& s : t.samples) {
    loaded += s.bytes_loaded;
    stored += s.bytes_stored;
    flops += s.flops;
  }
  EXPECT_DOUBLE_EQ(loaded, cluster->bytes_loaded());
  EXPECT_DOUBLE_EQ(stored, cluster->bytes_stored());
  EXPECT_DOUBLE_EQ(flops, cluster->total_flops());
  EXPECT_NEAR(t.avg_bw(), (loaded + stored) / t.total_cycles, 1e-9);
}

TEST(Timeline, SamplesAreIntervalSpaced) {
  const unsigned interval = 37;  // deliberately not a divisor of the runtime
  const TimelineResult t = record_dotp(interval, test::mp4_config());
  ASSERT_GE(t.samples.size(), 2u);
  for (std::size_t i = 0; i + 1 < t.samples.size(); ++i) {
    EXPECT_EQ(t.samples[i].cycle, (i + 1) * interval);
  }
  // Final sample may close a partial interval but never exceeds one.
  EXPECT_LE(t.samples.back().cycle - t.samples[t.samples.size() - 2].cycle, interval);
}

TEST(Timeline, PeakIsAtLeastAverage) {
  const TimelineResult t = record_dotp(50, test::mp4_config().with_burst(4));
  EXPECT_GE(t.peak_bw(), t.avg_bw());
  EXPECT_GT(t.peak_bw(), 0.0);
}

TEST(Timeline, BurstRaisesAverageBandwidth) {
  const TimelineResult base = record_dotp(50, test::mp4_config());
  const TimelineResult gf4 = record_dotp(50, test::mp4_config().with_burst(4));
  EXPECT_GT(gf4.avg_bw(), base.avg_bw());
}

TEST(Timeline, CsvHasHeaderAndOneRowPerSample) {
  const TimelineResult t = record_dotp(100, test::mp4_config());
  std::ostringstream os;
  write_timeline_csv(os, t);
  const std::string text = os.str();
  std::size_t lines = 0;
  for (char c : text) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, t.samples.size() + 1);
  EXPECT_EQ(text.rfind("cycle,bytes_loaded,bytes_stored,flops,bw_B_per_cycle\n", 0), 0u);
}

TEST(Timeline, ChromeTraceIsBalancedJsonArray) {
  const TimelineResult t = record_dotp(100, test::mp4_config());
  std::ostringstream os;
  write_timeline_chrome_trace(os, t, "bw");
  const std::string text = os.str();
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.front(), '[');
  int depth = 0;
  std::size_t events = 0;
  for (char c : text) {
    if (c == '{') {
      ++depth;
      events += depth == 1 ? 1 : 0;
    }
    if (c == '}') --depth;
  }
  // Counter payloads nest one level: every event contributes {..{..}..}.
  EXPECT_EQ(events, t.samples.size());
}

TEST(Timeline, SamplesAreIdenticalInEverySteppingMode) {
  // record_timeline runs the cluster through Cluster::run, so timelines
  // follow the cluster's SteppingMode; every mode must sample the same
  // bytes at the same cycles, both to completion and under a cycle budget
  // that ends mid-interval.
  for (const Cycle budget : {Cycle{333}, Cycle{50'000'000}}) {
    std::vector<TimelineResult> runs;
    for (const SteppingMode mode :
         {SteppingMode::kEventDriven, SteppingMode::kCycleByCycle,
          SteppingMode::kCrossCheck}) {
      Cluster cluster(test::mp4_config().with_burst(4), SimOptions{mode});
      DotpKernel dotp(512);
      dotp.setup(cluster);
      runs.push_back(record_timeline(cluster, 7, budget));
    }
    for (std::size_t m = 1; m < runs.size(); ++m) {
      EXPECT_EQ(runs[m].total_cycles, runs[0].total_cycles) << "budget " << budget;
      EXPECT_EQ(runs[m].all_halted, runs[0].all_halted) << "budget " << budget;
      ASSERT_EQ(runs[m].samples.size(), runs[0].samples.size()) << "budget " << budget;
      for (std::size_t i = 0; i < runs[0].samples.size(); ++i) {
        const TimelineSample& a = runs[0].samples[i];
        const TimelineSample& b = runs[m].samples[i];
        EXPECT_EQ(b.cycle, a.cycle) << "mode " << m << " sample " << i;
        EXPECT_EQ(b.bytes_loaded, a.bytes_loaded) << "mode " << m << " sample " << i;
        EXPECT_EQ(b.bytes_stored, a.bytes_stored) << "mode " << m << " sample " << i;
        EXPECT_EQ(b.flops, a.flops) << "mode " << m << " sample " << i;
      }
    }
  }
}

TEST(Timeline, HonorsMaxCycles) {
  Cluster cluster(test::mp4_config());
  RandomProbeKernel probe(512);  // long-running (but fits the address table)
  probe.setup(cluster);
  const TimelineResult t = record_timeline(cluster, 10, /*max_cycles=*/200);
  EXPECT_FALSE(t.all_halted);
  EXPECT_LE(t.total_cycles, 200u);
}

}  // namespace
}  // namespace tcdm
