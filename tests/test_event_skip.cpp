// Event-driven stepping contract suite (docs/ARCHITECTURE.md): the
// next-event skip loop must be bit-identical to the cycle-by-cycle
// reference — same metrics, the whole statistics registry, same final
// TCDM memory image — across the
// baseline/GF2/GF4 interconnects, including the deadlock-diagnostic and
// max-cycles-timeout exits. The kCrossCheck mode is the suite's fault
// detector: a fabricated too-late earliest_wakeup (exactly the bug class
// invariant EV1 forbids) must be caught and reported by invariant name.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/cluster/cluster.hpp"
#include "src/common/sim_time.hpp"
#include "src/kernels/dotp.hpp"
#include "tests/support/test_support.hpp"

namespace tcdm {
namespace {

using test::mp4_config;

/// Full TCDM contents via the host backdoor.
std::vector<Word> memory_image(const Cluster& c) {
  std::vector<Word> img;
  const std::uint64_t total = c.map().total_bytes();
  img.reserve(total / kWordBytes);
  for (Addr a = 0; a < total; a += kWordBytes) img.push_back(c.read_word(a));
  return img;
}

struct ModeRun {
  KernelMetrics metrics;
  std::vector<std::pair<std::string, double>> stats;
  std::vector<Word> memory;
  double skipped = 0.0;
  Cycle end_cycle = 0;
};

ModeRun run_dotp(const ClusterConfig& cfg, SteppingMode mode) {
  DotpKernel k(1024, /*seed=*/7);
  Cluster cluster(cfg, SimOptions{mode});
  RunnerOptions opts;
  ModeRun r;
  r.metrics = run_kernel_on(cluster, k, opts);
  r.stats = cluster.stats().snapshot();
  r.memory = memory_image(cluster);
  r.skipped = cluster.cycles_skipped();
  r.end_cycle = cluster.now();
  return r;
}

void expect_identical_runs(const ModeRun& a, const ModeRun& b) {
  EXPECT_EQ(a.metrics.cycles, b.metrics.cycles);
  EXPECT_EQ(a.metrics.flops, b.metrics.flops);
  EXPECT_EQ(a.metrics.bytes, b.metrics.bytes);
  EXPECT_EQ(a.metrics.fpu_util, b.metrics.fpu_util);
  EXPECT_EQ(a.metrics.bw_bytes_per_cycle, b.metrics.bw_bytes_per_cycle);
  EXPECT_EQ(a.metrics.verified, b.metrics.verified);
  EXPECT_EQ(a.metrics.timed_out, b.metrics.timed_out);
  EXPECT_EQ(a.end_cycle, b.end_cycle);
  EXPECT_EQ(a.stats, b.stats);
  EXPECT_EQ(a.memory, b.memory);
}

/// The interconnect sweep by grouping factor (0 = no bursts).
using EventSkipSweep = ::testing::TestWithParam<unsigned>;

TEST_P(EventSkipSweep, EventDrivenRunIsBitIdenticalToCycleByCycle) {
  const ClusterConfig cfg = mp4_config(GetParam());
  const ModeRun event = run_dotp(cfg, SteppingMode::kEventDriven);
  const ModeRun cycle = run_dotp(cfg, SteppingMode::kCycleByCycle);
  ASSERT_TRUE(event.metrics.verified);
  expect_identical_runs(event, cycle);
  // The workload has real quiet spans (barrier releases, drain tails): the
  // skip loop must actually engage, and the reference loop never may.
  EXPECT_GT(event.skipped, 0.0);
  EXPECT_EQ(cycle.skipped, 0.0);
}

TEST_P(EventSkipSweep, CrossCheckModeValidatesEverySkipAndMatches) {
  const ClusterConfig cfg = mp4_config(GetParam());
  // kCrossCheck steps every claimed-quiet span cycle by cycle, throwing on
  // any EV1/EV2 violation — a clean completion is a proof that every skip
  // the event mode would take is sound on this workload.
  const ModeRun check = run_dotp(cfg, SteppingMode::kCrossCheck);
  const ModeRun cycle = run_dotp(cfg, SteppingMode::kCycleByCycle);
  ASSERT_TRUE(check.metrics.verified);
  expect_identical_runs(check, cycle);
  EXPECT_EQ(check.skipped, 0.0);  // check mode verifies skips, never takes them
}

INSTANTIATE_TEST_SUITE_P(
    Burst, EventSkipSweep, ::testing::Values(0u, 2u, 4u),
    [](const ::testing::TestParamInfo<unsigned>& info) {
      return info.param == 0 ? std::string("baseline") : "gf" + std::to_string(info.param);
    });

TEST(EventSkip, TooLateWakeupIsCaughtByCrossCheck) {
  // Fabricate exactly the bug the wakeup contract forbids: every computed
  // next-event cycle reported one cycle too late (a component's
  // earliest_wakeup missing a state change). kCrossCheck must refuse the
  // very first biased skip and name the violated ARCHITECTURE.md invariant.
  DotpKernel k(1024, /*seed=*/7);
  SimOptions sim;
  sim.stepping = SteppingMode::kCrossCheck;
  Cluster cluster(mp4_config(), sim);
  cluster.debug_set_wakeup_bias(1);
  try {
    (void)run_kernel_on(cluster, k, RunnerOptions{});
    FAIL() << "biased wakeup was not detected";
  } catch (const WakeupContractError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("EV"), std::string::npos) << msg;
    EXPECT_NE(msg.find("docs/ARCHITECTURE.md"), std::string::npos) << msg;
  }
}

TEST(EventSkip, DeadlockFiresAtTheReferenceCycle) {
  // hart 0 halts, the rest wait on a barrier that can never complete. The
  // whole wait is one long quiet span, but the skip loop must never jump
  // past the watchdog deadline: the DeadlockError has to fire at the exact
  // cycle — and with the exact message — of the reference loop.
  const auto deadlock = [](SteppingMode mode) {
    SimOptions sim;
    sim.stepping = mode;
    Cluster cluster(mp4_config(), sim);
    cluster.set_watchdog_window(2000);
    std::vector<Program> programs;
    ProgramBuilder skip("skip");
    skip.halt();
    programs.push_back(skip.build());
    for (unsigned h = 1; h < cluster.config().num_cores(); ++h) {
      ProgramBuilder w("wait");
      w.barrier();
      w.halt();
      programs.push_back(w.build());
    }
    cluster.load_programs(std::move(programs));
    std::string message;
    try {
      (void)cluster.run(1'000'000);
    } catch (const DeadlockError& e) {
      message = e.what();
    }
    return std::make_tuple(message, cluster.now(), cluster.cycles_skipped(),
                           cluster.stats().snapshot());
  };
  const auto event = deadlock(SteppingMode::kEventDriven);
  const auto cycle = deadlock(SteppingMode::kCycleByCycle);
  EXPECT_FALSE(std::get<0>(event).empty());
  EXPECT_EQ(std::get<0>(event), std::get<0>(cycle));
  EXPECT_EQ(std::get<1>(event), std::get<1>(cycle));
  EXPECT_EQ(std::get<3>(event), std::get<3>(cycle));
  // The diagnostic wait itself must have been skipped, not stepped: this is
  // where event-driven stepping buys its order of magnitude.
  EXPECT_GT(std::get<2>(event), 0.0);
  EXPECT_EQ(std::get<2>(cycle), 0.0);
}

TEST(EventSkip, MaxCyclesTimeoutIsCycleIdentical) {
  // A barrier wait that outlives the caller's budget (watchdog disabled by
  // a huge window): the skip loop must stop exactly at the budget like the
  // reference loop, with identical counters for the capped quiet span.
  const auto timeout = [](SteppingMode mode) {
    SimOptions sim;
    sim.stepping = mode;
    Cluster cluster(mp4_config(), sim);
    cluster.set_watchdog_window(10'000'000);
    std::vector<Program> programs;
    ProgramBuilder skip("skip");
    skip.halt();
    programs.push_back(skip.build());
    for (unsigned h = 1; h < cluster.config().num_cores(); ++h) {
      ProgramBuilder w("wait");
      w.barrier();
      w.halt();
      programs.push_back(w.build());
    }
    cluster.load_programs(std::move(programs));
    const RunOutcome out = cluster.run(/*max_cycles=*/20'000);
    return std::make_tuple(out.cycles, out.all_halted, cluster.now(),
                           cluster.cycles_skipped(), cluster.stats().snapshot());
  };
  const auto event = timeout(SteppingMode::kEventDriven);
  const auto cycle = timeout(SteppingMode::kCycleByCycle);
  EXPECT_FALSE(std::get<1>(event));
  EXPECT_EQ(std::get<0>(event), std::get<0>(cycle));
  EXPECT_EQ(std::get<1>(event), std::get<1>(cycle));
  EXPECT_EQ(std::get<2>(event), std::get<2>(cycle));
  EXPECT_EQ(std::get<4>(event), std::get<4>(cycle));
  EXPECT_GT(std::get<3>(event), 0.0);
}

}  // namespace
}  // namespace tcdm
