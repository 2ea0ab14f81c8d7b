// Failure-injection tests: the simulator must fail loudly and specifically
// on malformed programs — out-of-range or misaligned memory accesses,
// deadlocks (runaway loops, mismatched barriers) — rather than corrupting
// state or hanging. These are the contracts a downstream user debugging
// their own kernels relies on. Vector-path contracts are swept over
// baseline/GF2/GF4 (the burst path rewrites how loads travel), and faults
// raised on remote tiles must be attributed to the offending hart.
#include <gtest/gtest.h>

#include "src/cluster/cluster.hpp"
#include "src/common/sim_time.hpp"
#include "tests/support/test_support.hpp"

namespace tcdm {
namespace {

// Cluster owns a non-copyable stats registry; build in place per test.
#define MAKE_CLUSTER(cluster)                      \
  Cluster cluster(::tcdm::test::mp4_config());     \
  cluster.set_watchdog_window(2000)

Program with_epilogue(ProgramBuilder& pb) {
  pb.barrier();
  pb.halt();
  return pb.build();
}

TEST(FaultHandling, ScalarLoadOutOfRangeThrows) {
  MAKE_CLUSTER(cluster);
  ProgramBuilder pb("oob_scalar");
  pb.li(t0, static_cast<std::int32_t>(cluster.map().total_bytes()));  // one past end
  pb.lw(t1, t0, 0);
  cluster.load_program(with_epilogue(pb));
  EXPECT_THROW((void)cluster.run(100'000), std::runtime_error);
}

TEST(FaultHandling, ScalarMisalignedAccessThrows) {
  MAKE_CLUSTER(cluster);
  ProgramBuilder pb("misaligned_scalar");
  pb.li(t0, 6);  // not word-aligned
  pb.lw(t1, t0, 0);
  cluster.load_program(with_epilogue(pb));
  EXPECT_THROW((void)cluster.run(100'000), std::runtime_error);
}

// The vector-path (VLSU / Burst Sender) fault checks must hold in every
// interconnect configuration: the burst path rewrites how loads travel, so
// each malformed-program contract is swept over baseline/GF2/GF4.
class VectorFaultSweep : public test::BurstSweepTest {};

TEST_P(VectorFaultSweep, VectorLoadRunningOffTheEndThrows) {
  Cluster cluster(config());
  cluster.set_watchdog_window(2000);
  ProgramBuilder pb("oob_vle");
  // Base 8 words before the end, vl = 16: elements 8.. overflow.
  pb.li(t0, static_cast<std::int32_t>(cluster.map().total_bytes() - 8 * kWordBytes));
  pb.li(t1, 16);
  pb.vsetvli(t2, t1, Lmul::m2);
  pb.vle32(VReg{0}, t0);
  cluster.load_program(with_epilogue(pb));
  EXPECT_THROW((void)cluster.run(100'000), std::runtime_error);
}

TEST_P(VectorFaultSweep, VectorMisalignedBaseThrows) {
  Cluster cluster(config());
  cluster.set_watchdog_window(2000);
  ProgramBuilder pb("misaligned_vle");
  pb.li(t0, 2);
  pb.li(t1, 4);
  pb.vsetvli(t2, t1, Lmul::m1);
  pb.vle32(VReg{0}, t0);
  cluster.load_program(with_epilogue(pb));
  EXPECT_THROW((void)cluster.run(100'000), std::runtime_error);
}

TEST_P(VectorFaultSweep, StridedLoadEscapingMemoryThrows) {
  Cluster cluster(config());
  cluster.set_watchdog_window(2000);
  ProgramBuilder pb("oob_vlse");
  pb.li(t0, 0);
  pb.li(t1, 8);
  pb.vsetvli(t2, t1, Lmul::m1);
  // Stride of half the memory: element 2 lands out of range.
  pb.li(t3, static_cast<std::int32_t>(cluster.map().total_bytes() / 2));
  pb.vlse32(VReg{0}, t0, t3);
  cluster.load_program(with_epilogue(pb));
  EXPECT_THROW((void)cluster.run(100'000), std::runtime_error);
}

TEST_P(VectorFaultSweep, IndexedGatherWithBadIndexThrows) {
  Cluster cluster(config());
  cluster.set_watchdog_window(2000);
  // v4 holds byte offsets; load them from memory first (offset table at 0).
  cluster.write_word(0, 0);
  cluster.write_word(4, 0x00ffffff);  // far out of range (and misaligned)
  ProgramBuilder pb("oob_gather");
  pb.li(t0, 0);
  pb.li(t1, 2);
  pb.vsetvli(t2, t1, Lmul::m1);
  pb.vle32(VReg{4}, t0);
  pb.vluxei32(VReg{0}, t0, VReg{4});
  cluster.load_program(with_epilogue(pb));
  EXPECT_THROW((void)cluster.run(100'000), std::runtime_error);
}

TEST_P(VectorFaultSweep, MismatchedBarrierDeadlockIsCaughtByWatchdog) {
  // The watchdog must keep seeing through burst traffic: hart 0 halts, the
  // rest block at a barrier that can never complete, and the hang is
  // reported instead of spinning — regardless of the interconnect config.
  Cluster cluster(config());
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
  EXPECT_THROW((void)cluster.run(1'000'000), DeadlockError);
}

TEST_P(VectorFaultSweep, RemoteTileFaultIsAttributedToItsHart) {
  // A fault raised by a hart on a remote (non-zero) tile must name that
  // hart, so a user debugging a 1000-FPU run knows where to look.
  Cluster cluster(config());
  cluster.set_watchdog_window(2000);
  const unsigned faulty = cluster.config().num_cores() - 1;
  std::vector<Program> programs;
  for (unsigned h = 0; h < cluster.config().num_cores(); ++h) {
    ProgramBuilder pb(h == faulty ? "oob_remote" : "idle");
    if (h == faulty) {
      pb.li(t0, static_cast<std::int32_t>(cluster.map().total_bytes()));
      pb.li(t1, 4);
      pb.vsetvli(t2, t1, Lmul::m1);
      pb.vle32(VReg{0}, t0);
    }
    pb.halt();
    programs.push_back(pb.build());
  }
  cluster.load_programs(std::move(programs));
  try {
    (void)cluster.run(100'000);
    FAIL() << "expected a fault from hart " << faulty;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("hart=" + std::to_string(faulty)),
              std::string::npos)
        << "fault not attributed: " << e.what();
  }
}

TEST_P(VectorFaultSweep, VectorRegisterGroupPastV31Throws) {
  // An LMUL=8 group based at v28 would span v28..v35: the core must refuse
  // the instruction instead of indexing past the 32 architectural registers.
  Cluster cluster(config());
  cluster.set_watchdog_window(2000);
  ProgramBuilder pb("group_past_v31");
  pb.li(t0, 0);
  pb.li(t1, 8);
  pb.vsetvli(t2, t1, Lmul::m8);
  pb.vle32(VReg{28}, t0);
  cluster.load_program(with_epilogue(pb));
  try {
    (void)cluster.run(100'000);
    FAIL() << "expected a register-group fault";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("vle32.v"), std::string::npos) << what;
    EXPECT_NE(what.find("v28..v35"), std::string::npos) << what;
    EXPECT_NE(what.find("hart="), std::string::npos) << what;
  }
}

TCDM_INSTANTIATE_BURST_SWEEP(VectorFaultSweep);

TEST(FaultHandling, RunawayLoopIsBoundedByMaxCycles) {
  // A spin loop keeps executing instructions, so it is livelock, not
  // deadlock: the watchdog (which tracks progress) must NOT fire, and the
  // run must return cleanly at the max-cycles budget instead.
  MAKE_CLUSTER(cluster);
  ProgramBuilder pb("spin");
  Label loop = pb.make_label();
  pb.bind(loop);
  pb.j(loop);
  pb.halt();
  cluster.load_program(pb.build());
  const RunOutcome out = cluster.run(/*max_cycles=*/20'000);
  EXPECT_FALSE(out.all_halted);
  EXPECT_GE(out.cycles, 20'000u);
}

TEST(FaultHandling, WellFormedProgramStillCompletes) {
  // Sanity counterpart: the checks above must not reject legal programs
  // touching the first and last words of TCDM.
  MAKE_CLUSTER(cluster);
  const Addr last = static_cast<Addr>(cluster.map().total_bytes() - kWordBytes);
  cluster.write_word(last, 0xdeadbeef);
  ProgramBuilder pb("edge_touch");
  pb.li(t0, static_cast<std::int32_t>(last));
  pb.lw(t1, t0, 0);
  pb.li(t2, 0);
  pb.sw(t1, t2, 0);
  cluster.load_program(with_epilogue(pb));
  const RunOutcome out = cluster.run(100'000);
  EXPECT_TRUE(out.all_halted);
  EXPECT_EQ(cluster.read_word(0), 0xdeadbeefu);
}

}  // namespace
}  // namespace tcdm
