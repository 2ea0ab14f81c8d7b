// End-to-end cluster tests: scalar programs, vector memory, barriers,
// multi-hart interaction — on small custom configurations and the paper's
// MP4Spatz4 preset, baseline and burst.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "src/cluster/cluster.hpp"
#include "src/isa/program.hpp"
#include "tests/support/test_support.hpp"

namespace tcdm {
namespace {

/// Tiny 2-tile cluster for fast directed tests.
using test::tiny_config;

TEST(Cluster, ScalarArithmeticProgram) {
  Cluster cluster(tiny_config());
  ProgramBuilder pb("alu");
  pb.li(t0, 21);
  pb.slli(t1, t0, 1);     // 42
  pb.addi(t2, t1, 58);    // 100
  pb.li(t3, 400);
  pb.li(a2, 0x40);        // result address
  pb.add(t3, t3, t2);     // 500
  pb.sw(t3, a2, 0);
  pb.barrier();
  pb.halt();
  cluster.load_program(pb.build());
  const RunOutcome out = cluster.run(20'000);
  EXPECT_TRUE(out.all_halted);
  EXPECT_EQ(cluster.read_word(0x40), 500u);
}

TEST(Cluster, ScalarLoadStoreRoundTrip) {
  Cluster cluster(tiny_config());
  cluster.write_word(0x10, 1234);
  ProgramBuilder pb("ldst");
  Label skip = pb.make_label();
  pb.bnez(a0, skip);  // only hart 0
  pb.li(a2, 0x10);
  pb.lw(t0, a2, 0);
  pb.addi(t0, t0, 1);
  pb.sw(t0, a2, 4);
  pb.bind(skip);
  pb.barrier();
  pb.halt();
  cluster.load_program(pb.build());
  EXPECT_TRUE(cluster.run(20'000).all_halted);
  EXPECT_EQ(cluster.read_word(0x14), 1235u);
}

TEST(Cluster, RemoteScalarAccess) {
  // Hart 0 stores into a word that lives in tile 1 (bank 4..7 words).
  Cluster cluster(tiny_config());
  const Addr remote = 4 * kWordBytes;  // word 4 -> bank 4 -> tile 1
  ASSERT_EQ(cluster.map().tile_of(remote), 1u);
  ProgramBuilder pb("remote");
  Label skip = pb.make_label();
  pb.bnez(a0, skip);
  pb.li(a2, static_cast<std::int32_t>(remote));
  pb.li(t0, 77);
  pb.sw(t0, a2, 0);
  pb.lw(t1, a2, 0);
  pb.addi(t1, t1, 1);
  pb.sw(t1, a2, 0);
  pb.bind(skip);
  pb.barrier();
  pb.halt();
  cluster.load_program(pb.build());
  EXPECT_TRUE(cluster.run(20'000).all_halted);
  EXPECT_EQ(cluster.read_word(remote), 78u);
}

TEST(Cluster, AmoAddAccumulatesAcrossHarts) {
  Cluster cluster(tiny_config());
  const Addr counter = 0x20;
  ProgramBuilder pb("amo");
  pb.li(a2, static_cast<std::int32_t>(counter));
  pb.addi(t0, a0, 1);  // hart 0 adds 1, hart 1 adds 2
  pb.amoadd_w(t1, a2, t0);
  pb.barrier();
  pb.halt();
  cluster.load_program(pb.build());
  EXPECT_TRUE(cluster.run(20'000).all_halted);
  EXPECT_EQ(cluster.read_word(counter), 3u);
}

TEST(Cluster, BarrierOrdersProducerConsumer) {
  // Hart 0 writes, both barrier, hart 1 reads the value and copies it.
  Cluster cluster(tiny_config());
  ProgramBuilder pb("barrier");
  Label consumer = pb.make_label();
  Label join = pb.make_label();
  Label fin = pb.make_label();
  pb.bnez(a0, join);  // producer = hart 0
  pb.li(a2, 0x30);
  pb.li(t0, 99);
  pb.sw(t0, a2, 0);
  pb.bind(join);
  pb.barrier();
  pb.bnez(a0, consumer);
  pb.j(fin);
  pb.bind(consumer);
  pb.li(a2, 0x30);
  pb.lw(t0, a2, 0);
  pb.li(a3, 0x34);
  pb.sw(t0, a3, 0);
  pb.bind(fin);
  pb.barrier();
  pb.halt();
  cluster.load_program(pb.build());
  EXPECT_TRUE(cluster.run(20'000).all_halted);
  EXPECT_EQ(cluster.read_word(0x34), 99u);
}

TEST(Cluster, VectorLoadComputeStore) {
  // vle32 -> vfadd.vv -> vse32 on one hart; functional round trip.
  Cluster cluster(tiny_config());
  const Addr x = 0x80, y = 0x100, z = 0x180;
  for (unsigned i = 0; i < 8; ++i) {
    cluster.write_f32(x + i * 4, static_cast<float>(i));
    cluster.write_f32(y + i * 4, 10.0f * static_cast<float>(i));
  }
  ProgramBuilder pb("vadd");
  Label skip = pb.make_label();
  pb.bnez(a0, skip);
  pb.li(t0, 8);
  pb.vsetvli(t1, t0, Lmul::m2);  // VLEN=128 -> vlmax(m2)=8
  pb.li(a2, static_cast<std::int32_t>(x));
  pb.li(a3, static_cast<std::int32_t>(y));
  pb.li(a4, static_cast<std::int32_t>(z));
  pb.vle32(VReg{0}, a2);
  pb.vle32(VReg{2}, a3);
  pb.vfadd_vv(VReg{4}, VReg{0}, VReg{2});
  pb.vse32(VReg{4}, a4);
  pb.bind(skip);
  pb.barrier();
  pb.halt();
  cluster.load_program(pb.build());
  EXPECT_TRUE(cluster.run(20'000).all_halted);
  for (unsigned i = 0; i < 8; ++i) {
    EXPECT_FLOAT_EQ(cluster.read_f32(z + i * 4), 11.0f * static_cast<float>(i)) << i;
  }
}

TEST(Cluster, VectorStridedAndIndexed) {
  Cluster cluster(tiny_config());
  // Source: 16 floats; strided load picks every 2nd; indexed gathers a
  // permutation.
  const Addr src = 0x200, dst1 = 0x300, idx = 0x380, dst2 = 0x400;
  for (unsigned i = 0; i < 16; ++i) {
    cluster.write_f32(src + i * 4, static_cast<float>(i) + 0.5f);
  }
  const Word perm[8] = {7, 3, 5, 1, 6, 2, 4, 0};
  for (unsigned i = 0; i < 8; ++i) cluster.write_word(idx + i * 4, perm[i] * 4);

  ProgramBuilder pb("stride_index");
  Label skip = pb.make_label();
  pb.bnez(a0, skip);
  pb.li(t0, 8);
  pb.vsetvli(t1, t0, Lmul::m2);
  pb.li(a2, static_cast<std::int32_t>(src));
  pb.li(a3, 8);  // stride bytes
  pb.vlse32(VReg{0}, a2, a3);
  pb.li(a4, static_cast<std::int32_t>(dst1));
  pb.vse32(VReg{0}, a4);
  pb.li(a5, static_cast<std::int32_t>(idx));
  pb.vle32(VReg{2}, a5);
  pb.vluxei32(VReg{4}, a2, VReg{2});
  pb.li(a6, static_cast<std::int32_t>(dst2));
  pb.vse32(VReg{4}, a6);
  pb.bind(skip);
  pb.barrier();
  pb.halt();
  cluster.load_program(pb.build());
  EXPECT_TRUE(cluster.run(40'000).all_halted);
  for (unsigned i = 0; i < 8; ++i) {
    EXPECT_FLOAT_EQ(cluster.read_f32(dst1 + i * 4), 2.0f * i + 0.5f) << i;
    EXPECT_FLOAT_EQ(cluster.read_f32(dst2 + i * 4), perm[i] + 0.5f) << i;
  }
}

TEST(Cluster, ChainedMaccAndReduction) {
  Cluster cluster(tiny_config());
  const Addr x = 0x80, y = 0x100, out = 0x180;
  float expected = 0.0f;
  for (unsigned i = 0; i < 8; ++i) {
    cluster.write_f32(x + i * 4, static_cast<float>(i));
    cluster.write_f32(y + i * 4, 2.0f);
    expected += 2.0f * static_cast<float>(i);
  }
  ProgramBuilder pb("dot8");
  Label skip = pb.make_label();
  pb.bnez(a0, skip);
  pb.li(t0, 8);
  pb.vsetvli(t1, t0, Lmul::m2);
  pb.li(a2, static_cast<std::int32_t>(x));
  pb.li(a3, static_cast<std::int32_t>(y));
  pb.vle32(VReg{0}, a2);
  pb.vle32(VReg{2}, a3);
  pb.fmv_w_x(ft0, x0);
  pb.vfmv_v_f(VReg{4}, ft0);
  pb.vfmacc_vv(VReg{4}, VReg{0}, VReg{2});
  pb.vfmv_v_f(VReg{6}, ft0);
  pb.vfredusum(VReg{6}, VReg{4}, VReg{6});
  pb.li(t0, 1);
  pb.vsetvli(t1, t0, Lmul::m1);
  pb.li(a4, static_cast<std::int32_t>(out));
  pb.vse32(VReg{6}, a4);
  pb.bind(skip);
  pb.barrier();
  pb.halt();
  cluster.load_program(pb.build());
  EXPECT_TRUE(cluster.run(40'000).all_halted);
  EXPECT_FLOAT_EQ(cluster.read_f32(out), expected);
}

TEST(Cluster, BurstConfigProducesSameResults) {
  // Functional equivalence: identical program output with bursts enabled.
  for (const bool burst : {false, true}) {
    ClusterConfig cfg = tiny_config();
    if (burst) cfg = cfg.with_burst(4);
    Cluster cluster(cfg);
    const Addr x = 0x80, z = 0x200;
    for (unsigned i = 0; i < 32; ++i) {
      cluster.write_f32(x + i * 4, static_cast<float>(i) * 1.25f);
    }
    ProgramBuilder pb("copy32");
    Label skip = pb.make_label();
    pb.bnez(a0, skip);
    pb.li(t0, 32);
    pb.vsetvli(t1, t0, Lmul::m8);
    pb.li(a2, static_cast<std::int32_t>(x));
    pb.li(a3, static_cast<std::int32_t>(z));
    pb.vle32(VReg{0}, a2);
    pb.vse32(VReg{0}, a3);
    pb.bind(skip);
    pb.barrier();
    pb.halt();
    cluster.load_program(pb.build());
    EXPECT_TRUE(cluster.run(40'000).all_halted) << "burst=" << burst;
    for (unsigned i = 0; i < 32; ++i) {
      EXPECT_FLOAT_EQ(cluster.read_f32(z + i * 4), static_cast<float>(i) * 1.25f)
          << "burst=" << burst << " i=" << i;
    }
  }
}

TEST(Cluster, ZeroVlVectorOpsAreNops) {
  Cluster cluster(tiny_config());
  ProgramBuilder pb("vl0");
  pb.li(t0, 0);
  pb.vsetvli(t1, t0, Lmul::m2);  // vl = 0
  pb.li(a2, 0x80);
  pb.vle32(VReg{0}, a2);
  pb.vfadd_vv(VReg{2}, VReg{0}, VReg{0});
  pb.vse32(VReg{2}, a2);
  pb.barrier();
  pb.halt();
  cluster.load_program(pb.build());
  EXPECT_TRUE(cluster.run(20'000).all_halted);
}

TEST(Cluster, WatchdogDetectsLostBarrier) {
  // Hart 1 halts without reaching the barrier; hart 0 waits there forever
  // with no forward progress. The watchdog must fire, not spin.
  Cluster cluster(tiny_config());
  ProgramBuilder pb("hang");
  Label wait = pb.make_label();
  pb.beqz(a0, wait);
  pb.halt();  // hart 1 defects
  pb.bind(wait);
  pb.barrier();  // hart 0 can never be released
  pb.halt();
  cluster.load_program(pb.build());
  cluster.set_watchdog_window(2'000);
  EXPECT_THROW((void)cluster.run(1'000'000), DeadlockError);
}

/// 64-bit FNV-1a over the sorted counter names, each closed by a NUL.
std::uint64_t counter_name_hash(const StatsRegistry& stats) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](unsigned char c) {
    h ^= c;
    h *= 1099511628211ull;
  };
  for (const auto& [name, value] : stats.snapshot()) {
    for (const char c : name) mix(static_cast<unsigned char>(c));
    mix(0);
  }
  return h;
}

TEST(Cluster, CounterNamesArePinned) {
  // The registered counter names of every preset and an extension config:
  // a change that renames, drops or adds a counter must re-record them.
  struct Pin {
    ClusterConfig cfg;
    std::size_t count;
    std::uint64_t hash;
  };
  const Pin pins[] = {
      {ClusterConfig::mp4spatz4(), 183, 8437163686205314581ull},
      {ClusterConfig::mp64spatz4(), 2823, 18215852246174664861ull},
      {ClusterConfig::mp128spatz8(), 7687, 13233843503310559813ull},
      {ClusterConfig::mp4spatz4().with_burst(4).with_strided_bursts().with_store_bursts(4), 183,
       8437163686205314581ull},
  };
  for (const Pin& pin : pins) {
    const Cluster cluster(pin.cfg);
    EXPECT_EQ(cluster.stats().snapshot().size(), pin.count) << pin.cfg.name;
    EXPECT_EQ(counter_name_hash(cluster.stats()), pin.hash) << pin.cfg.name;
  }
}

TEST(Cluster, EveryCounterNameTheSimulatorReadsIsRegistered) {
  // The names the cluster, the power model and the probe and trace kernels
  // pass to sum_suffix and value. An unregistered name sums to 0 silently,
  // so a renamed counter would zero a metric without failing anything else.
  const char* const kSuffixes[] = {
      ".vlsu.words_loaded", ".vlsu.words_stored", ".vfpu.flops",        ".scalar_flops",
      ".snitch.load_words", ".snitch.store_words", ".snitch.instrs",    ".reads",
      ".writes",            ".bm.beats_merged",   ".sender.bursts_sent"};
  const char* const kNames[] = {"network.req_hop_words", "network.rsp_hop_words"};
  for (const char* preset : {"mp4spatz4", "mp64spatz4", "mp128spatz8"}) {
    const ClusterConfig base = ClusterConfig::by_name(preset);
    for (const ClusterConfig& cfg :
         {base, base.with_burst(4), base.with_burst(4).with_strided_bursts(),
          base.with_burst(4).with_store_bursts(4)}) {
      const Cluster cluster(cfg);
      const auto names = cluster.stats().snapshot();
      for (const std::string_view suffix : kSuffixes) {
        EXPECT_TRUE(std::any_of(names.begin(), names.end(),
                                [&](const auto& n) { return n.first.ends_with(suffix); }))
            << cfg.name << ": no counter ends with " << suffix;
      }
      for (const std::string_view name : kNames) {
        EXPECT_TRUE(std::any_of(names.begin(), names.end(),
                                [&](const auto& n) { return n.first == name; }))
            << cfg.name << ": no counter " << name;
      }
    }
  }
}

TEST(Cluster, HostBlockStraddlingTheEndThrowsBeforeWriting) {
  Cluster cluster(tiny_config());
  const Addr end = static_cast<Addr>(cluster.map().total_bytes());
  const Addr start = end - 2 * kWordBytes;
  const std::vector<Word> words = {1, 2, 3};
  EXPECT_THROW(cluster.write_block(start, words), std::out_of_range);
  EXPECT_THROW(cluster.write_block_f32(start, std::vector<float>{1, 2, 3}), std::out_of_range);
  EXPECT_THROW((void)cluster.read_block_f32(start, 3), std::out_of_range);
  EXPECT_EQ(cluster.read_word(start), 0u);
  EXPECT_EQ(cluster.read_word(start + kWordBytes), 0u);
  // Misaligned blocks are refused the same way; the two words that fit do not.
  EXPECT_THROW(cluster.write_block(start + 1, std::span(words).first(1)), std::out_of_range);
  cluster.write_block(start, std::span(words).first(2));
  EXPECT_EQ(cluster.read_block_f32(start, 2),
            (std::vector<float>{word_to_f32(1), word_to_f32(2)}));
}

}  // namespace
}  // namespace tcdm
