// Cross-module property tests: randomized invariants that must hold for
// every legal configuration, not just the paper presets.
//
//  * Address map: word <-> (bank, row, tile) is a bijection; burst-span
//    helper consistent with the interleaving.
//  * Burst Sender: staging conserves words and never emits a burst that
//    crosses a tile or exceeds the configured length, for random beats.
//  * Determinism: a cluster run is a pure function of its configuration —
//    two identical runs produce identical cycle counts and results.
//  * FP equivalence: the burst extension is software-transparent — the
//    same program retires the same element order, so results match the
//    baseline bit for bit (not merely within tolerance).
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "src/burst/burst_sender.hpp"
#include "src/cluster/kernel_runner.hpp"
#include "src/common/rng.hpp"
#include "src/interconnect/network.hpp"
#include "src/kernels/dotp.hpp"
#include "src/kernels/stencil.hpp"
#include "src/memory/address_map.hpp"
#include "src/memory/rob.hpp"
#include "tests/support/test_support.hpp"

namespace tcdm {
namespace {

// ------------------------------------------------------------ address map --

class AddressMapProperty
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned, unsigned>> {};

TEST_P(AddressMapProperty, WordDecompositionIsABijection) {
  const auto [banks, bpt, words] = GetParam();
  const AddressMap map(banks, bpt, words);
  Xoshiro128 rng(banks * 7919 + bpt);
  for (unsigned i = 0; i < 2000; ++i) {
    const auto w = static_cast<std::uint32_t>(
        rng.next_below(static_cast<std::uint32_t>(map.total_bytes() / kWordBytes)));
    const Addr addr = static_cast<Addr>(w) * kWordBytes;
    // Reconstruct the word index from the decomposition.
    EXPECT_EQ(map.row_of(addr) * map.num_banks() + map.bank_of(addr), w);
    // Tile/bank-in-tile refine the bank index.
    EXPECT_EQ(map.tile_of(addr) * map.banks_per_tile() + map.bank_in_tile(addr),
              map.bank_of(addr));
    EXPECT_LT(map.tile_of(addr), map.num_tiles());
    EXPECT_LT(map.row_of(addr), map.bank_words());
  }
}

TEST_P(AddressMapProperty, WordsLeftInTileMatchesInterleaving) {
  const auto [banks, bpt, words] = GetParam();
  const AddressMap map(banks, bpt, words);
  for (std::uint32_t w = 0; w < std::min<std::uint64_t>(
                                    4096, map.total_bytes() / kWordBytes);
       ++w) {
    const Addr addr = static_cast<Addr>(w) * kWordBytes;
    const unsigned left = map.words_left_in_tile(addr);
    ASSERT_GE(left, 1u);
    ASSERT_LE(left, map.banks_per_tile());
    // All words in the claimed span share addr's tile...
    for (unsigned j = 0; j < left; ++j) {
      if (addr + j * kWordBytes >= map.total_bytes()) break;
      EXPECT_EQ(map.tile_of(addr + j * kWordBytes), map.tile_of(addr));
    }
    // ...and the next word (if any) does not — unless the cluster has a
    // single tile, where the interleave wraps back onto it.
    if (map.num_tiles() > 1 && addr + left * kWordBytes < map.total_bytes()) {
      EXPECT_NE(map.tile_of(addr + left * kWordBytes), map.tile_of(addr));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AddressMapProperty,
    ::testing::Values(std::make_tuple(16u, 4u, 1024u),   // MP4Spatz4
                      std::make_tuple(256u, 4u, 1024u),  // MP64Spatz4
                      std::make_tuple(1024u, 8u, 1024u), // MP128Spatz8
                      std::make_tuple(8u, 8u, 64u),      // single tile
                      std::make_tuple(32u, 2u, 16u)),    // narrow tiles
    [](const ::testing::TestParamInfo<std::tuple<unsigned, unsigned, unsigned>>& info) {
      return "b" + std::to_string(std::get<0>(info.param)) + "_t" +
             std::to_string(std::get<1>(info.param)) + "_w" +
             std::to_string(std::get<2>(info.param));
    });

// ------------------------------------------------------------------- ROB --

TEST(RobProperty, RandomFillOrderAlwaysRetiresInOrder) {
  Xoshiro128 rng(42);
  for (unsigned trial = 0; trial < 50; ++trial) {
    const unsigned depth = 2 + rng.next_below(14);
    ReorderBuffer rob(depth);
    std::vector<std::uint16_t> slots;
    for (unsigned i = 0; i < depth; ++i) slots.push_back(rob.alloc(0, i));
    ASSERT_TRUE(rob.full());
    // Fill in a random permutation; value = 1000 + allocation index.
    std::vector<unsigned> order(depth);
    for (unsigned i = 0; i < depth; ++i) order[i] = i;
    for (unsigned i = depth; i > 1; --i) {
      std::swap(order[i - 1], order[rng.next_below(i)]);
    }
    unsigned retired = 0;
    for (unsigned idx : order) {
      rob.fill(slots[idx], 1000 + idx);
      // Retire everything that became head-ready.
      while (rob.head_ready()) {
        const ReorderBuffer::Retired r = rob.pop_head();
        EXPECT_EQ(r.data, 1000 + retired);
        EXPECT_EQ(r.elem, retired);
        ++retired;
      }
    }
    EXPECT_EQ(retired, depth);
    EXPECT_TRUE(rob.empty());
  }
}

// ---------------------------------------------------------- burst sender --

class SenderTile final : public TileServices {
 public:
  /// `banks / bpt` tiles in pairs ({2, tiles / 2}): the pair peer is class 0
  /// and every other pair a class of its own, so several ports compete.
  SenderTile(StatsRegistry& stats, unsigned banks, unsigned bpt)
      : map_(banks, bpt, 256),
        topo_({2, banks / bpt / 2}, {{1, 1}, {1, 1}}),
        net_(topo_, 1, stats) {}

  /// Every third attempt finds its bank busy, so local words retry too.
  bool try_local_push(unsigned, const BankReq&) override {
    if (++local_attempts % 3 == 0) return false;
    ++local_words;
    return true;
  }
  HierNetwork& net() override { return net_; }
  const AddressMap& map() const override { return map_; }
  TileId tile_id() const override { return 0; }

  unsigned local_attempts = 0;
  unsigned local_words = 0;
  AddressMap map_;
  Topology topo_;
  HierNetwork net_;
};

struct NullSink final : RspSink {
  void deliver_rsp(const TcdmResp&, Cycle) override {}
};

TEST(BurstSenderProperty, RandomBeatsConserveWordsAndRespectTiles) {
  Xoshiro128 rng(7);
  for (unsigned trial = 0; trial < 200; ++trial) {
    StatsRegistry stats;
    const unsigned bpt = 1u << rng.next_below(4);          // 1,2,4,8
    const unsigned tiles = 4u << rng.next_below(3);        // 4,8,16
    SenderTile tile(stats, bpt * tiles, bpt);
    const unsigned ports = 1 + rng.next_below(8);
    const unsigned max_len = 1 + rng.next_below(std::min(bpt, kMaxBurstWords));
    ClusterConfig cfg;
    cfg.vlsu_ports = ports;
    cfg.burst_enabled = true;
    cfg.max_burst_len = max_len;
    BurstSender sender(cfg);
    sender.attach_stats(stats, "s");

    // One cycle as Cluster::step runs it: dispatch, the network cycle, and
    // the destination tiles popping their slave queues. Every request must
    // reach the tile that owns all of its words, within the burst length.
    NullSink sink;
    Cycle c = 0;
    unsigned remote_words = 0;
    const auto step = [&] {
      sender.dispatch(c, tile);
      tile.net_.cycle(c, sink);
      for (TileId dst = 0; dst < tiles; ++dst) {
        for (std::uint8_t cls = 0; cls < tile.topo_.num_classes(); ++cls) {
          while (!tile.net_.slave_empty(dst, cls)) {
            const TcdmReq req = tile.net_.slave_pop(dst, cls);
            EXPECT_LE(req.len, max_len);
            EXPECT_EQ(tile.map_.decode(req.addr).tile, dst);
            EXPECT_EQ(tile.map_.decode(req.addr + (req.len - 1) * kWordBytes).tile, dst);
            remote_words += req.len;
          }
        }
      }
      ++c;
    };

    // Several random unit-stride beats fully inside the address space, half
    // of them continuing the previous one (tail extension), with a cycle
    // between some of them (partially drained staging). A full staging
    // ring takes cycles until the next beat fits.
    const unsigned beats = 2 + rng.next_below(5);
    const auto words = static_cast<std::uint32_t>(tile.map_.total_bytes() / kWordBytes);
    unsigned total = 0;
    unsigned home_words = 0;
    Addr next = 0;
    for (unsigned b = 0; b < beats; ++b) {
      const unsigned n = 1 + rng.next_below(ports);
      Addr base = static_cast<Addr>(rng.next_below(words - n)) * kWordBytes;
      if (b > 0 && rng.next_below(2) == 0 && next / kWordBytes + n <= words) base = next;
      BeatRequest beat;
      beat.form = Form::kVLoad;
      for (unsigned i = 0; i < n; ++i) {
        WordAccess w;
        w.addr = base + i * kWordBytes;
        w.tag.port = static_cast<std::uint8_t>(i % ports);
        w.tag.rob_slot = static_cast<std::uint16_t>(total + i);
        beat.words.push_back(w);
        if (tile.map_.decode(w.addr).tile == 0) ++home_words;
      }
      total += n;
      next = base + n * kWordBytes;
      while (!sender.can_accept_beat()) step();
      sender.accept_beat(beat, tile.map_, tile.topo_, 0);
      if (rng.next_below(2) == 0) step();
    }
    for (const Cycle end = c + 4 * total + 8; c < end;) step();

    // Conservation: every word went somewhere exactly once.
    const double sent = stats.value("s.local_words") +
                        stats.value("s.narrow_remote_words") +
                        stats.value("s.burst_words");
    EXPECT_EQ(sent, total) << "bpt=" << bpt << " ports=" << ports << " words=" << total;
    EXPECT_EQ(tile.local_words, static_cast<unsigned>(stats.value("s.local_words")));
    EXPECT_EQ(tile.local_words, home_words);
    EXPECT_TRUE(sender.staging_empty());
    while (tile.net_.busy()) step();
    EXPECT_EQ(remote_words, total - home_words);
  }
}

// ------------------------------------------------------------ determinism --

TEST(Determinism, IdenticalRunsProduceIdenticalCyclesAndResults) {
  for (unsigned gf : {0u, 4u}) {
    const ClusterConfig cfg = test::mp4_config(gf);
    DotpKernel k1(1024, /*seed=*/9), k2(1024, /*seed=*/9);
    const KernelMetrics a = run_kernel(cfg, k1);
    const KernelMetrics b = run_kernel(cfg, k2);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_DOUBLE_EQ(a.flops, b.flops);
    EXPECT_DOUBLE_EQ(a.bytes, b.bytes);
  }
}

// ----------------------------------------------- software transparency ----

// The paper calls TCDM Burst "software-transparent": the same binary runs
// unmodified and retires elements in the same order. Floating-point results
// must therefore match the baseline bit for bit.
TEST(Transparency, BurstConfigsProduceBitIdenticalResults) {
  const unsigned h = 18, w = 34;
  std::vector<std::vector<float>> outs;
  for (unsigned mode = 0; mode < 3; ++mode) {
    ClusterConfig cfg = test::mp4_config(mode == 0 ? 0 : (mode == 1 ? 2 : 4));
    Cluster cluster(cfg);
    Jacobi2dKernel k(h, w, /*seed=*/21);
    k.setup(cluster);
    const RunOutcome rc = cluster.run(5'000'000);
    ASSERT_TRUE(rc.all_halted);
    ASSERT_TRUE(k.verify(cluster));
    // Read the full output grid back through the host backdoor. The second
    // MemLayout allocation is the output array; recompute its base the same
    // way the kernel does.
    MemLayout mem(cluster.map());
    (void)mem.alloc_words(h * w);
    const Addr out_base = mem.alloc_words(h * w);
    outs.push_back(cluster.read_block_f32(out_base, h * w));
  }
  EXPECT_TRUE(test::all_ulp_near(outs[1], outs[0], 0));
  EXPECT_TRUE(test::all_ulp_near(outs[2], outs[0], 0));
}

// ---------------------------------------------------------- store bursts --

TEST(Transparency, StoreAndStridedExtensionsAreTransparentToo) {
  const unsigned h = 10, w = 34;
  std::vector<std::vector<float>> outs;
  for (unsigned mode = 0; mode < 3; ++mode) {
    ClusterConfig cfg = test::mp4_config(4);
    if (mode == 1) cfg = cfg.with_strided_bursts();
    if (mode == 2) cfg = cfg.with_store_bursts(4);
    Cluster cluster(cfg);
    Jacobi2dKernel k(h, w, /*seed=*/22);
    k.setup(cluster);
    const RunOutcome rc = cluster.run(5'000'000);
    ASSERT_TRUE(rc.all_halted);
    ASSERT_TRUE(k.verify(cluster));
    MemLayout mem(cluster.map());
    (void)mem.alloc_words(h * w);
    const Addr out_base = mem.alloc_words(h * w);
    outs.push_back(cluster.read_block_f32(out_base, h * w));
  }
  EXPECT_TRUE(test::all_ulp_near(outs[1], outs[0], 0));
  EXPECT_TRUE(test::all_ulp_near(outs[2], outs[0], 0));
}

}  // namespace
}  // namespace tcdm
