// Tests for the burst extensions beyond the paper's evaluated design:
// strided bursts (paper future work) and store bursts with a widened
// request channel (design-space ablation). Unit level: sender coalescing
// and manager split/merge with stride; write-burst fan-out and request-
// channel occupancy. Integration level: correctness plus the performance
// directions that motivated (or, for stores, de-motivated) each feature.
#include <gtest/gtest.h>

#include <vector>

#include "src/burst/burst_manager.hpp"
#include "src/burst/burst_sender.hpp"
#include "src/kernels/probes.hpp"
#include "src/memory/spm_bank.hpp"
#include "tests/support/test_support.hpp"

namespace tcdm {
namespace {

// ----------------------------------------------------------------- sender --

using test::FakeTile;

BeatRequest strided_beat(Addr base, unsigned n, unsigned stride_words) {
  BeatRequest b;
  b.form = Form::kVLoadS;
  b.stride = static_cast<std::int32_t>(stride_words * kWordBytes);
  for (unsigned i = 0; i < n; ++i) {
    WordAccess w;
    w.addr = base + i * stride_words * kWordBytes;
    w.tag.port = static_cast<std::uint8_t>(i % 4);
    w.tag.rob_slot = static_cast<std::uint16_t>(i);
    b.words.push_back(w);
  }
  return b;
}

BeatRequest store_beat(Addr base, unsigned n) {
  BeatRequest b;
  b.form = Form::kVStore;
  for (unsigned i = 0; i < n; ++i) {
    WordAccess w;
    w.addr = base + i * kWordBytes;
    w.write = true;
    w.wdata = 1000 + i;
    w.tag.port = static_cast<std::uint8_t>(i % 4);
    b.words.push_back(w);
  }
  return b;
}

TEST(StridedBurstSender, CoalescesStride2AcrossTwoTiles) {
  StatsRegistry stats;
  FakeTile tile(stats);
  BurstSender sender(test::mp4_config(4).with_strided_bursts());
  // Elements at words 4,6,8,10: banks 4,6 (tile 1) and 8,10 (tile 2).
  sender.accept_beat(strided_beat(16, 4, 2), tile.map(), tile.topo_, 0);
  sender.dispatch(0, tile);
  EXPECT_EQ(stats.value("network.req_sent"), 2.0);  // one burst per tile
  EXPECT_EQ(stats.value("network.req_words"), 4.0);
  // Table offsets are element indices regardless of stride.
  EXPECT_EQ(sender.lookup(0, 1).rob_slot, 1u);
  sender.note_resolved(0, 2);
  sender.note_resolved(1, 2);
  EXPECT_FALSE(sender.busy());
}

TEST(StridedBurstSender, DisabledFlagFallsBackToNarrow) {
  StatsRegistry stats;
  FakeTile tile(stats);
  BurstSender sender(test::mp4_config(4));
  sender.accept_beat(strided_beat(16, 4, 2), tile.map(), tile.topo_, 0);
  for (Cycle c = 0; c < 4; ++c) {
    sender.dispatch(c, tile);
    tile.drain(c);
  }
  EXPECT_EQ(stats.value("network.req_sent"), 4.0);  // serialized narrow
}

TEST(StridedBurstSender, StrideAtTileSpanStaysNarrow) {
  StatsRegistry stats;
  FakeTile tile(stats);
  BurstSender sender(test::mp4_config(4).with_strided_bursts());
  // stride 4 == banks_per_tile: every element lands in a different tile.
  sender.accept_beat(strided_beat(16, 3, 4), tile.map(), tile.topo_, 0);
  for (Cycle c = 0; c < 4; ++c) {
    sender.dispatch(c, tile);
    tile.drain(c);
  }
  EXPECT_EQ(stats.value("network.req_sent"), 3.0);
  EXPECT_EQ(stats.value("network.req_words"), 3.0);
}

TEST(StoreBurstSender, CoalescesRemoteUnitStrideStore) {
  StatsRegistry stats;
  FakeTile tile(stats);
  BurstSender sender(test::mp4_config(4).with_store_bursts(1));
  sender.accept_beat(store_beat(16, 4), tile.map(), tile.topo_, 0);
  sender.dispatch(0, tile);
  EXPECT_EQ(stats.value("network.req_sent"), 1.0);
  EXPECT_EQ(stats.value("network.req_words"), 4.0);
  EXPECT_FALSE(sender.busy());  // write bursts hold no table entry
}

TEST(StoreBurstSender, DisabledFlagKeepsStoresNarrow) {
  StatsRegistry stats;
  FakeTile tile(stats);
  BurstSender sender(test::mp4_config(4));
  sender.accept_beat(store_beat(16, 4), tile.map(), tile.topo_, 0);
  for (Cycle c = 0; c < 4; ++c) {
    sender.dispatch(c, tile);
    tile.drain(c);
  }
  EXPECT_EQ(stats.value("network.req_sent"), 4.0);
}

TEST(StoreBurstSender, LocalStoresStayNarrowLocal) {
  StatsRegistry stats;
  FakeTile tile(stats);
  BurstSender sender(test::mp4_config(4).with_store_bursts(1));
  sender.accept_beat(store_beat(0, 4), tile.map(), tile.topo_, 0);  // tile 0 = home
  sender.dispatch(0, tile);
  EXPECT_EQ(tile.local_pushes.size(), 4u);
  EXPECT_EQ(stats.value("network.req_sent"), 0.0);
}

// ---------------------------------------------------------------- manager --

class StridedManagerTest : public ::testing::Test {
 protected:
  StridedManagerTest() : map_(16, 4, 64), beats_(stats_) {
    for (unsigned b = 0; b < 4; ++b) {
      banks_.emplace_back(64u);
      for (unsigned r = 0; r < 64; ++r) banks_[b].write_row(r, 100 * b + r);
    }
  }

  /// Byte address of (bank-in-tile, row) for tile 1 (banks 4..7).
  Addr addr_of(unsigned bank_in_tile, unsigned row) const {
    return (row * 16 + 4 + bank_in_tile) * kWordBytes;
  }

  AddressMap map_;
  std::vector<SpmBank> banks_;
  StatsRegistry stats_;
  test::BeatCollector beats_;
};

TEST_F(StridedManagerTest, Gf4MergesStride2PairsIntoOneBeat) {
  BurstManager bm(4, kMaxGroupingFactor, map_, 1);
  TcdmReq req;
  req.addr = addr_of(0, 5);
  req.len = 2;
  req.stride = 2;  // banks 0 and 2 of the tile — same GF4 segment
  req.src_tile = 3;
  req.tag.id = 9;
  ASSERT_TRUE(bm.try_accept(req));
  bm.issue(banks_);
  for (unsigned b : {0u, 2u}) {
    banks_[b].cycle();
    ASSERT_TRUE(banks_[b].resp_ready());
    const BankResp r = banks_[b].resp_pop();
    bm.fill(r.route, r.data);
  }
  const std::vector<TcdmResp> out = beats_.step(bm);
  ASSERT_EQ(out.size(), 1u);
  const TcdmResp& beat = out[0];
  EXPECT_EQ(beat.num_words, 2u);
  EXPECT_EQ(beat.data[0], 100u * 0 + 5);  // element 0: bank 0 row 5
  EXPECT_EQ(beat.data[1], 100u * 2 + 5);  // element 1: bank 2 row 5
  EXPECT_FALSE(bm.busy());
}

TEST_F(StridedManagerTest, Gf2DegradesStride2ToOneWordBeats) {
  BurstManager bm(2, kMaxGroupingFactor, map_, 1);
  TcdmReq req;
  req.addr = addr_of(0, 3);
  req.len = 2;
  req.stride = 2;  // banks 0 and 2 are in different GF2 segments
  ASSERT_TRUE(bm.try_accept(req));
  bm.issue(banks_);
  for (unsigned b : {0u, 2u}) {
    banks_[b].cycle();
    const BankResp r = banks_[b].resp_pop();
    bm.fill(r.route, r.data);
  }
  const std::vector<TcdmResp> out = beats_.step(bm);
  EXPECT_EQ(out.size(), 2u);
  for (const TcdmResp& beat : out) EXPECT_EQ(beat.num_words, 1u);
}

TEST_F(StridedManagerTest, WriteBurstFansOutAndWritesBanks) {
  BurstManager bm(4, kMaxGroupingFactor, map_, 1);
  TcdmReq req;
  req.addr = addr_of(0, 7);
  req.len = 4;
  req.write = true;
  req.src_tile = 2;
  req.tag.owner = ReqOwner::kBurst;
  for (unsigned i = 0; i < 4; ++i) req.burst_wdata[i] = 7000 + i;
  ASSERT_TRUE(bm.try_accept(req));
  bm.issue(banks_);
  EXPECT_FALSE(bm.busy());  // no merge slots held for writes
  for (unsigned b = 0; b < 4; ++b) {
    banks_[b].cycle();
    ASSERT_TRUE(banks_[b].resp_ready());
    const BankResp r = banks_[b].resp_pop();
    EXPECT_EQ(r.route.kind, RouteKind::kRemoteNarrow);
    EXPECT_TRUE(r.route.write);
    EXPECT_EQ(r.route.src_tile, 2u);
    EXPECT_EQ(banks_[b].read_row(7), 7000 + b);
  }
}

// ---------------------------------------------------------------- network --

TEST(StoreBurstNetwork, PayloadHoldsRequestPort) {
  StatsRegistry stats;
  Topology topo({1, 4}, {{1, 1}, {1, 1}});
  HierNetwork net(topo, /*req_grouping_factor=*/2, stats);
  TcdmReq req;
  req.addr = 4 * kWordBytes;  // tile 1
  req.len = 4;
  req.write = true;
  const std::uint8_t cls = topo.class_of(0, 1);
  ASSERT_TRUE(net.can_send_req(0, cls, 0));
  net.send_req(0, 1, req, 0);
  // 4 words at 2 words/cycle: the port is busy at cycle 1, free at 2.
  EXPECT_FALSE(net.can_send_req(0, cls, 1));
  EXPECT_TRUE(net.can_send_req(0, cls, 2));
}

TEST(StoreBurstNetwork, ReadBurstIsSingleHeaderBeat) {
  StatsRegistry stats;
  Topology topo({1, 4}, {{1, 1}, {1, 1}});
  HierNetwork net(topo, 1, stats);
  TcdmReq req;
  req.addr = 4 * kWordBytes;
  req.len = 4;  // read burst
  const std::uint8_t cls = topo.class_of(0, 1);
  net.send_req(0, 1, req, 0);
  EXPECT_TRUE(net.can_send_req(0, cls, 1));  // free next cycle
}

// ------------------------------------------------------------ integration --

using test::mp4_config;
using test::run_capped;

TEST(StridedBurstCluster, StridedCopyVerifiesEverywhere) {
  for (unsigned stride : {1u, 2u, 3u, 4u, 8u}) {
    for (int mode = 0; mode < 3; ++mode) {
      ClusterConfig cfg = ClusterConfig::mp4spatz4();
      if (mode >= 1) cfg = cfg.with_burst(4);
      if (mode == 2) cfg = cfg.with_strided_bursts();
      StridedCopyKernel k(512, stride);
      const KernelMetrics m = run_capped(cfg, k);
      EXPECT_KERNEL_OK(m) << "stride=" << stride;
    }
  }
}

TEST(StridedBurstCluster, Stride2TrafficSpeedsUpWithExtension) {
  StridedCopyKernel k1(2048, 2), k2(2048, 2);
  const KernelMetrics plain = run_capped(mp4_config(4), k1);
  const KernelMetrics ext =
      run_capped(mp4_config(4).with_strided_bursts(), k2);
  ASSERT_KERNEL_OK(plain);
  ASSERT_KERNEL_OK(ext);
  // Stride-2 loads serialize narrowly without the extension; with it they
  // coalesce into 2-element bursts (pairs per tile).
  EXPECT_LT(ext.cycles, 0.8 * plain.cycles)
      << "plain=" << plain.cycles << " ext=" << ext.cycles;
}

TEST(StridedBurstCluster, TileSpanStrideGainsNothing) {
  // stride == banks_per_tile: every element in a different tile, runs of 1.
  StridedCopyKernel k1(1024, 4), k2(1024, 4);
  const KernelMetrics plain = run_capped(mp4_config(4), k1);
  const KernelMetrics ext =
      run_capped(mp4_config(4).with_strided_bursts(), k2);
  ASSERT_KERNEL_OK(plain);
  ASSERT_KERNEL_OK(ext);
  const double ratio = static_cast<double>(ext.cycles) / plain.cycles;
  EXPECT_NEAR(ratio, 1.0, 0.05);
}

TEST(StoreBurstCluster, MemcpyVerifiesWithStoreBursts) {
  for (unsigned req_gf : {1u, 2u, 4u}) {
    MemcpyKernel k(2048);
    const KernelMetrics m =
        run_capped(mp4_config(4).with_store_bursts(req_gf), k);
    EXPECT_KERNEL_OK(m) << "req_gf=" << req_gf;
  }
}

TEST(StoreBurstCluster, NarrowRequestChannelGainsLittle) {
  // The paper's §II-C rationale: with the unmodified (1-word) request
  // channel a store burst still streams its payload word by word, so
  // performance stays close to narrow stores.
  MemcpyKernel k1(4096), k2(4096);
  const KernelMetrics off = run_capped(mp4_config(4), k1);
  const KernelMetrics st1 =
      run_capped(mp4_config(4).with_store_bursts(1), k2);
  ASSERT_KERNEL_OK(off);
  ASSERT_KERNEL_OK(st1);
  const double ratio = static_cast<double>(st1.cycles) / off.cycles;
  EXPECT_NEAR(ratio, 1.0, 0.10);
}

TEST(StoreBurstCluster, WidenedRequestChannelSpeedsUpMemcpy) {
  MemcpyKernel k1(4096), k2(4096);
  const KernelMetrics off = run_capped(mp4_config(4), k1);
  const KernelMetrics st4 =
      run_capped(mp4_config(4).with_store_bursts(4), k2);
  ASSERT_KERNEL_OK(off);
  ASSERT_KERNEL_OK(st4);
  EXPECT_LT(st4.cycles, 0.85 * off.cycles)
      << "off=" << off.cycles << " st4=" << st4.cycles;
}

// ------------------------------------------------------------ validation --

TEST(ExtensionConfig, TransformsRequireBurstMode) {
  EXPECT_THROW((void)ClusterConfig::mp4spatz4().with_strided_bursts(),
               std::invalid_argument);
  EXPECT_THROW((void)ClusterConfig::mp4spatz4().with_store_bursts(2),
               std::invalid_argument);
}

TEST(ExtensionConfig, ValidateRejectsInconsistentFlags) {
  ClusterConfig c = ClusterConfig::mp4spatz4();
  c.strided_bursts = true;  // without burst_enabled
  EXPECT_THROW(c.validate(), std::invalid_argument);

  ClusterConfig d = ClusterConfig::mp4spatz4().with_burst(4);
  d.req_grouping_factor = 2;  // widened channel without store bursts
  EXPECT_THROW(d.validate(), std::invalid_argument);

  ClusterConfig e = ClusterConfig::mp4spatz4().with_burst(4).with_store_bursts(32);
  EXPECT_THROW(e.validate(), std::invalid_argument);  // req_gf out of range
}

TEST(ExtensionConfig, NamesEncodeTheVariant) {
  EXPECT_EQ(ClusterConfig::mp4spatz4().with_burst(4).with_strided_bursts().name,
            "mp4spatz4-gf4-sb");
  EXPECT_EQ(ClusterConfig::mp4spatz4().with_burst(2).with_store_bursts(2).name,
            "mp4spatz4-gf2-st2");
}

}  // namespace
}  // namespace tcdm
