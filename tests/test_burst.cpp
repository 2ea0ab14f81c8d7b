// Burst machinery unit tests: Burst Sender coalescing rules and table
// bookkeeping; Burst Manager split/merge with GF segments and backpressure.
#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <vector>

#include "src/burst/burst_manager.hpp"
#include "src/burst/burst_sender.hpp"
#include "tests/support/test_support.hpp"

namespace tcdm {
namespace {

// ---------------------------------------------------------------- manager --

class BurstManagerTest : public ::testing::Test {
 protected:
  BurstManagerTest()
      : map_(test::small_address_map()),
        bm_(BurstManagerConfig{.grouping_factor = 4, .merge_slots = 8}, map_, 1),
        banks_(test::patterned_banks()) {}

  /// Byte address of (bank-in-tile, row) for tile 1.
  Addr addr_of(unsigned bank_in_tile, unsigned row) const {
    return (row * 16 + 4 + bank_in_tile) * kWordBytes;  // tile 1 = banks 4..7
  }

  AddressMap map_;
  BurstManager bm_;
  std::vector<SpmBank> banks_;
};

TEST_F(BurstManagerTest, SplitsBurstAcrossBanksAndMergesOneBeat) {
  TcdmReq req;
  req.addr = addr_of(0, 5);
  req.len = 4;
  req.src_tile = 3;
  req.tag.owner = ReqOwner::kBurst;
  req.tag.id = 7;
  ASSERT_TRUE(bm_.try_accept(req));
  bm_.issue(banks_);
  // All four banks received one request in the same cycle.
  for (unsigned b = 0; b < 4; ++b) {
    banks_[b].cycle();
    ASSERT_TRUE(banks_[b].resp_ready());
    const BankResp r = banks_[b].resp_pop();
    EXPECT_EQ(r.route.kind, RouteKind::kBurstSegment);
    bm_.fill(r.route, r.data);
  }
  const auto slot = bm_.next_ready_slot();
  ASSERT_TRUE(slot.has_value());
  EXPECT_EQ(bm_.slot_requester(*slot), 3u);
  const TcdmResp beat = bm_.take_beat(*slot);
  EXPECT_EQ(beat.num_words, 4u);
  EXPECT_EQ(beat.tag.id, 7u);
  EXPECT_EQ(beat.tag.word_offset, 0u);
  for (unsigned w = 0; w < 4; ++w) EXPECT_EQ(beat.data[w], 100 * w + 5);
  EXPECT_FALSE(bm_.busy());
}

TEST_F(BurstManagerTest, Gf2ProducesTwoBeats) {
  BurstManager bm2(BurstManagerConfig{.grouping_factor = 2, .merge_slots = 8}, map_, 1);
  TcdmReq req;
  req.addr = addr_of(0, 9);
  req.len = 4;
  req.src_tile = 2;
  req.tag.id = 1;
  ASSERT_TRUE(bm2.try_accept(req));
  bm2.issue(banks_);
  for (unsigned b = 0; b < 4; ++b) {
    banks_[b].cycle();
    const BankResp r = banks_[b].resp_pop();
    bm2.fill(r.route, r.data);
  }
  unsigned beats = 0;
  unsigned words = 0;
  while (const auto s = bm2.next_ready_slot()) {
    const TcdmResp beat = bm2.take_beat(*s);
    EXPECT_EQ(beat.num_words, 2u);
    words += beat.num_words;
    ++beats;
  }
  EXPECT_EQ(beats, 2u);
  EXPECT_EQ(words, 4u);
}

TEST_F(BurstManagerTest, UnalignedBurstSpansSegments) {
  // Burst of 3 starting at bank 1 with GF2: segments [1], [2,3].
  BurstManager bm2(BurstManagerConfig{.grouping_factor = 2, .merge_slots = 8}, map_, 1);
  TcdmReq req;
  req.addr = addr_of(1, 0);
  req.len = 3;
  req.src_tile = 0;
  ASSERT_TRUE(bm2.try_accept(req));
  bm2.issue(banks_);
  for (unsigned b = 1; b <= 3; ++b) {
    banks_[b].cycle();
    const BankResp r = banks_[b].resp_pop();
    bm2.fill(r.route, r.data);
  }
  std::vector<unsigned> beat_sizes;
  while (const auto s = bm2.next_ready_slot()) {
    beat_sizes.push_back(bm2.take_beat(*s).num_words);
  }
  std::sort(beat_sizes.begin(), beat_sizes.end());
  EXPECT_EQ(beat_sizes, (std::vector<unsigned>{1, 2}));
}

TEST_F(BurstManagerTest, FifoBackpressureWhenFull) {
  TcdmReq req;
  req.addr = addr_of(0, 0);
  req.len = 4;
  for (unsigned i = 0; i < 4; ++i) EXPECT_TRUE(bm_.try_accept(req));
  EXPECT_FALSE(bm_.try_accept(req));  // FIFO depth 4
}

TEST_F(BurstManagerTest, StalledBankRetriesNextCycle) {
  // Pre-fill bank 2's input queue so the burst cannot fully issue.
  BankReq filler;
  filler.row = 0;
  ASSERT_TRUE(banks_[2].try_push(filler));
  ASSERT_TRUE(banks_[2].try_push(filler));
  TcdmReq req;
  req.addr = addr_of(0, 1);
  req.len = 4;
  ASSERT_TRUE(bm_.try_accept(req));
  bm_.issue(banks_);    // words 0,1 issue; word 2 blocked
  EXPECT_TRUE(bm_.busy());
  banks_[2].cycle();    // frees a slot
  (void)banks_[2].resp_pop();
  bm_.issue(banks_);    // words 2,3 issue now
  banks_[2].cycle();
  (void)banks_[2].resp_pop();  // filler
  // The burst's four bank requests eventually all arrive.
  unsigned burst_words = 0;
  for (unsigned b = 0; b < 4; ++b) {
    for (unsigned k = 0; k < 4; ++k) {
      banks_[b].cycle();
      if (banks_[b].resp_ready()) {
        const BankResp r = banks_[b].resp_pop();
        if (r.route.kind == RouteKind::kBurstSegment) {
          bm_.fill(r.route, r.data);
          ++burst_words;
        }
      }
    }
  }
  EXPECT_EQ(burst_words, 4u);
  EXPECT_TRUE(bm_.next_ready_slot().has_value());
}

// ----------------------------------------------------------------- sender --

class FakeTile final : public TileServices {
 public:
  FakeTile(StatsRegistry& stats)
      : map_(test::small_address_map()),
        topo_(test::flat4_topology()),
        // Deep master FIFOs: these tests dispatch without running the
        // network cycle that would normally drain the ports.
        net_(topo_, NetworkConfig{.master_extra_slots = 8}, stats) {}

  bool try_local_push(unsigned bank, const BankReq& req) override {
    local_pushes.push_back({bank, req});
    return accept_local;
  }
  HierNetwork& net() override { return net_; }
  const AddressMap& map() const override { return map_; }
  TileId tile_id() const override { return 0; }

  std::vector<std::pair<unsigned, BankReq>> local_pushes;
  bool accept_local = true;
  AddressMap map_;
  Topology topo_;
  HierNetwork net_;
};

BeatRequest unit_beat(Addr base, unsigned n, bool load = true) {
  BeatRequest b;
  b.unit_stride_load = load;
  for (unsigned i = 0; i < n; ++i) {
    WordRequest w;
    w.addr = base + i * kWordBytes;
    w.port = static_cast<std::uint8_t>(i % 4);
    w.rob_slot = static_cast<std::uint16_t>(i);
    w.write = !load;
    b.words.push_back(w);
  }
  return b;
}

TEST(BurstSender, CoalescesRemoteUnitStrideLoad) {
  StatsRegistry stats;
  FakeTile tile(stats);
  BurstSender sender({.enable_bursts = true, .max_burst_len = 4}, 4);
  // Tile 1's words: addresses 16..31 bytes (banks 4..7).
  ASSERT_TRUE(sender.accept_beat(unit_beat(16, 4), tile.map(), tile.topo_, 0));
  sender.dispatch(0, tile);
  EXPECT_TRUE(tile.local_pushes.empty());
  EXPECT_EQ(stats.value("network.req_sent"), 1.0);   // one burst request
  EXPECT_EQ(stats.value("network.req_words"), 4.0);  // carrying 4 words
  // Burst table resolves ports/slots by word offset.
  EXPECT_EQ(sender.lookup(0, 2).port, 2u);
  EXPECT_EQ(sender.lookup(0, 2).rob_slot, 2u);
  sender.note_resolved(0, 4);
  EXPECT_FALSE(sender.busy());
}

TEST(BurstSender, LocalBeatsBypassTheNetwork) {
  StatsRegistry stats;
  FakeTile tile(stats);
  BurstSender sender({.enable_bursts = true, .max_burst_len = 4}, 4);
  ASSERT_TRUE(sender.accept_beat(unit_beat(0, 4), tile.map(), tile.topo_, 0));  // tile 0
  sender.dispatch(0, tile);
  EXPECT_EQ(tile.local_pushes.size(), 4u);
  EXPECT_EQ(stats.value("network.req_sent"), 0.0);
}

TEST(BurstSender, DisabledModeSendsNarrow) {
  StatsRegistry stats;
  FakeTile tile(stats);
  BurstSender sender({.enable_bursts = false}, 4);
  ASSERT_TRUE(sender.accept_beat(unit_beat(16, 4), tile.map(), tile.topo_, 0));
  sender.dispatch(0, tile);   // class port limits to 1/cycle
  sender.dispatch(1, tile);
  sender.dispatch(2, tile);
  sender.dispatch(3, tile);
  EXPECT_EQ(stats.value("network.req_sent"), 4.0);  // serialized narrow words
  EXPECT_EQ(stats.value("network.req_words"), 4.0);
}

TEST(BurstSender, StoresNeverBurst) {
  StatsRegistry stats;
  FakeTile tile(stats);
  BurstSender sender({.enable_bursts = true, .max_burst_len = 4}, 4);
  BeatRequest b = unit_beat(16, 4, /*load=*/false);
  b.unit_stride_load = false;  // stores are not burst-eligible
  ASSERT_TRUE(sender.accept_beat(b, tile.map(), tile.topo_, 0));
  for (Cycle c = 0; c < 4; ++c) sender.dispatch(c, tile);
  EXPECT_EQ(stats.value("network.req_sent"), 4.0);
}

TEST(BurstSender, SplitsAtTileBoundary) {
  StatsRegistry stats;
  FakeTile tile(stats);
  BurstSender sender({.enable_bursts = true, .max_burst_len = 4}, 4);
  // Words 6..9 span tile 1 (banks 6,7) and tile 2 (banks 8,9).
  ASSERT_TRUE(sender.accept_beat(unit_beat(24, 4), tile.map(), tile.topo_, 0));
  sender.dispatch(0, tile);
  // Two bursts of two words each; distinct classes -> both sent in cycle 0.
  EXPECT_EQ(stats.value("network.req_sent"), 2.0);
  EXPECT_EQ(stats.value("network.req_words"), 4.0);
}

TEST(BurstSender, ExtendsTailAcrossBeats) {
  StatsRegistry stats;
  FakeTile tile(stats);
  // Allow 8-word bursts (banks_per_tile is 4 in FakeTile, so use a map with
  // 8 banks/tile to permit extension).
  BurstSender sender({.enable_bursts = true, .max_burst_len = 8}, 4);
  AddressMap map8(16, 8, 64);
  // Tile 1 = banks 8..15 -> words 8..15. Two contiguous 4-word beats.
  ASSERT_TRUE(sender.accept_beat(unit_beat(32, 4), map8, tile.topo_, 0));
  ASSERT_TRUE(sender.accept_beat(unit_beat(48, 4), map8, tile.topo_, 0));
  sender.dispatch(0, tile);  // FakeTile's own map differs; only count sends
  EXPECT_EQ(stats.value("network.req_sent"), 1.0);
  EXPECT_EQ(stats.value("network.req_words"), 8.0);
  EXPECT_EQ(sender.lookup(0, 7).rob_slot, 3u);  // second beat's slots appended
}

TEST(BurstSender, TableExhaustionDegradesToNarrow) {
  StatsRegistry stats;
  FakeTile tile(stats);
  BurstSender sender({.enable_bursts = true, .max_burst_len = 4, .table_size = 1,
                      .staging_beats = 8},
                     4);
  ASSERT_TRUE(sender.accept_beat(unit_beat(16, 4), tile.map(), tile.topo_, 0));  // takes the entry
  ASSERT_TRUE(sender.accept_beat(unit_beat(32, 4), tile.map(), tile.topo_, 0));  // degrades
  for (Cycle c = 0; c < 8; ++c) sender.dispatch(c, tile);
  EXPECT_EQ(stats.value("network.req_sent"), 5.0);  // 1 burst + 4 narrow
}

// ------------------------------------------------- dispatch semantics --
// FakeTile's {1, 4} topology gives home tile 0 one class port per peer:
// tile 1 -> class 1 (bytes 16..31 of each row), tile 2 -> class 2 (32..47),
// tile 3 -> class 3 (48..63); bytes 0..15 are tile 0's own banks.

/// A narrow (not burst-eligible) beat over arbitrary word addresses.
BeatRequest narrow_beat(std::initializer_list<Addr> addrs) {
  BeatRequest b;
  std::uint16_t slot = 0;
  for (const Addr a : addrs) {
    WordRequest w;
    w.addr = a;
    w.port = static_cast<std::uint8_t>(slot % 4);
    w.rob_slot = slot++;
    b.words.push_back(w);
  }
  return b;
}

/// Occupy home tile 0's class port `cls` for cycle `now`.
void block_class(FakeTile& tile, std::uint8_t cls, Cycle now) {
  TcdmReq r;
  r.addr = 16 * cls;  // first word of tile `cls`
  r.src_tile = 0;
  tile.net_.send_req(0, cls, r, now);
}

struct NullSink final : RspSink {
  void deliver_rsp(const TcdmResp&, Cycle) override {}
};

/// Run the network until idle and return, per destination tile, the
/// addresses of the requests that reached it, in arrival order.
std::vector<std::vector<Addr>> drain_requests(FakeTile& tile, Cycle from) {
  std::vector<std::vector<Addr>> got(tile.topo_.num_tiles());
  NullSink sink;
  for (Cycle c = from; c < from + 64; ++c) {
    tile.net_.cycle(c, sink);
    for (TileId dst = 0; dst < tile.topo_.num_tiles(); ++dst) {
      for (std::uint8_t cls = 0; cls < tile.topo_.num_classes(); ++cls) {
        while (!tile.net_.slave_empty(dst, cls)) {
          got[dst].push_back(tile.net_.slave_pop(dst, cls).addr);
        }
      }
    }
  }
  return got;
}

TEST(BurstSenderDispatch, BlockedClassDoesNotStopLaterItems) {
  StatsRegistry stats;
  FakeTile tile(stats);
  BurstSender sender({}, 4);
  sender.attach_stats(stats, "s");
  // Class 1 first, then a local word, then a class-2 word.
  ASSERT_TRUE(sender.accept_beat(narrow_beat({16, 20, 0, 32}), tile.map(), tile.topo_, 0));
  block_class(tile, 1, 0);
  sender.dispatch(0, tile);
  EXPECT_EQ(tile.local_pushes.size(), 1u);  // the local word went past class 1
  EXPECT_EQ(stats.value("s.narrow_remote_words"), 1.0);  // and so did class 2
  EXPECT_FALSE(tile.net_.can_send_req(0, 2, 0));
  EXPECT_FALSE(sender.staging_empty());
  sender.dispatch(1, tile);  // class 1 reopens: its first word goes
  sender.dispatch(2, tile);
  EXPECT_TRUE(sender.staging_empty());
  EXPECT_EQ(stats.value("s.narrow_remote_words"), 3.0);
}

TEST(BurstSenderDispatch, AtMostOneRequestPerClassPortPerCycle) {
  StatsRegistry stats;
  FakeTile tile(stats);
  BurstSender sender({.staging_beats = 8}, 4);
  ASSERT_TRUE(sender.accept_beat(narrow_beat({16, 20, 32, 24}), tile.map(), tile.topo_, 0));
  ASSERT_TRUE(sender.accept_beat(narrow_beat({36, 48, 52, 28}), tile.map(), tile.topo_, 0));
  ASSERT_TRUE(sender.accept_beat(narrow_beat({40, 56, 4, 44}), tile.map(), tile.topo_, 0));
  // Staged per class: class 1 x4, class 2 x4, class 3 x3 (+1 local word).
  Cycle c = 0;
  for (; c < 16 && !sender.staging_empty(); ++c) {
    const double before = stats.value("network.req_sent");
    sender.dispatch(c, tile);
    unsigned ports_used = 0;
    for (std::uint8_t cls = 1; cls < 4; ++cls) {
      ports_used += tile.net_.can_send_req(0, cls, c) ? 0 : 1;
    }
    EXPECT_EQ(stats.value("network.req_sent") - before, ports_used) << "cycle " << c;
  }
  EXPECT_TRUE(sender.staging_empty());
  EXPECT_EQ(c, 4u);  // four words per busiest class, one per cycle
  EXPECT_EQ(stats.value("network.req_sent"), 11.0);
}

TEST(BurstSenderDispatch, RequestsLeaveEachClassPortInStagingOrder) {
  StatsRegistry stats;
  FakeTile tile(stats);
  BurstSender sender({.staging_beats = 8}, 4);
  ASSERT_TRUE(sender.accept_beat(narrow_beat({28, 32, 20, 52}), tile.map(), tile.topo_, 0));
  ASSERT_TRUE(sender.accept_beat(narrow_beat({44, 16, 48, 36}), tile.map(), tile.topo_, 0));
  ASSERT_TRUE(sender.accept_beat(narrow_beat({24, 60, 40, 8}), tile.map(), tile.topo_, 0));
  block_class(tile, 2, 0);  // one class starts a cycle late
  Cycle c = 0;
  for (; c < 16 && !sender.staging_empty(); ++c) sender.dispatch(c, tile);
  ASSERT_TRUE(sender.staging_empty());
  const auto got = drain_requests(tile, 0);
  EXPECT_EQ(got[1], (std::vector<Addr>{28, 20, 16, 24}));
  EXPECT_EQ(got[2], (std::vector<Addr>{32, 32, 44, 36, 40}));  // after the blocker
  EXPECT_EQ(got[3], (std::vector<Addr>{52, 48, 60}));
}

TEST(BurstSenderDispatch, PartialDispatchExtendsTheLastUnsentBurst) {
  StatsRegistry stats;
  FakeTile tile(stats);
  BurstSender sender({.enable_bursts = true, .max_burst_len = 8}, 4);
  sender.attach_stats(stats, "s");
  // 8 banks per tile: tile 1 holds bytes 32..63 of each 64-byte row.
  AddressMap map8(16, 8, 64);
  ASSERT_TRUE(sender.accept_beat(unit_beat(32, 4), map8, tile.topo_, 0));  // burst A, row 0
  ASSERT_TRUE(sender.accept_beat(unit_beat(96, 4), map8, tile.topo_, 0));  // burst B, row 1
  ASSERT_TRUE(sender.accept_beat(unit_beat(0, 4), map8, tile.topo_, 0));   // 4 local words
  // Class 1 refuses A (and so skips B); the local words behind them go,
  // which leaves the staging ring's youngest slot to burst B.
  block_class(tile, 1, 0);
  sender.dispatch(0, tile);
  EXPECT_EQ(tile.local_pushes.size(), 4u);
  EXPECT_EQ(stats.value("s.bursts_sent"), 0.0);
  // The next beat continues B and must grow it, not start a new burst.
  ASSERT_TRUE(sender.accept_beat(unit_beat(112, 4), map8, tile.topo_, 0));
  sender.dispatch(1, tile);  // A
  sender.dispatch(2, tile);  // B, now 8 words long
  EXPECT_TRUE(sender.staging_empty());
  EXPECT_EQ(stats.value("s.bursts_sent"), 2.0);
  EXPECT_EQ(stats.value("s.burst_words"), 12.0);
  EXPECT_EQ(sender.lookup(1, 7).rob_slot, 3u);  // B's table entry holds the new beat
  const auto got = drain_requests(tile, 0);
  EXPECT_EQ(got[1], (std::vector<Addr>{16, 32, 96}));  // blocker, A, B
}

}  // namespace
}  // namespace tcdm
