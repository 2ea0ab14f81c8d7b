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
        bm_(4, kMaxGroupingFactor, map_, 1),
        banks_(test::patterned_banks()),
        beats_(stats_) {}

  /// Byte address of (bank-in-tile, row) for tile 1.
  Addr addr_of(unsigned bank_in_tile, unsigned row) const {
    return (row * 16 + 4 + bank_in_tile) * kWordBytes;  // tile 1 = banks 4..7
  }

  AddressMap map_;
  BurstManager bm_;
  std::vector<SpmBank> banks_;
  StatsRegistry stats_;
  test::BeatCollector beats_;
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
  const std::vector<TcdmResp> out = beats_.step(bm_);
  ASSERT_EQ(out.size(), 1u);
  const TcdmResp& beat = out[0];
  EXPECT_EQ(beat.dst_tile, 3u);
  EXPECT_EQ(beat.num_words, 4u);
  EXPECT_EQ(beat.tag.id, 7u);
  EXPECT_EQ(beat.tag.word_offset, 0u);
  for (unsigned w = 0; w < 4; ++w) EXPECT_EQ(beat.data[w], 100 * w + 5);
  EXPECT_FALSE(bm_.busy());
}

TEST_F(BurstManagerTest, Gf2ProducesTwoBeats) {
  BurstManager bm2(2, kMaxGroupingFactor, map_, 1);
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
  const std::vector<TcdmResp> out = beats_.step(bm2);
  EXPECT_EQ(out.size(), 2u);
  for (const TcdmResp& beat : out) EXPECT_EQ(beat.num_words, 2u);
}

TEST_F(BurstManagerTest, UnalignedBurstSpansSegments) {
  // Burst of 3 starting at bank 1 with GF2: segments [1], [2,3].
  BurstManager bm2(2, kMaxGroupingFactor, map_, 1);
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
  for (const TcdmResp& beat : beats_.step(bm2)) beat_sizes.push_back(beat.num_words);
  std::sort(beat_sizes.begin(), beat_sizes.end());
  EXPECT_EQ(beat_sizes, (std::vector<unsigned>{1, 2}));
}

TEST_F(BurstManagerTest, FifoBackpressureWhenFull) {
  TcdmReq req;
  req.addr = addr_of(0, 0);
  req.len = 4;
  for (unsigned i = 0; i < BurstManager::kFifoDepth; ++i) EXPECT_TRUE(bm_.try_accept(req));
  EXPECT_FALSE(bm_.try_accept(req));
}

TEST_F(BurstManagerTest, MergeSlotExhaustionStallsIssue) {
  // Each aligned 4-word burst fills one GF4 merge slot. Fill every slot and
  // take no beat: the slots stay ready and hold their data.
  const auto issue_and_fill = [&](Addr addr) {
    TcdmReq req;
    req.addr = addr;
    req.len = 4;
    ASSERT_TRUE(bm_.try_accept(req));
    bm_.issue(banks_);
    for (unsigned b = 0; b < 4; ++b) {
      banks_[b].cycle();
      ASSERT_TRUE(banks_[b].resp_ready());
      const BankResp r = banks_[b].resp_pop();
      bm_.fill(r.route, r.data);
    }
  };
  for (unsigned i = 0; i < BurstManager::kMergeSlots; ++i) issue_and_fill(addr_of(0, i));

  // The next burst finds no free slot: no bank sees a request.
  TcdmReq req;
  req.addr = addr_of(0, BurstManager::kMergeSlots);
  req.len = 4;
  ASSERT_TRUE(bm_.try_accept(req));
  for (int attempt = 0; attempt < 3; ++attempt) {
    bm_.issue(banks_);
    for (unsigned b = 0; b < 4; ++b) EXPECT_FALSE(banks_[b].has_request()) << "bank " << b;
  }
  EXPECT_TRUE(bm_.busy());

  // Every slot's beat returns to tile 0, whose class port takes one beat a
  // cycle: emitting one frees its slot, and the stalled burst issues.
  bm_.emit_beats(beats_.net_, 0);
  EXPECT_EQ(stats_.value("network.rsp_beats"), 1.0);
  bm_.issue(banks_);
  for (unsigned b = 0; b < 4; ++b) EXPECT_TRUE(banks_[b].has_request()) << "bank " << b;
  // The other slots kept their beats: all of them leave, one a cycle.
  beats_.now = 1;
  EXPECT_EQ(beats_.step(bm_).size(), BurstManager::kMergeSlots);
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
  EXPECT_EQ(beats_.step(bm_).size(), 1u);
}

TEST(BurstManagerEmission, BusyClassPortDefersOnlyItsOwnSlots) {
  // GF2 manager at tile 1. Five 4-word bursts fill ten merge slots, two
  // beats each, for requesters in two response classes: tile 0 (bursts
  // 0, 2, 4) and tile 2 (bursts 21, 23).
  const AddressMap map = test::small_address_map();
  std::vector<SpmBank> banks = test::patterned_banks();
  BurstManager bm(2, kMaxGroupingFactor, map, 1);
  StatsRegistry stats;
  bm.attach_stats(stats, "bm");
  test::BeatCollector beats(stats);
  const TileId requester[] = {0, 2, 0, 2, 0};
  for (unsigned k = 0; k < 5; ++k) {
    TcdmReq req;
    req.addr = (k * 16 + 4) * kWordBytes;  // tile 1, bank 0, row k
    req.len = 4;
    req.src_tile = requester[k];
    req.tag.owner = ReqOwner::kBurst;
    req.tag.id = 10 * requester[k] + k;
    ASSERT_TRUE(bm.try_accept(req));
    bm.issue(banks);
    for (unsigned b = 0; b < 4; ++b) {
      banks[b].cycle();
      const BankResp r = banks[b].resp_pop();
      bm.fill(r.route, r.data);
    }
  }

  // Tile 0's class port already carries a beat at cycle 0: that cycle's
  // emission sends one beat to tile 2 and leaves tile 0's slots ready.
  TcdmResp blocker;
  blocker.dst_tile = 0;
  blocker.tag.id = 99;
  beats.net_.send_rsp(1, blocker, 0);
  bm.emit_beats(beats.net_, 0);
  EXPECT_EQ(stats.value("bm.beats_merged"), 1.0);
  EXPECT_EQ(stats.value("network.rsp_beats"), 2.0);
  EXPECT_TRUE(bm.busy());

  // Then both ports fill while the network stands still for three cycles,
  // so whole emission calls find every class busy and only advance the
  // slot rotation. Recorded as (cycle, requester, burst id, word offset)
  // from the tile-side emission loop this call replaced.
  struct Delivered {
    Cycle at;
    TileId dst;
    std::uint32_t id;
    unsigned offset;
    bool operator==(const Delivered&) const = default;
  };
  std::vector<Delivered> got;
  struct Sink final : RspSink {
    std::vector<Delivered>* got;
    void deliver_rsp(const TcdmResp& r, Cycle now) override {
      got->push_back({now, r.dst_tile, r.tag.id, r.tag.word_offset});
    }
  } sink;
  sink.got = &got;
  beats.net_.cycle(0, sink);
  for (Cycle c = 1; c < 16; ++c) {
    bm.emit_beats(beats.net_, c);
    if (c < 2 || c > 4) beats.net_.cycle(c, sink);
  }
  const std::vector<Delivered> expected = {
      {1, 0, 99, 0}, {1, 2, 21, 0}, {5, 0, 0, 0}, {5, 2, 21, 2}, {6, 0, 4, 2}, {6, 2, 23, 0},
      {7, 0, 2, 2},  {7, 2, 23, 2}, {8, 0, 0, 2}, {9, 0, 4, 0},  {10, 0, 2, 0}};
  EXPECT_EQ(got, expected);
  EXPECT_FALSE(bm.busy());
}

// ----------------------------------------------------------------- sender --

using test::FakeTile;

/// MP4Spatz4 (K = 4) with TCDM Burst at GF4 and bursts of up to `max_len`
/// words; test::mp4_config(0) is its narrow baseline.
ClusterConfig bursting(unsigned max_len = 4) {
  ClusterConfig cfg = test::mp4_config(4);
  cfg.max_burst_len = max_len;
  return cfg;
}

BeatRequest unit_beat(Addr base, unsigned n, bool load = true) {
  BeatRequest b;
  b.form = load ? Form::kVLoad : Form::kVStore;
  for (unsigned i = 0; i < n; ++i) {
    WordAccess w;
    w.addr = base + i * kWordBytes;
    w.tag.port = static_cast<std::uint8_t>(i % 4);
    w.tag.rob_slot = static_cast<std::uint16_t>(i);
    w.write = !load;
    b.words.push_back(w);
  }
  return b;
}

TEST(BurstSender, CoalescesRemoteUnitStrideLoad) {
  StatsRegistry stats;
  FakeTile tile(stats);
  BurstSender sender(bursting());
  // Tile 1's words: addresses 16..31 bytes (banks 4..7).
  sender.accept_beat(unit_beat(16, 4), tile.map(), tile.topo_, 0);
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
  BurstSender sender(bursting());
  sender.accept_beat(unit_beat(0, 4), tile.map(), tile.topo_, 0);  // tile 0
  sender.dispatch(0, tile);
  EXPECT_EQ(tile.local_pushes.size(), 4u);
  EXPECT_EQ(stats.value("network.req_sent"), 0.0);
}

TEST(BurstSender, DisabledModeSendsNarrow) {
  StatsRegistry stats;
  FakeTile tile(stats);
  BurstSender sender(test::mp4_config(0));
  sender.accept_beat(unit_beat(16, 4), tile.map(), tile.topo_, 0);
  for (Cycle c = 0; c < 4; ++c) {
    sender.dispatch(c, tile);  // class port limits to 1/cycle
    EXPECT_EQ(stats.value("network.req_sent"), c + 1.0);
    tile.drain(c);
  }
  EXPECT_TRUE(sender.staging_empty());
  EXPECT_EQ(stats.value("network.req_sent"), 4.0);  // serialized narrow words
  EXPECT_EQ(stats.value("network.req_words"), 4.0);
}

TEST(BurstSender, StoresNeverBurst) {
  StatsRegistry stats;
  FakeTile tile(stats);
  BurstSender sender(bursting());
  // Without the store-burst extension, unit-stride stores go narrow.
  sender.accept_beat(unit_beat(16, 4, /*load=*/false), tile.map(), tile.topo_, 0);
  for (Cycle c = 0; c < 4; ++c) {
    sender.dispatch(c, tile);
    tile.drain(c);
  }
  EXPECT_EQ(stats.value("network.req_sent"), 4.0);
}

TEST(BurstSender, SplitsAtTileBoundary) {
  StatsRegistry stats;
  FakeTile tile(stats);
  BurstSender sender(bursting());
  // Words 6..9 span tile 1 (banks 6,7) and tile 2 (banks 8,9).
  sender.accept_beat(unit_beat(24, 4), tile.map(), tile.topo_, 0);
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
  BurstSender sender(bursting(8));
  AddressMap map8(16, 8, 64);
  // Tile 1 = banks 8..15 -> words 8..15. Two contiguous 4-word beats.
  sender.accept_beat(unit_beat(32, 4), map8, tile.topo_, 0);
  sender.accept_beat(unit_beat(48, 4), map8, tile.topo_, 0);
  sender.dispatch(0, tile);  // FakeTile's own map differs; only count sends
  EXPECT_EQ(stats.value("network.req_sent"), 1.0);
  EXPECT_EQ(stats.value("network.req_words"), 8.0);
  EXPECT_EQ(sender.lookup(0, 7).rob_slot, 3u);  // second beat's slots appended
}

TEST(BurstSender, TableExhaustionDegradesToNarrow) {
  StatsRegistry stats;
  FakeTile tile(stats);
  BurstSender sender(bursting());
  sender.attach_stats(stats, "s");
  // Nothing resolves, so each burst keeps its table entry: fill them all.
  Cycle c = 0;
  for (unsigned i = 0; i < BurstSender::kTableSize; ++i, ++c) {
    sender.accept_beat(unit_beat(16, 4), tile.map(), tile.topo_, 0);
    sender.dispatch(c, tile);
    tile.drain(c);
  }
  ASSERT_TRUE(sender.staging_empty());
  ASSERT_EQ(sender.live_bursts(), BurstSender::kTableSize);
  ASSERT_EQ(stats.value("s.bursts_sent"), BurstSender::kTableSize);
  // The next burst-eligible beat finds no free entry and goes narrow.
  sender.accept_beat(unit_beat(32, 4), tile.map(), tile.topo_, 0);
  for (const Cycle end = c + 8; c < end; ++c) {
    sender.dispatch(c, tile);
    tile.drain(c);
  }
  EXPECT_TRUE(sender.staging_empty());
  EXPECT_EQ(stats.value("s.bursts_sent"), BurstSender::kTableSize);
  EXPECT_EQ(stats.value("s.narrow_remote_words"), 4.0);
  EXPECT_EQ(stats.value("network.req_sent"), BurstSender::kTableSize + 4.0);
}

// ------------------------------------------------- dispatch semantics --
// FakeTile's {1, 4} topology gives home tile 0 one class port per peer:
// tile 1 -> class 1 (bytes 16..31 of each row), tile 2 -> class 2 (32..47),
// tile 3 -> class 3 (48..63); bytes 0..15 are tile 0's own banks.

/// A narrow (not burst-eligible) beat over arbitrary word addresses.
BeatRequest narrow_beat(std::initializer_list<Addr> addrs) {
  BeatRequest b;
  b.form = Form::kVLoadIdx;
  std::uint16_t slot = 0;
  for (const Addr a : addrs) {
    WordAccess w;
    w.addr = a;
    w.tag.port = static_cast<std::uint8_t>(slot % 4);
    w.tag.rob_slot = slot++;
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

TEST(BurstSenderDispatch, BlockedClassDoesNotStopLaterItems) {
  StatsRegistry stats;
  FakeTile tile(stats);
  BurstSender sender(test::mp4_config(0));
  sender.attach_stats(stats, "s");
  // Class 1 first, then a local word, then a class-2 word.
  sender.accept_beat(narrow_beat({16, 20, 0, 32}), tile.map(), tile.topo_, 0);
  block_class(tile, 1, 0);
  sender.dispatch(0, tile);
  EXPECT_EQ(tile.local_pushes.size(), 1u);  // the local word went past class 1
  EXPECT_EQ(stats.value("s.narrow_remote_words"), 1.0);  // and so did class 2
  EXPECT_FALSE(tile.net_.can_send_req(0, 2, 0));
  EXPECT_FALSE(sender.staging_empty());
  tile.drain(0);
  sender.dispatch(1, tile);  // class 1 reopens: its first word goes
  tile.drain(1);
  sender.dispatch(2, tile);
  EXPECT_TRUE(sender.staging_empty());
  EXPECT_EQ(stats.value("s.narrow_remote_words"), 3.0);
}

TEST(BurstSenderDispatch, AtMostOneRequestPerClassPortPerCycle) {
  StatsRegistry stats;
  FakeTile tile(stats);
  BurstSender sender(test::mp4_config(0));
  sender.accept_beat(narrow_beat({16, 20, 32, 24}), tile.map(), tile.topo_, 0);
  sender.accept_beat(narrow_beat({36, 48, 52, 28}), tile.map(), tile.topo_, 0);
  sender.accept_beat(narrow_beat({40, 56, 4, 44}), tile.map(), tile.topo_, 0);
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
    tile.drain(c);
  }
  EXPECT_TRUE(sender.staging_empty());
  EXPECT_EQ(c, 4u);  // four words per busiest class, one per cycle
  EXPECT_EQ(stats.value("network.req_sent"), 11.0);
}

TEST(BurstSenderDispatch, RequestsLeaveEachClassPortInStagingOrder) {
  StatsRegistry stats;
  FakeTile tile(stats);
  BurstSender sender(test::mp4_config(0));
  sender.accept_beat(narrow_beat({28, 32, 20, 52}), tile.map(), tile.topo_, 0);
  sender.accept_beat(narrow_beat({44, 16, 48, 36}), tile.map(), tile.topo_, 0);
  sender.accept_beat(narrow_beat({24, 60, 40, 8}), tile.map(), tile.topo_, 0);
  block_class(tile, 2, 0);  // one class starts a cycle late
  Cycle c = 0;
  for (; c < 16 && !sender.staging_empty(); ++c) {
    sender.dispatch(c, tile);
    tile.drain(c);
  }
  ASSERT_TRUE(sender.staging_empty());
  for (; tile.net_.busy(); ++c) tile.drain(c);
  EXPECT_EQ(tile.arrived[1], (std::vector<Addr>{28, 20, 16, 24}));
  EXPECT_EQ(tile.arrived[2], (std::vector<Addr>{32, 32, 44, 36, 40}));  // after the blocker
  EXPECT_EQ(tile.arrived[3], (std::vector<Addr>{52, 48, 60}));
}

TEST(BurstSenderDispatch, PartialDispatchExtendsTheLastUnsentBurst) {
  StatsRegistry stats;
  FakeTile tile(stats);
  BurstSender sender(bursting(8));
  sender.attach_stats(stats, "s");
  // 8 banks per tile: tile 1 holds bytes 32..63 of each 64-byte row.
  AddressMap map8(16, 8, 64);
  sender.accept_beat(unit_beat(32, 4), map8, tile.topo_, 0);  // burst A, row 0
  sender.accept_beat(unit_beat(96, 4), map8, tile.topo_, 0);  // burst B, row 1
  sender.accept_beat(unit_beat(0, 4), map8, tile.topo_, 0);   // 4 local words
  // Class 1 refuses A (and so skips B); the local words behind them go,
  // which leaves the staging ring's youngest slot to burst B.
  block_class(tile, 1, 0);
  sender.dispatch(0, tile);
  tile.drain(0);
  EXPECT_EQ(tile.local_pushes.size(), 4u);
  EXPECT_EQ(stats.value("s.bursts_sent"), 0.0);
  // The next beat continues B and must grow it, not start a new burst.
  sender.accept_beat(unit_beat(112, 4), map8, tile.topo_, 0);
  sender.dispatch(1, tile);  // A
  tile.drain(1);
  sender.dispatch(2, tile);  // B, now 8 words long
  EXPECT_TRUE(sender.staging_empty());
  EXPECT_EQ(stats.value("s.bursts_sent"), 2.0);
  EXPECT_EQ(stats.value("s.burst_words"), 12.0);
  EXPECT_EQ(sender.lookup(1, 7).rob_slot, 3u);  // B's table entry holds the new beat
  for (Cycle c = 2; tile.net_.busy(); ++c) tile.drain(c);
  EXPECT_EQ(tile.arrived[1], (std::vector<Addr>{16, 32, 96}));  // blocker, A, B
}

}  // namespace
}  // namespace tcdm
