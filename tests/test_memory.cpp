// Memory-substrate tests: address interleaving, SPM bank timing and
// functionality, reorder buffer semantics.
#include <gtest/gtest.h>

#include "src/memory/address_map.hpp"
#include "src/memory/rob.hpp"
#include "src/memory/spm_bank.hpp"
#include "tests/support/test_support.hpp"

namespace tcdm {
namespace {

TEST(AddressMap, WordInterleavingAcrossBanksAndTiles) {
  // The shared fixture map: 16 banks, 4 per tile -> 4 tiles.
  const AddressMap map = test::small_address_map();
  EXPECT_EQ(map.num_tiles(), 4u);
  for (unsigned w = 0; w < 64; ++w) {
    const Addr a = w * kWordBytes;
    EXPECT_EQ(map.bank_of(a), w % 16);
    EXPECT_EQ(map.tile_of(a), (w % 16) / 4);
    EXPECT_EQ(map.row_of(a), w / 16);
  }
}

TEST(AddressMap, ConsecutiveWordsStayInTileForOneBeat) {
  const AddressMap map = test::small_address_map();
  // Aligned beat: 4 words starting at a tile boundary stay in one tile.
  EXPECT_EQ(map.words_left_in_tile(0), 4u);
  EXPECT_EQ(map.words_left_in_tile(4), 3u);   // word 1 -> 3 words left
  EXPECT_EQ(map.words_left_in_tile(12), 1u);  // word 3 -> last in tile
}

TEST(AddressMap, CapacityAndValidity) {
  const AddressMap map(8, 4, 16);
  EXPECT_EQ(map.total_bytes(), 8u * 16 * 4);
  EXPECT_TRUE(map.valid(0));
  EXPECT_TRUE(map.valid(map.total_bytes() - 4));
  EXPECT_FALSE(map.valid(map.total_bytes()));
}

TEST(SpmBank, PatternedFixtureHoldsRecognizableData) {
  // The shared pre-filled banks the burst suite merges from: row r of bank b
  // reads back 100*b + r.
  std::vector<SpmBank> banks = test::patterned_banks(2, 8);
  ASSERT_EQ(banks.size(), 2u);
  EXPECT_EQ(banks[0].read_row(0), 0u);
  EXPECT_EQ(banks[1].read_row(5), 105u);
}

TEST(SpmBank, OneRequestPerCycleWithNextCycleData) {
  SpmBank bank(16);
  bank.write_row(3, 77);
  BankReq r;
  r.row = 3;
  ASSERT_TRUE(bank.try_push(r));
  EXPECT_FALSE(bank.resp_ready());
  bank.cycle();
  ASSERT_TRUE(bank.resp_ready());
  EXPECT_EQ(bank.resp_pop().data, 77u);
}

TEST(SpmBank, ConflictSerialization) {
  SpmBank bank(16);
  bank.write_row(0, 10);
  bank.write_row(1, 11);
  BankReq r0, r1;
  r0.row = 0;
  r1.row = 1;
  ASSERT_TRUE(bank.try_push(r0));
  ASSERT_TRUE(bank.try_push(r1));
  EXPECT_FALSE(bank.can_accept());  // input queue depth 2
  bank.cycle();
  ASSERT_TRUE(bank.resp_ready());
  EXPECT_EQ(bank.resp_pop().data, 10u);
  bank.cycle();
  ASSERT_TRUE(bank.resp_ready());
  EXPECT_EQ(bank.resp_pop().data, 11u);
}

TEST(SpmBank, WritesCommitAndAck) {
  SpmBank bank(16);
  BankReq w;
  w.row = 5;
  w.write = true;
  w.wdata = 123;
  ASSERT_TRUE(bank.try_push(w));
  bank.cycle();
  EXPECT_EQ(bank.read_row(5), 123u);
  ASSERT_TRUE(bank.resp_ready());
  EXPECT_TRUE(bank.resp_front().route.write);
}

TEST(SpmBank, AmoAddReturnsOldValue) {
  SpmBank bank(16);
  bank.write_row(2, 40);
  BankReq a;
  a.row = 2;
  a.amo_add = true;
  a.wdata = 2;
  ASSERT_TRUE(bank.try_push(a));
  bank.cycle();
  EXPECT_EQ(bank.resp_pop().data, 40u);
  EXPECT_EQ(bank.read_row(2), 42u);
}

TEST(SpmBank, StallsWhenOutputFull) {
  SpmBank bank(16);
  StatsRegistry stats;
  bank.attach_stats(stats, "b");
  // Serve requests without popping a response until the output is full.
  for (unsigned row = 0; row < SpmBank::kOutDepth; ++row) {
    BankReq r;
    r.row = row;
    ASSERT_TRUE(bank.try_push(r));
    bank.cycle();
  }
  BankReq last;
  last.row = SpmBank::kOutDepth;
  ASSERT_TRUE(bank.try_push(last));
  bank.cycle();  // output full -> `last` must wait
  EXPECT_TRUE(bank.has_request());
  EXPECT_EQ(stats.value("b.stall_cycles"), 1.0);
  EXPECT_EQ(bank.resp_pop().data, bank.read_row(0));
  bank.cycle();  // now serves `last`
  EXPECT_FALSE(bank.has_request());
  EXPECT_TRUE(bank.resp_ready());
}

TEST(Rob, InOrderRetirementWithOutOfOrderFills) {
  ReorderBuffer rob(4);
  const auto s0 = rob.alloc(0, 4);
  const auto s1 = rob.alloc(0, 8);
  const auto s2 = rob.alloc(3, 0);  // the next instruction's first element
  rob.fill(s2, 30);  // youngest returns first
  EXPECT_FALSE(rob.head_ready());
  rob.fill(s0, 10);
  EXPECT_TRUE(rob.head_ready());
  const ReorderBuffer::Retired r0 = rob.pop_head();
  EXPECT_EQ(r0.data, 10u);
  EXPECT_EQ(r0.instr, 0u);
  EXPECT_EQ(r0.elem, 4u);
  EXPECT_FALSE(rob.head_ready());  // s1 still outstanding
  rob.fill(s1, 20);
  const ReorderBuffer::Retired r1 = rob.pop_head();
  EXPECT_EQ(r1.data, 20u);
  EXPECT_EQ(r1.elem, 8u);
  const ReorderBuffer::Retired r2 = rob.pop_head();
  EXPECT_EQ(r2.data, 30u);
  EXPECT_EQ(r2.instr, 3u);
  EXPECT_EQ(r2.elem, 0u);
  EXPECT_TRUE(rob.empty());
}

TEST(Rob, FullAndWrapAround) {
  ReorderBuffer rob(2);
  const auto a = rob.alloc(1, 0);
  const auto b = rob.alloc(1, 1);
  EXPECT_TRUE(rob.full());
  rob.fill(a, 1);
  EXPECT_EQ(rob.pop_head().data, 1u);
  const auto c = rob.alloc(2, 0);  // wraps to slot a's ring position
  rob.fill(b, 2);
  rob.fill(c, 3);
  EXPECT_EQ(rob.pop_head().elem, 1u);
  const ReorderBuffer::Retired last = rob.pop_head();
  EXPECT_EQ(last.data, 3u);
  EXPECT_EQ(last.instr, 2u);  // the wrapped slot carries its own element
}

TEST(Rob, LongRandomizedSequence) {
  ReorderBuffer rob(8);
  std::vector<std::uint16_t> slots;
  unsigned next_val = 0, expect = 0;
  for (unsigned round = 0; round < 500; ++round) {
    while (!rob.full()) {
      slots.push_back(rob.alloc(static_cast<std::uint8_t>(round % 8),
                                static_cast<std::uint32_t>(slots.size())));
    }
    // Fill in reverse order (worst case), retire everything.
    for (auto it = slots.rbegin(); it != slots.rend(); ++it) {
      rob.fill(*it, next_val++);
    }
    // Values were assigned youngest-first, so retirement sees them reversed
    // within the batch; compute expected order.
    const unsigned base = next_val - static_cast<unsigned>(slots.size());
    for (unsigned i = 0; i < slots.size(); ++i) {
      ASSERT_TRUE(rob.head_ready());
      const ReorderBuffer::Retired r = rob.pop_head();
      ASSERT_EQ(r.data, next_val - 1 - i);
      ASSERT_EQ(r.instr, round % 8);
      ASSERT_EQ(r.elem, i);
    }
    expect = base;
    (void)expect;
    slots.clear();
  }
}

}  // namespace
}  // namespace tcdm
