// Unit tests for the simulation substrate: queues, RNG, stats, JSON field lists,
// watchdog, bit utilities.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/bitutil.hpp"
#include "src/common/bounded_queue.hpp"
#include "src/common/json.hpp"
#include "src/common/json_fields.hpp"
#include "src/common/rng.hpp"
#include "src/common/sim_time.hpp"
#include "src/common/stats.hpp"
#include "src/common/timed_queue.hpp"
#include "tests/support/test_support.hpp"

namespace tcdm {
namespace {

TEST(BoundedQueue, FifoOrderAndCapacity) {
  BoundedQueue<int> q(3);
  EXPECT_TRUE(q.empty());
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_TRUE(q.try_push(3));
  EXPECT_TRUE(q.full());
  EXPECT_FALSE(q.try_push(4));
  EXPECT_EQ(q.pop(), 1);
  EXPECT_TRUE(q.try_push(4));
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), 3);
  EXPECT_EQ(q.pop(), 4);
  EXPECT_TRUE(q.empty());
}

TEST(BoundedQueue, ZeroCapacityIsAlwaysFull) {
  BoundedQueue<int> q(0);
  EXPECT_EQ(q.capacity(), 0u);
  EXPECT_TRUE(q.empty());
  EXPECT_TRUE(q.full());
  EXPECT_FALSE(q.try_push(1));
  EXPECT_TRUE(q.empty());
  q.clear();
  EXPECT_TRUE(q.full());
}

TEST(BoundedQueue, WrapAroundManyTimes) {
  BoundedQueue<unsigned> q(5);
  unsigned next_pop = 0;
  for (unsigned i = 0; i < 1000; ++i) {
    ASSERT_TRUE(q.try_push(i));
    if (i % 3 != 0) {
      ASSERT_EQ(q.pop(), next_pop++);
    }
    if (q.full()) {
      ASSERT_EQ(q.pop(), next_pop++);
    }
  }
}

TEST(BoundedQueue, AtInspectsFifoPositions) {
  BoundedQueue<int> q(4);
  ASSERT_TRUE(q.try_push(10));
  ASSERT_TRUE(q.try_push(20));
  ASSERT_TRUE(q.try_push(30));
  EXPECT_EQ(q.at(0), 10);
  EXPECT_EQ(q.at(1), 20);
  EXPECT_EQ(q.at(2), 30);
}

TEST(BoundedQueue, AtWritesAndDropFrontAcrossTheWrap) {
  BoundedQueue<int> q(4);
  for (int v : {1, 2, 3}) ASSERT_TRUE(q.try_push(v));
  (void)q.pop();
  (void)q.pop();
  for (int v : {4, 5, 6}) ASSERT_TRUE(q.try_push(v));  // wraps: 3 4 5 6
  q.at(3) = 60;
  EXPECT_EQ(q.back(), 60);
  q.drop_front(3);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.front(), 60);
  ASSERT_TRUE(q.try_push(7));
  EXPECT_EQ(q.at(1), 7);
  q.drop_front(2);
  EXPECT_TRUE(q.empty());
  ASSERT_TRUE(q.try_push(8));
  EXPECT_EQ(q.front(), 8);
}

TEST(TimedQueue, LatencyGatesVisibility) {
  TimedQueue<int> q(4);
  ASSERT_TRUE(q.try_push(42, 10));
  EXPECT_FALSE(q.front_ready(9));
  EXPECT_TRUE(q.front_ready(10));
  EXPECT_TRUE(q.front_ready(11));
  EXPECT_EQ(q.pop(), 42);
}

TEST(TimedQueue, HeadBlocksLaterReadyEntries) {
  // FIFO order: a later entry cannot be observed before the head.
  TimedQueue<int> q(4);
  ASSERT_TRUE(q.try_push(1, 100));
  ASSERT_TRUE(q.try_push(2, 5));
  EXPECT_FALSE(q.front_ready(50));
  EXPECT_TRUE(q.front_ready(100));
  EXPECT_EQ(q.pop(), 1);
  EXPECT_TRUE(q.front_ready(50));
}

TEST(Rng, DeterministicForSeed) {
  Xoshiro128 a(12345), b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u32(), b.next_u32());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro128 a(1), b(2);
  unsigned same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u32() == b.next_u32() ? 1 : 0;
  EXPECT_LT(same, 4u);
}

class RngFixture : public test::SeededRngTest {};

TEST_F(RngFixture, BoundedValuesInRange) {
  reseed(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng_.next_below(17), 17u);
    const float f = rng_.next_f32();
    EXPECT_GE(f, 0.0f);
    EXPECT_LT(f, 1.0f);
  }
}

TEST_F(RngFixture, FixtureStreamsAreReproducible) {
  // The shared seeded fixture hands out identical streams across fixtures
  // and the free-function helper alike.
  const std::vector<float> a = random_floats(32, -2.0f, 2.0f);
  const std::vector<float> b = test::random_floats(kTestSeed, 32, -2.0f, 2.0f);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]) << i;
  for (float f : a) {
    EXPECT_GE(f, -2.0f);
    EXPECT_LT(f, 2.0f);
  }
}

constexpr std::string_view kFlopsStat[] = {".flops"};
constexpr std::string_view kWordsStat[] = {".words"};

TEST(Stats, CountersAccumulateAndAggregate) {
  StatsRegistry reg;
  Counter a;
  Counter b;
  Counter c;
  reg.block("cc0", kFlopsStat, {&a});
  reg.block("cc1", kFlopsStat, {&b});
  reg.block("net", kWordsStat, {&c});
  a.inc(3);
  b.inc(4);
  c.inc();
  EXPECT_DOUBLE_EQ(reg.value("cc0.flops"), 3.0);
  EXPECT_DOUBLE_EQ(reg.sum_suffix(".flops"), 7.0);
  EXPECT_DOUBLE_EQ(reg.value("missing"), 0.0);
  EXPECT_EQ(reg.counter("cc1.flops").slot(), b.slot());
  reg.reset();
  EXPECT_DOUBLE_EQ(reg.sum_suffix(".flops"), 0.0);
}

TEST(Stats, CounterLooksUpAndNeverCreates) {
  StatsRegistry reg;
  EXPECT_THROW((void)reg.counter("cc0.flops"), std::logic_error);  // empty registry
  Counter a;
  reg.block("cc0", kFlopsStat, {&a});
  for (const char* unknown : {"cc0.words", "cc1.flops", "cc0", "flops", "", "cc0.flops.x"}) {
    try {
      (void)reg.counter(unknown);
      ADD_FAILURE() << "unknown counter '" << unknown << "' was created";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("'" + std::string(unknown) + "'"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(reg.snapshot().size(), 1u);
}

TEST(Stats, HandlesStableAcrossInsertions) {
  StatsRegistry reg;
  Counter a;
  reg.block("alpha", kFlopsStat, {&a});
  for (int i = 0; i < 100; ++i) {
    Counter c;
    reg.block("name" + std::to_string(i), kWordsStat, {&c});
  }
  a.inc(5);
  EXPECT_DOUBLE_EQ(reg.value("alpha.flops"), 5.0);
}

/// Random dotted name of 1-4 segments over a small vocabulary, so names
/// share prefixes and suffixes the way component counters do ("t3.cc1.vlsu",
/// "t3.cc1", "t31.cc1").
std::string random_dotted_name(Xoshiro128& rng) {
  static const char* const kSegments[] = {"t", "cc", "vlsu", "bank", "net", "a", "ab", "b_"};
  std::string name;
  const unsigned depth = 1 + rng.next_below(4);
  for (unsigned d = 0; d < depth; ++d) {
    if (d != 0) name += '.';
    name += kSegments[rng.next_below(8)];
    if (rng.next_below(2) != 0) name += std::to_string(rng.next_below(40));
  }
  return name;
}

/// StatsRegistry::to_json() as std::map iteration renders it.
std::string reference_json(const std::map<std::string, double>& ref) {
  std::ostringstream os;
  os.precision(17);
  os << "{\n";
  bool first = true;
  for (const auto& [name, v] : ref) {
    if (!first) os << ",\n";
    first = false;
    os << "  \"" << name << "\": " << v;
  }
  os << "\n}\n";
  return os.str();
}

/// Every name-order and aggregate view of `reg` against the reference map.
void expect_matches_reference(const StatsRegistry& reg,
                              const std::map<std::string, double>& ref,
                              const std::map<std::string, Counter>& handles) {
  std::vector<std::pair<std::string, double>> want(ref.begin(), ref.end());
  EXPECT_EQ(reg.snapshot(), want);
  std::vector<double> values;
  reg.values(values);
  const std::vector<const double*> slots = reg.slots();
  ASSERT_EQ(values.size(), ref.size());
  ASSERT_EQ(slots.size(), ref.size());
  std::size_t i = 0;
  for (const auto& [name, v] : ref) {
    EXPECT_EQ(values[i], v) << name;
    EXPECT_EQ(slots[i], handles.at(name).slot()) << name;
    EXPECT_EQ(reg.value(name), v) << name;
    ++i;
  }
  EXPECT_EQ(reg.to_json(), reference_json(ref));
  EXPECT_EQ(reg.value("not.registered"), 0.0);
  EXPECT_EQ(reg.value("unregistered"), 0.0);

  // Suffixes shorter than, equal to and straddling a block's prefix/suffix
  // split ("cc3.vlsu" + ".words_loaded" against ".vlsu.words_loaded").
  for (const char* affix :
       {"", "t", "t1", "t1.", "cc", "a", "ab", "b_", "x", ".vlsu", "reads", ".reads", "s",
        ".vlsu.words_loaded", "vlsu.words_loaded", "u.words_loaded", "_loaded", ".beats",
        "vlsu.beats", "t1.reads", "cc1.vlsu.w", "cc1.vlsu.words_", "a.t1", ".t1", "b_.a"}) {
    const std::string_view a(affix);
    double suffix = 0.0;
    for (const auto& [name, v] : ref) {
      if (name.ends_with(a)) suffix += v;
    }
    EXPECT_EQ(reg.sum_suffix(a), suffix) << affix;
  }
}

// Suffix lists for the differential test's blocks; segments overlap the
// vocabulary of random_dotted_name, so block members share names with other
// blocks' prefixes, and two lists of one prefix may overlap or not.
constexpr std::string_view kVlsuStats[] = {".words_loaded", ".words_stored", ".beats"};
constexpr std::string_view kBankStats[] = {".reads", ".writes", ".a", ".t1"};
constexpr std::string_view kOneStat[] = {".vlsu"};
constexpr std::string_view kReadStat[] = {".reads"};

TEST(Stats, DifferentialAgainstOrderedMap) {
  Xoshiro128 rng(20);
  StatsRegistry reg;
  std::map<std::string, double> ref;
  std::map<std::string, Counter> handles;  // the handle of each name
  std::vector<std::string> order;          // registration order
  unsigned blocks = 0;
  unsigned refused = 0;
  unsigned unknown = 0;

  // Registers `prefix` + `suffixes` as one block, or expects it refused
  // (registering nothing) when one of its names exists already.
  const auto add_block = [&]<std::size_t N>(const std::string& prefix,
                                            const std::string_view(&suffixes)[N]) {
    std::string taken;
    for (const std::string_view s : suffixes) {
      const std::string name = prefix + std::string(s);
      if (taken.empty() && handles.contains(name)) taken = name;
    }
    std::array<Counter, N> c;
    Counter* out[N];
    for (std::size_t i = 0; i < N; ++i) out[i] = &c[i];
    if (!taken.empty()) {
      try {
        reg.block(prefix, suffixes, out);
        ADD_FAILURE() << "duplicate " << taken << " accepted";
      } catch (const std::logic_error& e) {
        EXPECT_NE(std::string(e.what()).find("'" + taken + "'"), std::string::npos) << e.what();
      }
      for (const Counter& h : c) EXPECT_FALSE(h.valid());
      ++refused;
      return;
    }
    reg.block(prefix, suffixes, out);
    ++blocks;
    for (std::size_t i = 0; i < N; ++i) {
      const std::string name = prefix + std::string(suffixes[i]);
      handles.emplace(name, c[i]);
      order.push_back(name);
      const double delta = rng.next_below(1000);
      c[i].inc(delta);
      ref[name] += delta;
    }
  };

  while (ref.size() < 5000) {
    // Half the operations register a block; the rest look a name up: a
    // known one must give the slot it was registered at, an unknown one
    // must throw and register nothing.
    const unsigned op = rng.next_below(8);
    if (op < 4 || order.empty()) {
      const std::string prefix = random_dotted_name(rng);
      switch (op) {
        case 0: add_block(prefix, kVlsuStats); break;
        case 1: add_block(prefix, kBankStats); break;
        case 2: add_block(prefix, kReadStat); break;
        default: add_block(prefix, kOneStat); break;
      }
      continue;
    }
    const std::string name = op < 7 ? order[rng.next_below(static_cast<std::uint32_t>(order.size()))]
                                     : random_dotted_name(rng);
    const auto it = handles.find(name);
    if (it == handles.end()) {
      EXPECT_THROW((void)reg.counter(name), std::logic_error) << name;
      ++unknown;
      continue;
    }
    Counter c = reg.counter(name);
    ASSERT_EQ(c.slot(), it->second.slot()) << name;
    const double delta = rng.next_below(1000);
    c.inc(delta);
    ref[name] += delta;
  }
  EXPECT_GT(blocks, 1000u);
  EXPECT_GT(refused, 10u);
  EXPECT_GT(unknown, 100u);
  // Handles taken before the slab and the index grew still name their own
  // counters.
  for (const auto& [name, c] : handles) ASSERT_EQ(c.value(), ref.at(name)) << name;
  expect_matches_reference(reg, ref, handles);

  // A late block lands in order: the cached name order is rebuilt.
  Counter late;
  reg.block("b_late", kOneStat, {&late});
  late.inc(7);
  handles.emplace("b_late.vlsu", late);
  ref["b_late.vlsu"] += 7;
  expect_matches_reference(reg, ref, handles);

  // reset() zeroes every counter in place; old handles keep counting.
  reg.reset();
  for (auto& [name, v] : ref) v = 0.0;
  expect_matches_reference(reg, ref, handles);
  for (auto& [name, c] : handles) {
    c.inc(static_cast<double>(name.size()));
    ref[name] = static_cast<double>(name.size());
  }
  expect_matches_reference(reg, ref, handles);
}

TEST(Watchdog, FiresAfterWindow) {
  Watchdog wd(100);
  wd.note_progress(0);
  EXPECT_NO_THROW(wd.check(100));
  EXPECT_THROW(wd.check(101), DeadlockError);
  wd.note_progress(200);
  EXPECT_NO_THROW(wd.check(250));
}

TEST(BitUtil, Pow2AndLogs) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(12));
  EXPECT_EQ(log2_exact(1), 0u);
  EXPECT_EQ(log2_exact(1024), 10u);
  EXPECT_EQ(log2_floor(12), 3u);
  EXPECT_EQ(ceil_div(7, 3), 3u);
  EXPECT_EQ(align_up(5, 4), 8u);
  EXPECT_EQ(align_down(7, 4), 4u);
}

TEST(BitUtil, Log2FloorCoversTheWholeValidDomain) {
  // v == 0 is outside the contract (countl_zero(0) == 64 would wrap); it is
  // now guarded by an assert like log2_exact. Every non-zero value is fine,
  // including the extremes.
  EXPECT_EQ(log2_floor(1), 0u);
  EXPECT_EQ(log2_floor(2), 1u);
  EXPECT_EQ(log2_floor(3), 1u);
  EXPECT_EQ(log2_floor(std::uint64_t{1} << 63), 63u);
  EXPECT_EQ(log2_floor(~std::uint64_t{0}), 63u);
}

#ifndef NDEBUG
TEST(BitUtilDeathTest, Log2FloorOfZeroAsserts) {
  EXPECT_DEATH((void)log2_floor(0), "v != 0");
}
#endif

TEST(BitUtil, BitReverseInvolution) {
  for (unsigned bits = 1; bits <= 12; ++bits) {
    for (std::uint32_t v = 0; v < (1u << bits); v += 7) {
      EXPECT_EQ(bit_reverse(bit_reverse(v, bits), bits), v);
    }
  }
  EXPECT_EQ(bit_reverse(0b001, 3), 0b100u);
  EXPECT_EQ(bit_reverse(0b011, 3), 0b110u);
}

TEST(Types, FloatWordRoundTrip) {
  for (float f : {0.0f, 1.5f, -3.25f, 1e-30f, 1e30f}) {
    EXPECT_EQ(word_to_f32(f32_to_word(f)), f);
  }
}

TEST(Stats, ToJsonIsSortedAndComplete) {
  static constexpr std::string_view kSecond[] = {".second"};
  static constexpr std::string_view kFirst[] = {".first"};
  static constexpr std::string_view kZero[] = {".zero"};
  StatsRegistry reg;
  Counter first;
  Counter second;
  Counter zero;  // never incremented, still reported
  reg.block("b", kSecond, {&second});
  reg.block("a", kFirst, {&first});
  reg.block("c", kZero, {&zero});
  second.inc(2.5);
  first.inc(1.0);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"a.first\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"b.second\": 2.5"), std::string::npos);
  EXPECT_NE(json.find("\"c.zero\": 0"), std::string::npos);
  EXPECT_LT(json.find("a.first"), json.find("b.second"));
  EXPECT_LT(json.find("b.second"), json.find("c.zero"));
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json[json.size() - 2], '}');  // trailing newline after the brace
}

TEST(Stats, ToJsonOfEmptyRegistryIsAnEmptyObject) {
  StatsRegistry reg;
  const std::string json = reg.to_json();
  EXPECT_EQ(json.find('"'), std::string::npos);
  EXPECT_NE(json.find('{'), std::string::npos);
  EXPECT_NE(json.find('}'), std::string::npos);
}

TEST(Stats, ToJsonMapsNonFiniteCountersToNull) {
  // JSON has no NaN/Infinity literals; a poisoned counter must serialize as
  // null (same convention as tcdm::Json) instead of corrupting the dump
  // with bare `nan`/`inf` tokens.
  static constexpr std::string_view kValues[] = {".nan", ".posinf", ".neginf", ".fine"};
  StatsRegistry reg;
  Counter quiet_nan;
  Counter posinf;
  Counter neginf;
  Counter fine;
  reg.block("x", kValues, {&quiet_nan, &posinf, &neginf, &fine});
  quiet_nan.inc(std::numeric_limits<double>::quiet_NaN());
  posinf.inc(std::numeric_limits<double>::infinity());
  neginf.inc(-std::numeric_limits<double>::infinity());
  fine.inc(2.0);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"x.nan\": null"), std::string::npos) << json;
  EXPECT_NE(json.find("\"x.posinf\": null"), std::string::npos) << json;
  EXPECT_NE(json.find("\"x.neginf\": null"), std::string::npos) << json;
  EXPECT_NE(json.find("\"x.fine\": 2"), std::string::npos) << json;
  // The dump must round-trip through the strict JSON parser (which rejects
  // the bare `nan`/`inf` tokens the old formatter emitted).
  const Json parsed = Json::parse(json);
  EXPECT_TRUE(parsed.at("x.nan").is_null());
  EXPECT_TRUE(parsed.at("x.posinf").is_null());
  EXPECT_DOUBLE_EQ(parsed.at("x.fine").as_double(), 2.0);
}

// ------------------------------------------------------------ field lists ----

enum class Shape { kRound, kSquare };
const char* enum_name(Shape s) { return s == Shape::kRound ? "round" : "square"; }
void enum_from_name(const std::string& name, Shape& out) {
  if (name == "round") {
    out = Shape::kRound;
  } else if (name == "square") {
    out = Shape::kSquare;
  } else {
    throw std::invalid_argument("unknown shape '" + name + "'");
  }
}

struct Inner {
  unsigned a = 1;
  unsigned b = 2;
};

template <MaybeConst<Inner> S, class V>
void fields(S& s, V& v) {
  v("a", s.a);
  v("b", s.b);
}

struct Outer {
  std::string name = "o";
  bool flag = false;
  double ratio = 0.5;
  std::uint64_t cycles = 10;
  std::vector<unsigned> sizes{1, 4};
  std::vector<Inner> inners{Inner{}};
  Inner inner{};
  Shape shape = Shape::kRound;
  unsigned count = 0;
  std::map<std::string, Inner> named{{"x", Inner{}}};
};

template <MaybeConst<Outer> S, class V>
void fields(S& s, V& v) {
  v("name", s.name);
  v("flag", s.flag);
  v("ratio", s.ratio);
  v("cycles", s.cycles);
  v("sizes", s.sizes);
  v("inners", s.inners);
  v("inner", s.inner);
  v("shape", s.shape);
  v("count", s.count);
  v("named", s.named);
}

std::string user_error(const std::string& text, Outer start = {}) {
  try {
    read_fields(Json::parse(text), "cfg", ReadPolicy::kUserInput, start);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "no error";
}

TEST(Json, ParseRefusesNestingPastTheDepthLimit) {
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  Json at_limit = Json::parse(nested(kMaxJsonDepth));
  for (std::size_t d = 1; d < kMaxJsonDepth; ++d) at_limit = Json(at_limit.as_array().at(0));
  EXPECT_TRUE(at_limit.as_array().empty());
  try {
    (void)Json::parse(nested(kMaxJsonDepth + 1));
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_STREQ(e.what(), "JSON parse error at offset 256: nesting deeper than 256 levels");
  }
}

TEST(FieldLists, WriterSpellsEveryField) {
  Outer o;
  EXPECT_EQ(write_fields(o).dump_compact(),
            R"({"count":0,"cycles":10,"flag":false,"inner":{"a":1,"b":2},)"
            R"("inners":[{"a":1,"b":2}],"name":"o","named":{"x":{"a":1,"b":2}},)"
            R"("ratio":0.5,"shape":"round","sizes":[1,4]})");
  o.count = 3;
  o.shape = Shape::kSquare;
  const Json j = write_fields(o);
  EXPECT_EQ(j.at("count").as_double(), 3.0);
  EXPECT_EQ(j.at("shape").as_string(), "square");
}

TEST(FieldLists, BothPoliciesRoundTripTheWriter) {
  Outer o;
  o.name = "x";
  o.flag = true;
  o.ratio = 0.1;
  o.cycles = 9007199254740992ULL;  // 2^53
  o.sizes = {8, 4, 4};
  o.inners = {Inner{3, 4}, Inner{5, 6}};
  o.inner = Inner{7, 8};
  o.shape = Shape::kSquare;
  o.count = 4294967295u;
  o.named = {{"p", Inner{3, 4}}, {"q/r", Inner{5, 6}}};
  for (const ReadPolicy policy : {ReadPolicy::kUserInput, ReadPolicy::kPersisted}) {
    Outer back;
    read_fields(write_fields(o), "o", policy, back);
    EXPECT_EQ(write_fields(back).dump(), write_fields(o).dump());
  }
}

TEST(FieldLists, UserInputMergesOverCurrentValuesNestedObjectsToo) {
  Outer start;
  start.name = "kept";
  start.inner = Inner{7, 8};
  read_fields(Json::parse(R"({"inner": {"b": 9}, "ratio": 2})"), "cfg",
              ReadPolicy::kUserInput, start);
  EXPECT_EQ(start.name, "kept");
  EXPECT_EQ(start.inner.a, 7u);  // merged, not restarted from Inner{}
  EXPECT_EQ(start.inner.b, 9u);
  EXPECT_EQ(start.ratio, 2.0);
  // Arrays replace: each element starts from its default.
  read_fields(Json::parse(R"({"inners": [{"b": 5}]})"), "cfg", ReadPolicy::kUserInput,
              start);
  ASSERT_EQ(start.inners.size(), 1u);
  EXPECT_EQ(start.inners[0].a, 1u);
  EXPECT_EQ(start.inners[0].b, 5u);
  // Maps replace too.
  read_fields(Json::parse(R"({"named": {"y": {"b": 5}}})"), "cfg", ReadPolicy::kUserInput,
              start);
  ASSERT_EQ(start.named.size(), 1u);
  EXPECT_EQ(start.named.at("y").a, 1u);
  EXPECT_EQ(start.named.at("y").b, 5u);
}

TEST(FieldLists, UserInputErrorsNameThePath) {
  EXPECT_EQ(user_error(R"({"inner": {"c": 1}})"), "cfg/inner/c: unknown key (known: a, b)");
  EXPECT_EQ(user_error(R"({"zzz": 1, "name": "n"})"),
            "cfg/zzz: unknown key (known: name, flag, ratio, cycles, sizes, inners, inner, "
            "shape, count, named)");
  EXPECT_EQ(user_error(R"({"flag": 1})"), "cfg/flag: expected true or false");
  EXPECT_EQ(user_error(R"({"name": 1})"), "cfg/name: expected a string");
  EXPECT_EQ(user_error(R"({"ratio": null})"), "cfg/ratio: expected a number");
  EXPECT_EQ(user_error(R"({"ratio": 1e999})"), "cfg/ratio: expected a finite number");
  EXPECT_EQ(user_error(R"({"shape": "oval"})"), "cfg/shape: unknown shape 'oval'");
  EXPECT_EQ(user_error(R"({"sizes": 4})"), "cfg/sizes: expected an array");
  EXPECT_EQ(user_error(R"({"named": []})"), "cfg/named: expected an object");
  EXPECT_EQ(user_error(R"({"named": {"m/n": {"c": 1}}})"),
            "cfg/named/m/n/c: unknown key (known: a, b)");
  EXPECT_EQ(user_error(R"({"inners": [{}, {"a": -1}]})"),
            "cfg/inners[1]/a: expected a non-negative integer up to 4294967295");
  EXPECT_EQ(user_error(R"([])"), "cfg: expected an object");
}

TEST(FieldLists, IntegerBoundsFollowTheFieldType) {
  EXPECT_EQ(user_error(R"({"count": 4294967295})"), "no error");
  EXPECT_EQ(user_error(R"({"count": 4294967296})"),
            "cfg/count: expected a non-negative integer up to 4294967295");
  EXPECT_EQ(user_error(R"({"count": 1.5})"),
            "cfg/count: expected a non-negative integer up to 4294967295");
  EXPECT_EQ(user_error(R"({"cycles": 9007199254740992})"), "no error");
  EXPECT_EQ(user_error(R"({"cycles": 9007199254740994})"),
            "cfg/cycles: expected a non-negative integer up to 9007199254740992");
}

TEST(FieldLists, PersistedResultsRequireEveryFieldAndReadNullAsNaN) {
  Json j = write_fields(Outer{});
  j.set("ratio", Json(nullptr));
  Outer back;
  read_fields(j, "memo:2", ReadPolicy::kPersisted, back);
  EXPECT_TRUE(std::isnan(back.ratio));

  j.as_object().erase("flag");
  try {
    read_fields(j, "memo:2", ReadPolicy::kPersisted, back);
    FAIL() << "expected SchemaError";
  } catch (const SchemaError& e) {
    EXPECT_STREQ(e.what(), "memo:2/flag: required key missing");
  }
  // An empty path reads a document root: keys are named without a "/".
  try {
    read_fields(j, "", ReadPolicy::kPersisted, back);
    FAIL() << "expected SchemaError";
  } catch (const SchemaError& e) {
    EXPECT_STREQ(e.what(), "flag: required key missing");
  }
  Json nested = write_fields(Outer{});
  nested.set("inner", Json::parse(R"({"a": 1})"));
  EXPECT_THROW(read_fields(nested, "memo:2", ReadPolicy::kPersisted, back), SchemaError);
}

/// A hand-written document: a required key, a raw value and an optional
/// one.
struct Doc {
  std::string title;
  const Json* body = nullptr;
  std::optional<unsigned> limit;
};

template <MaybeConst<Doc> S, class V>
void fields(S& d, V& v) {
  v("title", d.title, kRequired);
  v("body", d.body);
  v("limit", d.limit);
}

std::string doc_error(const std::string& text) {
  Doc d;
  try {
    read_document(Json::parse(text), "doc", ReadPolicy::kUserInput, "tcdm-test", 3, d);
  } catch (const std::exception& e) {
    return e.what();
  }
  return "no error";
}

TEST(FieldLists, RawOptionalAndRequiredFieldsRoundTrip) {
  Doc d;
  d.title = "t";
  EXPECT_EQ(write_document("tcdm-test", 3, d).dump_compact(),
            R"({"schema":"tcdm-test","schema_version":3,"title":"t"})");
  const Json body = Json::parse(R"({"any": ["{placeholder}", 1]})");
  d.body = &body;
  d.limit = 0;
  const Json j = write_document("tcdm-test", 3, d);
  EXPECT_EQ(j.dump_compact(),
            R"({"body":{"any":["{placeholder}",1]},"limit":0,"schema":"tcdm-test",)"
            R"("schema_version":3,"title":"t"})");
  Doc back;
  read_document(j, "doc", ReadPolicy::kUserInput, "tcdm-test", 3, back);
  EXPECT_EQ(back.body, &j.at("body"));  // borrowed, not copied
  EXPECT_EQ(write_fields(back).dump(), write_fields(d).dump());
  // A null value is present, not absent.
  const Json with_null = Json::parse(
      R"({"schema": "tcdm-test", "schema_version": 3, "title": "t", "body": null})");
  Doc null_body;
  read_document(with_null, "doc", ReadPolicy::kUserInput, "tcdm-test", 3, null_body);
  ASSERT_NE(null_body.body, nullptr);
  EXPECT_TRUE(null_body.body->is_null());
}

TEST(FieldLists, DocumentHeaderAndRequiredKeysNameTheKey) {
  const std::string head = R"("schema": "tcdm-test", "schema_version": 3)";
  EXPECT_EQ(doc_error("{" + head + R"(, "title": "t"})"), "no error");
  EXPECT_EQ(doc_error("{" + head + "}"), "doc/title: required key missing");
  EXPECT_EQ(doc_error("{" + head + R"(, "title": "t", "limit": -1})"),
            "doc/limit: expected a non-negative integer up to 4294967295");
  EXPECT_EQ(doc_error(R"({"schema_version": 3, "title": "t"})"),
            "doc/schema: required key missing");
  EXPECT_EQ(doc_error(R"({"schema": 1, "schema_version": 3, "title": "t"})"),
            "doc/schema: expected a string");
  EXPECT_EQ(doc_error(R"({"schema": "other", "schema_version": 3, "title": "t"})"),
            "doc/schema: expected \"tcdm-test\", not \"other\"");
  EXPECT_EQ(doc_error(R"({"schema": "tcdm-test", "title": "t"})"),
            "doc/schema_version: required key missing");
  EXPECT_EQ(doc_error(R"({"schema": "tcdm-test", "schema_version": "3", "title": "t"})"),
            "doc/schema_version: expected a non-negative integer up to 4294967295");
  EXPECT_EQ(doc_error(R"({"schema": "tcdm-test", "schema_version": 2, "title": "t"})"),
            "doc/schema_version: unsupported version 2 (expected 3)");
  EXPECT_EQ(doc_error("{" + head + R"(, "title": "t", "titel": 1})"),
            "doc/titel: unknown key (known: schema, schema_version, title, body, limit)");
  // The error type follows the policy.
  Doc d;
  EXPECT_THROW(read_document(Json::parse("{}"), "doc", ReadPolicy::kPersisted, "tcdm-test",
                             3, d),
               SchemaError);
}

}  // namespace
}  // namespace tcdm
