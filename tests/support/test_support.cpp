#include "tests/support/test_support.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

namespace tcdm::test {

// ------------------------------------------------- cluster-config fixtures --

ClusterConfig one_tile_config() {
  ClusterConfig c;
  c.name = "one";
  c.num_tiles = 1;
  c.vlsu_ports = 4;
  c.vlen_bits = 128;  // vlmax: m1=4, m2=8, m4=16, m8=32
  c.banks_per_tile = 4;
  c.bank_words = 256;
  c.level_sizes = {1};
  c.level_latency = {{1, 1}};
  c.start_stagger_cycles = 0;
  return c;
}

ClusterConfig tiny_config() {
  ClusterConfig c;
  c.name = "tiny2";
  c.num_tiles = 2;
  c.vlsu_ports = 4;
  c.vlen_bits = 128;
  c.banks_per_tile = 4;
  c.bank_words = 256;
  c.level_sizes = {1, 2};
  c.level_latency = {{1, 1}, {1, 1}};
  return c;
}

ClusterConfig mp4_config(unsigned gf) {
  ClusterConfig cfg = ClusterConfig::mp4spatz4();
  return gf == 0 ? cfg : cfg.with_burst(gf);
}

std::string burst_param_name(const ::testing::TestParamInfo<unsigned>& info) {
  return info.param == 0 ? "baseline" : "gf" + std::to_string(info.param);
}

// ------------------------------------------------ substrate fixtures -------

Topology flat4_topology() { return Topology({1, 4}, {{1, 1}, {1, 1}}); }

Topology two_pair_topology() { return Topology({2, 2}, {{1, 1}, {2, 2}}); }

AddressMap small_address_map() { return AddressMap(16, 4, 64); }

std::vector<SpmBank> patterned_banks(unsigned num_banks, unsigned rows) {
  std::vector<SpmBank> banks;
  banks.reserve(num_banks);
  for (unsigned b = 0; b < num_banks; ++b) {
    banks.emplace_back(rows);
    for (unsigned r = 0; r < rows; ++r) banks[b].write_row(r, 100 * b + r);
  }
  return banks;
}

FakeTile::FakeTile(StatsRegistry& stats)
    : arrived(4), map_(small_address_map()), topo_(flat4_topology()), net_(topo_, 1, stats) {}

bool FakeTile::try_local_push(unsigned bank, const BankReq& req) {
  local_pushes.push_back({bank, req});
  return accept_local;
}

void FakeTile::drain(Cycle now) {
  struct NullSink final : RspSink {
    void deliver_rsp(const TcdmResp&, Cycle) override {}
  } sink;
  net_.cycle(now, sink);
  for (TileId dst = 0; dst < topo_.num_tiles(); ++dst) {
    for (std::uint8_t cls = 0; cls < topo_.num_classes(); ++cls) {
      while (!net_.slave_empty(dst, cls)) arrived[dst].push_back(net_.slave_pop(dst, cls).addr);
    }
  }
}

BeatCollector::BeatCollector(StatsRegistry& stats)
    : topo_(flat4_topology()), net_(topo_, 1, stats) {}

std::vector<TcdmResp> BeatCollector::step(BurstManager& bm, unsigned cycles) {
  struct Sink final : RspSink {
    std::vector<TcdmResp> beats;
    void deliver_rsp(const TcdmResp& rsp, Cycle) override { beats.push_back(rsp); }
  } sink;
  for (const Cycle end = now + cycles; now < end; ++now) {
    bm.emit_beats(net_, now);
    net_.cycle(now, sink);
  }
  return sink.beats;
}

// ------------------------------------------------------ kernel run helpers --

KernelMetrics run_capped(const ClusterConfig& cfg, Kernel& k, Cycle max_cycles) {
  RunnerOptions opts;
  opts.max_cycles = max_cycles;
  return run_kernel(cfg, k, opts);
}

KernelMetrics run_unverified(const ClusterConfig& cfg, Kernel& k, Cycle max_cycles) {
  RunnerOptions opts;
  opts.verify = false;
  opts.max_cycles = max_cycles;
  return run_kernel(cfg, k, opts);
}

// --------------------------------------------- golden-output comparison ----

namespace {

/// Maps the float's bit pattern onto a monotonic signed-magnitude scale so
/// ULP distance is a plain integer difference, measuring through zero.
std::int64_t ordered_bits(float f) {
  const auto bits = std::bit_cast<std::uint32_t>(f);
  const auto magnitude = static_cast<std::int64_t>(bits & 0x7fffffffu);
  return (bits & 0x80000000u) != 0 ? -magnitude : magnitude;
}

}  // namespace

std::uint32_t ulp_distance(float a, float b) {
  if (!std::isfinite(a) || !std::isfinite(b)) {
    return a == b ? 0u : UINT32_MAX;  // inf == inf is 0; NaN/mixed is far
  }
  const std::int64_t d = ordered_bits(a) - ordered_bits(b);
  const std::int64_t mag = d < 0 ? -d : d;
  return mag > UINT32_MAX ? UINT32_MAX : static_cast<std::uint32_t>(mag);
}

::testing::AssertionResult FloatUlpNear(const char* actual_expr,
                                        const char* expected_expr,
                                        const char* ulp_expr, float actual,
                                        float expected, std::uint32_t max_ulp) {
  const std::uint32_t d = ulp_distance(actual, expected);
  if (d <= max_ulp) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << actual_expr << " = " << actual << " vs " << expected_expr << " = "
         << expected << " differ by " << d << " ULP (allowed " << ulp_expr
         << " = " << max_ulp << ")";
}

namespace {

constexpr std::size_t kMaxReportedMismatches = 5;

::testing::AssertionResult sized_mismatch(std::size_t actual, std::size_t expected) {
  return ::testing::AssertionFailure()
         << "size mismatch: actual has " << actual << " elements, expected has "
         << expected;
}

}  // namespace

::testing::AssertionResult all_ulp_near(std::span<const float> actual,
                                        std::span<const float> expected,
                                        std::uint32_t max_ulp) {
  if (actual.size() != expected.size())
    return sized_mismatch(actual.size(), expected.size());
  std::ostringstream msg;
  std::size_t bad = 0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const std::uint32_t d = ulp_distance(actual[i], expected[i]);
    if (d <= max_ulp) continue;
    if (++bad <= kMaxReportedMismatches) {
      msg << "\n  [" << i << "] actual=" << actual[i]
          << " expected=" << expected[i] << " (" << d << " ULP)";
    }
  }
  if (bad == 0) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << bad << "/" << actual.size() << " elements beyond " << max_ulp
         << " ULP:" << msg.str()
         << (bad > kMaxReportedMismatches ? "\n  ..." : "");
}

::testing::AssertionResult all_close(std::span<const float> actual,
                                     std::span<const float> expected,
                                     float rel_tol, float abs_tol) {
  if (actual.size() != expected.size())
    return sized_mismatch(actual.size(), expected.size());
  std::ostringstream msg;
  std::size_t bad = 0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const float err = std::fabs(actual[i] - expected[i]);
    const float bound = abs_tol + rel_tol * std::fabs(expected[i]);
    if (err <= bound && std::isfinite(actual[i])) continue;
    if (++bad <= kMaxReportedMismatches) {
      msg << "\n  [" << i << "] actual=" << actual[i]
          << " expected=" << expected[i] << " |err|=" << err
          << " bound=" << bound;
    }
  }
  if (bad == 0) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << bad << "/" << actual.size() << " elements out of tolerance (rel "
         << rel_tol << ", abs " << abs_tol << "):" << msg.str()
         << (bad > kMaxReportedMismatches ? "\n  ..." : "");
}

// ----------------------------------------------- deterministic RNG fixture --

namespace {

std::vector<float> fill_floats(Xoshiro128& rng, std::size_t n, float lo, float hi) {
  std::vector<float> out(n);
  std::generate(out.begin(), out.end(), [&] { return rng.next_f32(lo, hi); });
  return out;
}

}  // namespace

std::vector<float> SeededRngTest::random_floats(std::size_t n, float lo, float hi) {
  return fill_floats(rng_, n, lo, hi);
}

std::vector<float> random_floats(std::uint64_t seed, std::size_t n, float lo,
                                 float hi) {
  Xoshiro128 rng(seed);
  return fill_floats(rng, n, lo, hi);
}

// --------------------------------------------------- metric assertions -----

::testing::AssertionResult KernelCompleted(const char* metrics_expr,
                                           const KernelMetrics& m) {
  if (!m.timed_out && m.verified) return ::testing::AssertionSuccess();
  auto failure = ::testing::AssertionFailure();
  failure << metrics_expr << " (" << m.config << ", " << m.kernel << " " << m.size
          << "): ";
  if (m.timed_out) {
    failure << "timed out after " << m.cycles << " cycles";
  } else {
    failure << "golden verification failed (" << m.cycles << " cycles)";
  }
  return failure;
}

::testing::AssertionResult SpeedupAtLeast(const char* base_expr,
                                          const char* improved_expr,
                                          const char* ratio_expr,
                                          const KernelMetrics& base,
                                          const KernelMetrics& improved,
                                          double min_ratio) {
  if (improved.flops_per_cycle > min_ratio * base.flops_per_cycle)
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << improved_expr << " is not >" << ratio_expr << " = " << min_ratio
         << "x faster than " << base_expr << ": " << base_expr << " "
         << base.flops_per_cycle << " FLOP/cyc in " << base.cycles
         << " cycles, " << improved_expr << " " << improved.flops_per_cycle
         << " FLOP/cyc in " << improved.cycles << " cycles ("
         << (base.flops_per_cycle > 0.0
                 ? improved.flops_per_cycle / base.flops_per_cycle
                 : 0.0)
         << "x)";
}

}  // namespace tcdm::test
