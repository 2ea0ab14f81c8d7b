// Allocation accounting for the hot path (hot-path rule P1,
// docs/ARCHITECTURE.md): this binary replaces the global operator new /
// delete with counting versions, then asserts that
//   * steady-state Cluster::step() performs no heap allocation at all —
//     construction and warm-up may allocate, the per-cycle loop may not;
//   * Json::dump()/dump_compact() allocate O(log n) buffers for an
//     n-node document (single reserved output string, no per-node pads);
//   * a warmed-up RingDeque really is allocation-free under sustained
//     push/pop traffic;
//   * StatsRegistry registration allocates per chunk, not per counter,
//     constructing MP64 stays within an allocation budget (no counter-name
//     temporaries), and Cluster::reset() and a value() lookup allocate
//     nothing;
//   * the network allocates no request slave queue for a port no tile can
//     send to.
// The counter is process-global, so any background allocation would show
// up here; tests run serially within the binary, which keeps the windows
// attributable.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <string_view>

#include "src/cluster/cluster.hpp"
#include "src/common/json.hpp"
#include "src/common/ring_deque.hpp"
#include "src/common/stats.hpp"
#include "src/interconnect/network.hpp"
#include "src/kernels/axpy.hpp"
#include "tests/support/test_support.hpp"

namespace {

std::atomic<std::uint64_t> g_alloc_calls{0};

std::uint64_t alloc_count() { return g_alloc_calls.load(std::memory_order_relaxed); }

void* counted_alloc(std::size_t size) {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size != 0 ? size : 1);
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                     size != 0 ? size : 1) != 0) {
    return nullptr;
  }
  return p;
}

}  // namespace

// Replacing these at global scope covers every allocation in the binary,
// including the standard library's.
void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned_alloc(size, static_cast<std::size_t>(align))) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned_alloc(size, static_cast<std::size_t>(align))) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace tcdm {
namespace {

TEST(HotPathAlloc, HookCountsAllocations) {
  const std::uint64_t before = alloc_count();
  auto* p = new int(42);
  // Uses the pointer where the optimizer cannot see, so the new/delete
  // pair cannot be elided.
  asm volatile("" : : "r"(p) : "memory");
  const std::uint64_t after = alloc_count();
  delete p;
  EXPECT_GE(after - before, 1u);
}

/// Warm `cfg` up on an AXPY of `n` elements, then count the heap
/// allocations of 1000 steady-state step() calls: there must be none.
void expect_steady_state_allocation_free(const ClusterConfig& cfg, unsigned n) {
  Cluster cluster(cfg);
  AxpyKernel kernel(n);
  cluster.set_watchdog_window(1'000'000);
  kernel.setup(cluster);

  // Warm-up: queues reach their high-water occupancy and every grow-only
  // ring its final capacity.
  bool halted = false;
  for (int i = 0; i < 1000 && !halted; ++i) halted = cluster.step();
  ASSERT_FALSE(halted) << "kernel finished during warm-up; enlarge it";

  const std::uint64_t before = alloc_count();
  int steps = 0;
  for (; steps < 1000 && !halted; ++steps) halted = cluster.step();
  const std::uint64_t allocs = alloc_count() - before;
  EXPECT_EQ(allocs, 0u) << allocs << " heap allocations in " << steps
                        << " steady-state step() calls (hot-path rule P1)";

  // The run must still complete and verify — the window above was real work.
  while (!halted) halted = cluster.step();
  EXPECT_TRUE(kernel.verify(cluster));
}

TEST(HotPathAlloc, ClusterSteadyStateStepIsAllocationFree) {
  // MP4Spatz4 with GF4 bursts: the full hot path — vector loads/stores,
  // burst merge, hierarchical network, barriers — on a kernel big enough
  // that thousands of steady-state cycles remain after warm-up.
  expect_steady_state_allocation_free(test::mp4_config(4), 4096);
}

TEST(HotPathAlloc, BaselineMultiClassStepIsAllocationFree) {
  // MP64Spatz4 baseline: narrow remote words over four destination classes
  // (one intra-group port, three inter-group ports) keep every VLSU's
  // staging backed up, so its per-class bookkeeping is live every cycle.
  const ClusterConfig cfg = ClusterConfig::mp64spatz4();
  ASSERT_GE(cfg.topology().num_classes(), 2u);
  expect_steady_state_allocation_free(cfg, 16384);
}

TEST(HotPathAlloc, JsonDumpAllocationsStaySublinear) {
  // A document with tens of thousands of nodes, like a big metrics export.
  Json::Array arr;
  for (int i = 0; i < 20000; ++i) arr.emplace_back(i);
  Json doc;
  doc.set("values", Json(std::move(arr)));
  doc.set("name", "alloc-growth-sanity");

  const std::uint64_t before = alloc_count();
  const std::string pretty = doc.dump();
  const std::uint64_t pretty_allocs = alloc_count() - before;

  const std::uint64_t before_compact = alloc_count();
  const std::string compact = doc.dump_compact();
  const std::uint64_t compact_allocs = alloc_count() - before_compact;

  EXPECT_GT(pretty.size(), 100000u);  // the document really is large
  // One output buffer doubling from 256 bytes amortizes to O(log n)
  // allocations; the former per-node pad strings would blow way past this.
  EXPECT_LT(pretty_allocs, 64u);
  EXPECT_LT(compact_allocs, 64u);
}

TEST(HotPathAlloc, WarmRingDequeDoesNotAllocate) {
  RingDeque<int> q(8);
  for (int i = 0; i < 8; ++i) q.push_back(i);
  const std::uint64_t before = alloc_count();
  for (int i = 0; i < 10000; ++i) {
    q.pop_front();
    q.push_back(i);
  }
  EXPECT_EQ(alloc_count() - before, 0u);
}

TEST(HotPathAlloc, StatsRegistrationAllocatesPerChunkNotPerCounter) {
  // Prefixes of at most 15 characters: a std::string copy of one would fit
  // in its small buffer, so any allocation here is the registry's own
  // storage. Registration may grow chunked storage, never allocate per
  // counter or per block.
  static constexpr std::string_view kBankStats[] = {".reads", ".writes"};
  constexpr unsigned kBlocks = 2048;
  char prefix[16];
  const std::uint64_t before = alloc_count();
  {
    StatsRegistry reg;
    for (unsigned i = 0; i < kBlocks; ++i) {
      const int len = std::snprintf(prefix, sizeof prefix, "t%02u.b%02u", i / 64, i % 64);
      ASSERT_LE(len, 15);
      Counter reads;
      Counter writes;
      reg.block(std::string_view(prefix, static_cast<std::size_t>(len)), kBankStats,
                {&reads, &writes});
    }
  }
  const std::uint64_t allocs = alloc_count() - before;
  EXPECT_LE(allocs, kBlocks / 8) << allocs << " allocations to register " << 2 * kBlocks
                                 << " counters";
}

/// Dirty `cfg` with a finished AXPY, then count the heap allocations of
/// Cluster::reset(): there must be none (P1, P2).
void expect_reset_allocation_free(const ClusterConfig& cfg) {
  Cluster cluster(cfg);
  AxpyKernel kernel(1024);
  cluster.set_watchdog_window(1'000'000);
  kernel.setup(cluster);
  while (!cluster.step()) {
  }
  ASSERT_GT(cluster.stats().sum_suffix(".vlsu.words_loaded"), 0.0);

  const std::uint64_t before = alloc_count();
  cluster.reset();
  const std::uint64_t allocs = alloc_count() - before;
  EXPECT_EQ(allocs, 0u) << allocs << " heap allocations in Cluster::reset()";
  EXPECT_EQ(cluster.stats().sum_suffix(".vlsu.words_loaded"), 0.0);
}

TEST(HotPathAlloc, ClusterResetIsAllocationFree) {
  expect_reset_allocation_free(test::mp4_config(0));
  expect_reset_allocation_free(ClusterConfig::mp64spatz4().with_burst(4));
}

TEST(HotPathAlloc, ClusterConstructionMakesNoNameTemporaries) {
  // Each component registers its counters as one block: constructing MP64
  // composes none of its 2,825 counter names. Per-name registration built
  // each one as a heap string (every name is longer than the small-string
  // buffer) and took 7,024 allocations in all.
  const ClusterConfig cfg = ClusterConfig::mp64spatz4();
  const std::uint64_t before = alloc_count();
  { const Cluster cluster(cfg); }
  const std::uint64_t allocs = alloc_count() - before;
  EXPECT_LE(allocs, 4400u) << allocs << " heap allocations to construct " << cfg.name;
}

TEST(HotPathAlloc, UnreachableSlaveQueuesAllocateNothing) {
  // Classes are numbered from the sender's side, so 384 of MP128's 896
  // (dst, cls) ports have no sender; only the others buffer requests.
  const Topology topo = ClusterConfig::mp128spatz8().topology();
  const auto construct_allocs = [&](unsigned slave_depth) {
    NetworkConfig cfg;
    cfg.slave_depth = slave_depth;
    StatsRegistry stats;
    const std::uint64_t before = alloc_count();
    { const HierNetwork net(topo, cfg, stats); }
    return alloc_count() - before;
  };
  StatsRegistry stats;
  const HierNetwork net(topo, NetworkConfig{}, stats);
  std::uint64_t unreachable = 0;
  for (TileId dst = 0; dst < topo.num_tiles(); ++dst) {
    for (unsigned cls = 0; cls < topo.num_classes(); ++cls) {
      if (net.wait_capacity(dst, static_cast<std::uint8_t>(cls)) == 0) ++unreachable;
    }
  }
  const std::uint64_t ports = std::uint64_t{topo.num_tiles()} * topo.num_classes();
  ASSERT_EQ(ports, 896u);
  ASSERT_EQ(unreachable, 384u);
  EXPECT_EQ(construct_allocs(NetworkConfig{}.slave_depth) - construct_allocs(0),
            ports - unreachable);
}

TEST(HotPathAlloc, StatsValueLookupIsAllocationFree) {
  // estimate_power looks counters up by literal name at the end of a run.
  Cluster cluster(test::mp4_config(4));
  const std::uint64_t before = alloc_count();
  const double hops = cluster.stats().value("network.req_hop_words");
  EXPECT_EQ(alloc_count() - before, 0u);
  EXPECT_EQ(hops, 0.0);
}

}  // namespace
}  // namespace tcdm
