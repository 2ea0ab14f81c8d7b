// Design-space exploration engine: canonical config-hash stability across
// spellings, Pareto-frontier invariants under randomized insertion, memo
// store round-trips and corruption handling, and in-process differential
// checks — pruned+memoized searches must reproduce exhaustive enumeration
// byte for byte, warm caches must answer without simulating, and a search
// stopped by its budget must finish, when rerun against the same cache, at
// the identical frontier (the memo store is the only persisted state).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "src/explore/explore.hpp"
#include "src/scenario/runner.hpp"
#include "src/scenario/scenario_file.hpp"
#include "src/scenario/scenario_gen.hpp"

namespace tcdm::explore {
namespace {

using scenario::FileScenario;
using scenario::GenOptions;
using scenario::LoadedSuite;

/// A freshly generated, fully validated suite (the same artifact
/// `tcdm_run gen --seed N` emits).
LoadedSuite gen_suite(std::uint64_t seed, unsigned count) {
  GenOptions opts;
  opts.seed = seed;
  opts.count = count;
  return scenario::parse_suite(scenario::generate_suite(opts), "<gen>");
}

/// Unique scratch path inside the gtest temp dir.
std::string scratch(const std::string& name) {
  return ::testing::TempDir() + "tcdm_explore_" + name;
}

// ------------------------------------------------ canonical config hash ----

TEST(ConfigHash, PresetSugarAndExplicitSpellingHashIdentically) {
  // The same design point written two ways: preset + burst sugar, and the
  // fully expanded field-by-field JSON the first one resolves to.
  Json sugar;
  sugar.set("preset", "mp4spatz4");
  Json burst;
  burst.set("gf", 4);
  sugar.set("burst", std::move(burst));

  FileScenario a;
  a.rel = "a";
  a.config = ClusterConfig::from_json(sugar);
  a.kernel = scenario::KernelSpec::from_json([] {
    Json k;
    k.set("kind", "dotp");
    k.set("n", 1024);
    return k;
  }());

  FileScenario b = a;
  b.rel = "b";  // identity is the design point, not the scenario name
  b.config = ClusterConfig::from_json(a.config.to_json());

  EXPECT_EQ(canonical_key(a), canonical_key(b));
  EXPECT_EQ(canonical_point_json(a).dump(), canonical_point_json(b).dump());
}

TEST(ConfigHash, HostSimOptionsDoNotAffectTheKey) {
  FileScenario a;
  a.config = ClusterConfig::by_name("mp4spatz4");
  a.kernel = scenario::KernelSpec::from_json([] {
    Json k;
    k.set("kind", "axpy");
    k.set("n", 512);
    return k;
  }());
  FileScenario b = a;
  b.opts.sim.stepping = SteppingMode::kCycleByCycle;  // bit-identical results, so the same key
  EXPECT_EQ(canonical_key(a), canonical_key(b));
}

TEST(ConfigHash, KeysMatchTheRecordedSpelling) {
  // Memo stores on disk are keyed by these digests, so a change to the
  // canonical spelling orphans every one of them and must come with a
  // kCacheSchemaVersion bump. Recorded at cache schema version 3.
  FileScenario cluster_point;
  cluster_point.rel = "pinned";
  cluster_point.config = ClusterConfig::by_name("mp4spatz4");
  cluster_point.kernel = scenario::KernelSpec::from_json([] {
    Json k;
    k.set("kind", "dotp");
    k.set("n", 1024);
    return k;
  }());
  FileScenario system_point = cluster_point;
  SystemConfig sys;
  sys.name = "halo";
  sys.num_clusters = 4;
  sys.barrier_kind = BarrierKind::kTree;
  sys.dma_words = 256;
  system_point.system = sys;

  EXPECT_EQ(canonical_key(cluster_point), "3c0de26456c1d39f59372cf10ef220ed");
  EXPECT_EQ(canonical_key(system_point), "2325c91f27e4c0bb6658ee9739b77308");
}

TEST(ConfigHash, EverySimulationRelevantFieldChangesTheKey) {
  FileScenario base;
  base.config = ClusterConfig::by_name("mp4spatz4");
  base.kernel = scenario::KernelSpec::from_json([] {
    Json k;
    k.set("kind", "dotp");
    k.set("n", 1024);
    return k;
  }());

  std::vector<FileScenario> variants;
  {  // config change
    FileScenario v = base;
    Json cfg = base.config.to_json();
    cfg.set("vlen_bits", 1024);
    v.config = ClusterConfig::from_json(cfg);
    variants.push_back(v);
  }
  {  // kernel parameter change
    FileScenario v = base;
    v.kernel.params["n"] = Json(2048);
    variants.push_back(v);
  }
  {  // kernel kind change
    FileScenario v = base;
    v.kernel = scenario::KernelSpec::from_json([] {
      Json k;
      k.set("kind", "axpy");
      k.set("n", 1024);
      return k;
    }());
    variants.push_back(v);
  }
  {  // runner option change
    FileScenario v = base;
    v.opts.verify = !base.opts.verify;
    variants.push_back(v);
  }
  {  // runner cycle-cap change
    FileScenario v = base;
    v.opts.max_cycles = base.opts.max_cycles + 1;
    variants.push_back(v);
  }
  {  // expectation change
    FileScenario v = base;
    v.expect_verified = !base.expect_verified;
    variants.push_back(v);
  }

  const std::string base_key = canonical_key(base);
  EXPECT_EQ(base_key.size(), 32u);
  std::vector<std::string> keys{base_key};
  for (const FileScenario& v : variants) keys.push_back(canonical_key(v));
  for (std::size_t i = 0; i < keys.size(); ++i) {
    for (std::size_t j = i + 1; j < keys.size(); ++j) {
      EXPECT_NE(keys[i], keys[j]) << "variants " << i << " and " << j;
    }
  }
}

TEST(ConfigHash, KeyIsStableAcrossProcessRestarts) {
  // The key must be a pure function of the design point — no pointers, no
  // iteration-order dependence. Lock one known digest so an accidental
  // serialization change (which would orphan every existing cache) fails
  // loudly here instead of silently invalidating stores in the field.
  FileScenario p;
  p.config = ClusterConfig::by_name("mp4spatz4");
  p.kernel = scenario::KernelSpec::from_json([] {
    Json k;
    k.set("kind", "dotp");
    k.set("n", 256);
    return k;
  }());
  EXPECT_EQ(canonical_key(p), canonical_key(p));
  EXPECT_EQ(digest128("tcdm"), digest128("tcdm"));
  EXPECT_NE(digest128("tcdm"), digest128("tcdM"));
}

// ------------------------------------------------------ Pareto frontier ----

TEST(Pareto, RandomizedInsertionKeepsInvariants) {
  std::mt19937 rng(12345);
  std::uniform_real_distribution<double> coord(0.0, 100.0);
  ParetoFrontier frontier;
  std::vector<FrontierPoint> rejected;
  for (int i = 0; i < 500; ++i) {
    FrontierPoint p;
    p.rel = "p" + std::to_string(i);
    p.area_mge = coord(rng);
    p.metrics.bw_bytes_per_cycle = coord(rng);
    if (!frontier.insert(p)) rejected.push_back(p);

    // Invariant 1: members are mutually non-dominated and sorted by area.
    const auto& pts = frontier.points();
    for (std::size_t a = 0; a < pts.size(); ++a) {
      if (a + 1 < pts.size()) ASSERT_LE(pts[a].area_mge, pts[a + 1].area_mge);
      for (std::size_t b = 0; b < pts.size(); ++b) {
        if (a == b) continue;
        ASSERT_FALSE(dominates(pts[a], pts[b]))
            << pts[a].rel << " dominates member " << pts[b].rel;
      }
    }
  }
  ASSERT_FALSE(rejected.empty());
  ASSERT_FALSE(frontier.points().empty());

  // Invariant 2: every rejected point is weakly dominated by some member of
  // the *final* frontier (dominance only ever tightens).
  for (const FrontierPoint& r : rejected) {
    bool dominated = false;
    for (const FrontierPoint& m : frontier.points()) {
      if (dominates(m, r)) {
        dominated = true;
        break;
      }
    }
    EXPECT_TRUE(dominated) << r.rel << " was rejected but is not dominated";
  }
}

TEST(Pareto, DominatingInsertEvictsEveryDominatedMember) {
  ParetoFrontier f;
  auto mk = [](double area, double bw) {
    FrontierPoint p;
    p.area_mge = area;
    p.metrics.bw_bytes_per_cycle = bw;
    return p;
  };
  EXPECT_TRUE(f.insert(mk(10, 5)));
  EXPECT_TRUE(f.insert(mk(20, 8)));
  EXPECT_TRUE(f.insert(mk(30, 9)));
  ASSERT_EQ(f.size(), 3u);
  // Cheaper than all and at least as valuable: sweeps the board.
  EXPECT_TRUE(f.insert(mk(5, 9)));
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f.points()[0].area_mge, 5.0);
  // Exact duplicate is rejected (first-come tie-breaking).
  EXPECT_FALSE(f.insert(mk(5, 9)));
  ASSERT_EQ(f.size(), 1u);
}

TEST(Pareto, BandwidthBoundDominatesAchievedBandwidth) {
  // The exact-pruning guarantee: for any simulated metrics,
  // bw_bytes_per_cycle <= peak_bw_bound(cfg, system).
  const auto expect_bounded = [](const std::string& name, const ClusterConfig& cfg,
                                 const std::optional<SystemConfig>& system,
                                 const KernelMetrics& m) {
    EXPECT_LE(m.bw_bytes_per_cycle, peak_bw_bound(cfg, system)) << name;
  };

  const ClusterConfig cfg = ClusterConfig::by_name("mp4spatz4");
  KernelMetrics best;
  best.cycles = 1000;
  best.bw_bytes_per_cycle = cfg.cluster_peak_bw();  // best physically possible
  expect_bounded("peak", cfg, std::nullopt, best);

  // Every simulated point of a generated suite, System points included: a
  // System's bandwidth sums N clusters plus the NoC payload, far past one
  // cluster's peak (seed 7: c8 and c14 exceed it 2x and 2.7x).
  const LoadedSuite suite = gen_suite(7, 24);
  std::vector<scenario::ScenarioSpec> specs;
  for (const FileScenario& sc : suite.scenarios) {
    specs.push_back(scenario::to_scenario_spec(suite.suite.name, sc));
  }
  std::vector<const scenario::ScenarioSpec*> ptrs;
  for (const scenario::ScenarioSpec& s : specs) ptrs.push_back(&s);
  scenario::SweepOptions sweep;
  sweep.jobs = 2;
  const std::vector<scenario::ScenarioResult> results = scenario::run_scenarios(ptrs, sweep);
  std::size_t systems = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const FileScenario& sc = suite.scenarios[i];
    ASSERT_TRUE(results[i].ok()) << sc.rel << ": " << results[i].error;
    if (sc.system && sc.system->num_clusters > 1) ++systems;
    expect_bounded(sc.rel, sc.config, sc.system, results[i].metrics);
  }
  EXPECT_GT(systems, 0u);
}

// ----------------------------------------------------------- memo store ----

KernelMetrics awkward_metrics() {
  KernelMetrics m;
  m.config = "cfg";
  m.kernel = "k";
  m.size = "n=3";
  m.cycles = 1234567;
  m.flops = 1e9 / 3.0;
  m.bytes = 0.1;  // not exactly representable: exercises the round trip
  m.fpu_util = 1.0 / 3.0;
  m.flops_per_cycle = 6.02e23;
  m.gflops_ss = 1.25;
  m.gflops_tt = std::nan("");
  m.bw_bytes_per_cycle = 123.456789012345678;
  m.bw_per_core = 7.7;
  m.arithmetic_intensity = 0.25;
  m.verified = true;
  m.timed_out = false;
  return m;
}

TEST(MemoStore, FileBackedRoundTripIsBitExact) {
  const std::string path = scratch("memo_roundtrip.jsonl");
  std::remove(path.c_str());
  CachedResult in;
  in.rel = "c0/dotp";
  in.metrics = awkward_metrics();
  in.power.config = "cfg";
  in.power.fpu_w = 1.0 / 7.0;
  {
    MemoStore store(path);
    store.insert("k1", in);
    EXPECT_EQ(store.size(), 1u);
  }
  MemoStore reloaded(path);
  ASSERT_EQ(reloaded.size(), 1u);
  const CachedResult* out = reloaded.lookup("k1");
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->rel, in.rel);
  EXPECT_TRUE(out->ok());
  EXPECT_EQ(out->metrics.cycles, in.metrics.cycles);
  EXPECT_EQ(out->metrics.flops, in.metrics.flops);
  EXPECT_EQ(out->metrics.bytes, in.metrics.bytes);
  EXPECT_EQ(out->metrics.fpu_util, in.metrics.fpu_util);
  EXPECT_EQ(out->metrics.flops_per_cycle, in.metrics.flops_per_cycle);
  EXPECT_EQ(out->metrics.bw_bytes_per_cycle, in.metrics.bw_bytes_per_cycle);
  EXPECT_TRUE(std::isnan(out->metrics.gflops_tt));  // NaN survives as null
  EXPECT_EQ(out->power.fpu_w, in.power.fpu_w);
  EXPECT_EQ(reloaded.lookup("nope"), nullptr);
}

TEST(MemoStore, LastLineWinsForARewrittenKey) {
  const std::string path = scratch("memo_lastwins.jsonl");
  std::remove(path.c_str());
  CachedResult first;
  first.rel = "old";
  first.error = "timeout";
  CachedResult second;
  second.rel = "new";
  {
    MemoStore store(path);
    store.insert("k", first);
    store.insert("k", second);
  }
  MemoStore reloaded(path);
  ASSERT_EQ(reloaded.size(), 1u);
  EXPECT_EQ(reloaded.lookup("k")->rel, "new");
  EXPECT_TRUE(reloaded.lookup("k")->ok());
}

TEST(MemoStore, TornFinalLineIsToleratedAsACrashArtifact) {
  const std::string path = scratch("memo_torn.jsonl");
  std::remove(path.c_str());
  {
    MemoStore store(path);
    CachedResult r;
    r.rel = "good";
    store.insert("k", r);
  }
  {
    std::ofstream app(path, std::ios::binary | std::ios::app);
    app << "{\"key\":\"k2\",\"rel\":\"half";  // killed mid-append, no newline
  }
  MemoStore reloaded(path);  // must not throw
  EXPECT_EQ(reloaded.size(), 1u);
  EXPECT_NE(reloaded.lookup("k"), nullptr);
}

TEST(MemoStore, CorruptMiddleLineNamesPathAndLine) {
  const std::string path = scratch("memo_corrupt.jsonl");
  std::remove(path.c_str());
  {
    MemoStore store(path);
    CachedResult r;
    store.insert("k", r);
  }
  {
    std::ofstream app(path, std::ios::binary | std::ios::app);
    app << "not json\n{\"also\":\"broken\"}\n";
  }
  try {
    MemoStore reloaded(path);
    FAIL() << "expected ExploreFileError";
  } catch (const ExploreFileError& e) {
    EXPECT_NE(std::string(e.what()).find(path + ":3"), std::string::npos)
        << e.what();
  }
}

TEST(MemoStore, VersionMismatchIsRejectedWithThePath) {
  const std::string path = scratch("memo_version.jsonl");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "{\"schema\":\"tcdm-explore-cache\",\"schema_version\":999}\n";
  }
  try {
    MemoStore store(path);
    FAIL() << "expected ExploreFileError";
  } catch (const ExploreFileError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(path), std::string::npos) << msg;
    EXPECT_NE(msg.find("schema_version"), std::string::npos) << msg;
  }
}

// ------------------------------------------------------- explore driver ----

TEST(Explore, WarmCacheAnswersEverythingWithoutSimulating) {
  const LoadedSuite suite = gen_suite(7, 8);
  const std::string cache = scratch("warm_cache.jsonl");
  std::remove(cache.c_str());
  ExploreOptions opts;
  opts.cache_path = cache;
  opts.sweep.jobs = 2;

  const ExploreOutcome cold = run_explore(suite, opts);
  EXPECT_GT(cold.simulations, 0u);
  EXPECT_EQ(cold.cache_hits, 0u);

  const ExploreOutcome warm = run_explore(suite, opts);
  EXPECT_EQ(warm.simulations, 0u);
  EXPECT_EQ(warm.cache_hits + warm.pruned_area_cap + warm.pruned_dominated,
            warm.candidates);
  EXPECT_EQ(report_json(suite, opts, cold).dump(),
            report_json(suite, opts, warm).dump());
}

TEST(Explore, PrunedAndMemoizedSearchEqualsExhaustiveEnumeration) {
  for (const std::uint64_t seed : {3u, 11u}) {
    const LoadedSuite suite = gen_suite(seed, 8);

    ExploreOptions exhaustive;
    exhaustive.prune = false;
    const ExploreOutcome full = run_explore(suite, exhaustive);

    ExploreOptions pruned;
    pruned.prune = true;
    pruned.sweep.jobs = 4;
    const ExploreOutcome fast = run_explore(suite, pruned);

    EXPECT_EQ(report_json(suite, exhaustive, full).dump(),
              report_json(suite, pruned, fast).dump())
        << "seed " << seed;
    EXPECT_EQ(full.pruned_dominated, 0u);
    EXPECT_EQ(fast.simulations + fast.pruned_dominated + fast.pruned_area_cap,
              fast.candidates)
        << "seed " << seed;
  }
}

TEST(Explore, BudgetStopsGracefullyAndARerunFromTheCacheFinishes) {
  const LoadedSuite suite = gen_suite(5, 8);
  const std::string cache = scratch("budget_cache.jsonl");
  std::remove(cache.c_str());

  ExploreOptions uninterrupted;
  const ExploreOutcome reference = run_explore(suite, uninterrupted);

  ExploreOptions budgeted;
  budgeted.budget = 3;
  budgeted.cache_path = cache;
  const ExploreOutcome part1 = run_explore(suite, budgeted);
  EXPECT_TRUE(part1.budget_exhausted);
  EXPECT_EQ(part1.simulations, 3u);

  // The same search again, unbudgeted: it starts over at candidate 0, the
  // three simulated points are free hits, and the waves and pruning
  // decisions are those of the uninterrupted run.
  ExploreOptions rerun = budgeted;
  rerun.budget = 0;
  const ExploreOutcome part2 = run_explore(suite, rerun);
  EXPECT_FALSE(part2.budget_exhausted);
  EXPECT_EQ(part2.cache_hits, 3u);
  EXPECT_EQ(part1.simulations + part2.simulations, reference.simulations);
  EXPECT_EQ(report_json(suite, uninterrupted, reference).dump(),
            report_json(suite, rerun, part2).dump());
}

TEST(Explore, ACacheFromAnotherSearchCannotChangeTheReport) {
  // Memo keys are content hashes of the resolved design point, so a cache
  // filled by another suite answers exactly the points it simulated: the
  // report equals a cold search's.
  const std::string cache = scratch("foreign_cache.jsonl");
  std::remove(cache.c_str());
  ExploreOptions fill;
  fill.cache_path = cache;
  (void)run_explore(gen_suite(13, 6), fill);

  const LoadedSuite other = gen_suite(13, 12);  // shares the first points
  const ExploreOptions cold;
  ExploreOptions warm = cold;
  warm.cache_path = cache;
  const ExploreOutcome warm_out = run_explore(other, warm);
  EXPECT_GT(warm_out.cache_hits, 0u);
  EXPECT_EQ(report_json(other, cold, run_explore(other, cold)).dump(),
            report_json(other, warm, warm_out).dump());
}

TEST(Explore, AreaCapMakesEveryCandidateInadmissible) {
  const LoadedSuite suite = gen_suite(21, 6);
  ExploreOptions opts;
  opts.area_cap_mge = 1e-9;  // nothing is this small
  const ExploreOutcome out = run_explore(suite, opts);
  EXPECT_EQ(out.pruned_area_cap, out.candidates);
  EXPECT_EQ(out.simulations, 0u);
  EXPECT_TRUE(out.frontier.empty());
}

TEST(Explore, ReportIsIndependentOfJobsAndWaveScheduling) {
  const LoadedSuite suite = gen_suite(17, 8);
  ExploreOptions serial;
  serial.sweep.jobs = 1;
  ExploreOptions parallel;
  parallel.sweep.jobs = 8;
  EXPECT_EQ(report_json(suite, serial, run_explore(suite, serial)).dump(),
            report_json(suite, parallel, run_explore(suite, parallel)).dump());
}

}  // namespace
}  // namespace tcdm::explore
