// Builtin ablation suites: burst-length/pattern sensitivity, grouping-
// factor sweep, ROB depth, store bursts and the strided-burst extension.
// All sweeps and sizes match the recorded baselines/ documents.
#include <cstdio>
#include <iostream>
#include <vector>

#include "src/analytics/bandwidth_model.hpp"
#include "src/analytics/report.hpp"
#include "src/scenario/builtin.hpp"
#include "src/scenario/builtin_points.hpp"

namespace tcdm::scenario {
namespace builtin {
namespace {

// ------------------------------------------------------ ablation_burst ----

void print_ablation_burst(const ResultSet& rs) {
  std::printf("\n=== Ablation: burst length cap (MP4Spatz4-GF4 random probe) ===\n");
  TableWriter tw({"max burst len", "BW [B/cyc/core]", "vs full-K bursts"});
  const double full = rs.metrics("maxlen4").bw_per_core;
  for (unsigned cap : {2u, 3u, 4u}) {
    const KernelMetrics& r = rs.metrics("maxlen" + std::to_string(cap));
    tw.add_row({std::to_string(cap), fmt(r.bw_per_core), delta(r.bw_per_core / full - 1.0)});
  }
  tw.print(std::cout);

  std::printf("\n=== Ablation: burst-eligible pattern (memcpy: unit loads, narrow stores) ===\n");
  TableWriter tm({"config", "BW [B/cyc/core]", "cycles"});
  const KernelMetrics& mb = rs.metrics("memcpy/baseline");
  const KernelMetrics& mg = rs.metrics("memcpy/gf4");
  tm.add_row({"baseline", fmt(mb.bw_per_core), std::to_string(mb.cycles)});
  tm.add_row({"gf4", fmt(mg.bw_per_core), std::to_string(mg.cycles)});
  tm.print(std::cout);
  std::printf("memcpy gains come only from the load half: stores never burst\n"
              "(paper bursts loads only), capping the end-to-end speedup at ~2x\n"
              "even with GF4 (measured %s).\n",
              delta(static_cast<double>(mb.cycles) / mg.cycles - 1.0).c_str());
}

LoadedSuite ablation_burst() {
  LoadedSuite s = make_suite(
      "ablation_burst",
      "Ablation: max burst length cap (MP4Spatz4-GF4 random probe) "
      "and burst-eligible vs ineligible access patterns (memcpy "
      "baseline vs GF4)",
      print_ablation_burst);
  for (unsigned cap : {2u, 3u, 4u}) {
    ClusterConfig cfg = preset_config("mp4spatz4", 4);
    cfg.max_burst_len = cap;
    s.scenarios.push_back(point("maxlen" + std::to_string(cap), cfg,
                                {"random_probe", {{"iters", 256}}}, 10'000'000, false));
  }
  for (unsigned gf : {0u, 4u}) {
    s.scenarios.push_back(point("memcpy/" + variant_name(gf), preset_config("mp4spatz4", gf),
                                {"memcpy", {{"n", 4096}}}, 10'000'000));
  }
  return s;
}

// --------------------------------------------------------- ablation_gf ----

void print_ablation_gf(const ResultSet& rs) {
  std::printf("\n=== Ablation: grouping factor sweep on MP64Spatz4 (K = 4) ===\n");
  TableWriter tw({"GF", "model BW [B/cyc]", "probe BW [B/cyc]", "probe util",
                  "dotp GFLOPS@ss", "dotp speedup"});
  const ClusterConfig cfg = ClusterConfig::mp64spatz4();
  const double dotp0 = rs.metrics("dotp/gf0").gflops_ss;
  for (unsigned gf : {0u, 2u, 4u, 8u}) {
    const unsigned eff = gf == 0 ? 1 : gf;
    const KernelMetrics& p = rs.metrics("probe/gf" + std::to_string(gf));
    const KernelMetrics& d = rs.metrics("dotp/gf" + std::to_string(gf));
    tw.add_row({gf == 0 ? "base" : std::to_string(gf),
                fmt(model::hier_avg_bw(cfg.num_cores(), cfg.vlsu_ports, eff)),
                fmt(p.bw_per_core), pct(p.bw_per_core / cfg.vlsu_peak_bw()),
                fmt(d.gflops_ss), delta(d.gflops_ss / dotp0 - 1.0)});
  }
  tw.print(std::cout);
  std::printf("GF8 == GF4 by eq. (3): a burst never exceeds K = 4 words, so wider\n"
              "response channels cannot carry more than one burst's words per beat.\n");
}

LoadedSuite ablation_gf() {
  LoadedSuite s = make_suite(
      "ablation_gf",
      "Ablation: grouping-factor sweep beyond the paper's GF2/GF4 "
      "on MP64Spatz4 — analytical saturation at GF == K and its "
      "simulated track",
      print_ablation_gf);
  for (unsigned gf : {0u, 2u, 4u, 8u}) {
    s.scenarios.push_back(point("probe/gf" + std::to_string(gf),
                                preset_config("mp64spatz4", gf),
                                {"random_probe", {{"iters", 128}}}, 10'000'000, false));
  }
  for (unsigned gf : {0u, 2u, 4u, 8u}) {
    s.scenarios.push_back(point("dotp/gf" + std::to_string(gf), preset_config("mp64spatz4", gf),
                                {"dotp", {{"n", 65536}}}, 10'000'000));
  }
  return s;
}

// -------------------------------------------------------- ablation_rob ----

void print_ablation_rob(const ResultSet& rs) {
  std::printf("\n=== Ablation: ROB depth per VLSU port (MP64Spatz4 random probe) ===\n");
  TableWriter tw({"ROB depth/port", "baseline BW [B/cyc]", "GF4 BW [B/cyc]"});
  for (unsigned rob : {4u, 8u, 16u, 32u}) {
    tw.add_row({std::to_string(rob),
                fmt(rs.metrics("rob" + std::to_string(rob) + "/gf0").bw_per_core),
                fmt(rs.metrics("rob" + std::to_string(rob) + "/gf4").bw_per_core)});
  }
  tw.print(std::cout);
  std::printf("The GF4 configuration needs more outstanding words to keep its 4x\n"
              "response bandwidth busy — the reason the paper doubles the ROB.\n");
}

LoadedSuite ablation_rob() {
  LoadedSuite s = make_suite(
      "ablation_rob",
      "Ablation: per-port ROB depth sweep (latency tolerance) for "
      "baseline and GF4 on MP64Spatz4",
      print_ablation_rob);
  for (unsigned rob : {4u, 8u, 16u, 32u}) {
    for (unsigned gf : {0u, 4u}) {
      ClusterConfig cfg = preset_config("mp64spatz4", gf);
      cfg.rob_depth = rob;  // override (with_burst already doubled the default)
      s.scenarios.push_back(point("rob" + std::to_string(rob) + "/gf" + std::to_string(gf),
                                  cfg, {"random_probe", {{"iters", 128}}}, 10'000'000,
                                  false));
    }
  }
  return s;
}

// ------------------------------------------------------ ablation_store ----

constexpr unsigned kStoreCopyElems = 16384;
constexpr unsigned kStoreTransposeN = 128;

void print_ablation_store(const ResultSet& rs) {
  std::printf(
      "\n=== Ablation: store bursts on MP64Spatz4 (memcpy n=%u, transpose %ux%u) ===\n",
      kStoreCopyElems, kStoreTransposeN, kStoreTransposeN);
  TableWriter tw({"config", "memcpy [cyc]", "vs GF4", "transpose [cyc]", "vs GF4"});
  const double m0 = static_cast<double>(rs.metrics("memcpy/st0").cycles);
  const double t0 = static_cast<double>(rs.metrics("transpose/st0").cycles);
  const char* label[] = {"GF4 (paper, loads only)", "GF4 + store bursts, 1-word req ch.",
                         "GF4 + store bursts, 2-word req ch.",
                         "GF4 + store bursts, 4-word req ch."};
  const unsigned cfgs[] = {0u, 1u, 2u, 4u};
  for (unsigned i = 0; i < 4; ++i) {
    const KernelMetrics& m = rs.metrics("memcpy/st" + std::to_string(cfgs[i]));
    const KernelMetrics& t = rs.metrics("transpose/st" + std::to_string(cfgs[i]));
    tw.add_row({label[i], std::to_string(m.cycles), delta(m0 / m.cycles - 1.0),
                std::to_string(t.cycles), delta(t0 / t.cycles - 1.0)});
  }
  tw.print(std::cout);
  std::printf(
      "Over the unmodified request channel a store burst's payload still\n"
      "streams word by word; the residual gain comes from occupying one\n"
      "request-FIFO entry per burst instead of per word (RTL with per-word\n"
      "buffering would see close to 0%%). The full win requires widening\n"
      "the request data field — the same routing cost the paper spent on\n"
      "the response side instead, where loads benefit every kernel and no\n"
      "extra payload buffering is needed.\n"
      "Transpose's strided stores never coalesce in any configuration.\n");
}

LoadedSuite ablation_store() {
  LoadedSuite s = make_suite(
      "ablation_store",
      "Ablation: store-burst extension on MP64Spatz4-GF4 — narrow "
      "vs widened request channel, unit-stride (memcpy) vs "
      "strided (transpose) stores",
      print_ablation_store);
  const std::pair<const char*, KernelSpec> kernels[] = {
      {"memcpy", {"memcpy", {{"n", kStoreCopyElems}}}},
      {"transpose", {"transpose", {{"n", kStoreTransposeN}}}},
  };
  for (const auto& [name, spec] : kernels) {
    for (unsigned req_gf : {0u, 1u, 2u, 4u}) {
      ClusterConfig cfg = preset_config("mp64spatz4", 4);
      if (req_gf > 0) cfg = cfg.with_store_bursts(req_gf);
      s.scenarios.push_back(
          point(std::string(name) + "/st" + std::to_string(req_gf), cfg, spec, 20'000'000));
    }
  }
  return s;
}

// ----------------------------------------------------- ablation_stride ----

constexpr unsigned kStrideElems = 8192;

void print_ablation_stride(const ResultSet& rs) {
  std::printf(
      "\n=== Ablation: strided-burst extension on MP64Spatz4 "
      "(strided copy, %u elements, banks/tile = 4) ===\n",
      kStrideElems);
  TableWriter tw({"stride [words]", "baseline [cyc]", "GF4 [cyc]", "GF4+strided [cyc]",
                  "ext vs GF4", "ext vs baseline"});
  for (unsigned stride : {1u, 2u, 3u, 4u, 8u}) {
    // Split concatenation sidesteps a GCC-12 -Wrestrict false positive on
    // chained operator+ over std::to_string temporaries.
    std::string prefix = "s";
    prefix += std::to_string(stride);
    const KernelMetrics& b = rs.metrics(prefix + "/base");
    const KernelMetrics& g = rs.metrics(prefix + "/gf4");
    const KernelMetrics& e = rs.metrics(prefix + "/gf4sb");
    tw.add_row({std::to_string(stride), std::to_string(b.cycles),
                std::to_string(g.cycles), std::to_string(e.cycles),
                delta(static_cast<double>(g.cycles) / e.cycles - 1.0),
                delta(static_cast<double>(b.cycles) / e.cycles - 1.0)});
  }
  tw.print(std::cout);
  std::printf(
      "The paper's design keys on the VLE opcode, so vlse32 traffic never\n"
      "bursts in plain GF4 (baseline == GF4 here). The extension coalesces\n"
      "stride 1 (a vle32 in disguise) fully and strides 2..3 into shorter\n"
      "runs; at stride >= banks/tile = 4 every element maps to a different\n"
      "tile and the extension correctly degrades to narrow behaviour.\n");
}

LoadedSuite ablation_stride() {
  LoadedSuite s = make_suite(
      "ablation_stride",
      "Ablation: strided-burst extension (future work beyond paper "
      "§II-C) — strided-copy stride sweep on MP64Spatz4, baseline / "
      "GF4 / GF4+strided",
      print_ablation_stride);
  const ClusterConfig gf4 = preset_config("mp64spatz4", 4);
  const std::pair<const char*, ClusterConfig> variants[] = {
      {"/base", preset_config("mp64spatz4", 0)},
      {"/gf4", gf4},
      {"/gf4sb", gf4.with_strided_bursts()},
  };
  for (unsigned stride : {1u, 2u, 3u, 4u, 8u}) {
    // Split concatenation sidesteps a GCC-12 -Wrestrict false positive on
    // chained operator+ over std::to_string temporaries.
    std::string prefix = "s";
    prefix += std::to_string(stride);
    for (const auto& [tag, cfg] : variants) {
      s.scenarios.push_back(
          point(prefix + tag, cfg,
                {"strided_copy", {{"n", kStrideElems}, {"stride_words", stride}}},
                20'000'000));
    }
  }
  return s;
}

}  // namespace

const std::vector<LoadedSuite>& ablation_suites() {
  static const std::vector<LoadedSuite> suites = {ablation_burst(), ablation_gf(),
                                                  ablation_rob(), ablation_store(),
                                                  ablation_stride()};
  return suites;
}

}  // namespace builtin
}  // namespace tcdm::scenario
