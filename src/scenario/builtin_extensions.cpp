// Builtin extension suites: the kernel-coverage extension study, the
// area-bandwidth Pareto sweep, synthetic traffic patterns, and the two
// interactive studies (bandwidth explorer, scaling study), run as
// `tcdm_run run 'explorer/*'` and `tcdm_run run 'scaling/*'`. The studies
// register like everything else but opt out of default emission: they are
// exploration tools, not gated claims.
#include <cstdio>
#include <iostream>
#include <utility>
#include <vector>

#include "src/analytics/area_model.hpp"
#include "src/analytics/bandwidth_model.hpp"
#include "src/analytics/report.hpp"
#include "src/scenario/builtin.hpp"
#include "src/scenario/builtin_points.hpp"

namespace tcdm::scenario {
namespace builtin {
namespace {

// -------------------------------------------------------- ext_kernels -----

/// An extension kernel at its MP4Spatz4 and MP64Spatz4 sizes.
struct ExtKernel {
  std::string name;
  KernelSpec small, big;
};

const std::vector<ExtKernel>& ext_kernels() {
  // GEMV's A must fit TCDM: 256x512 fp32 = 512 KiB of MP64's 1 MiB; 32x128
  // = 16 KiB of MP4's 64 KiB.
  static const std::vector<ExtKernel> k = {
      {"gemv", {"gemv", {{"m", 32}, {"n", 128}}}, {"gemv", {{"m", 256}, {"n", 512}}}},
      {"conv2d", {"conv2d", {{"h", 34}, {"w", 66}}}, {"conv2d", {{"h", 130}, {"w", 130}}}},
      {"jacobi2d",
       {"jacobi2d", {{"h", 34}, {"w", 66}}},
       {"jacobi2d", {{"h", 130}, {"w", 130}}}},
      {"relu", {"relu", {{"n", 4096}}}, {"relu", {{"n", 65536}}}},
      {"maxpool2x2",
       {"maxpool2x2", {{"h", 16}, {"w", 48}}},
       {"maxpool2x2", {{"h", 64}, {"w", 128}}}},
      {"transpose", {"transpose", {{"n", 48}}}, {"transpose", {{"n", 128}}}},
  };
  return k;
}

void print_ext_kernels(const ResultSet& rs) {
  for (const bool big : {false, true}) {
    std::printf("\n=== Extension kernels on %s: baseline vs GF4 ===\n",
                big ? "MP64Spatz4" : "MP4Spatz4");
    TableWriter tw({"kernel", "size", "AI [FLOP/B]", "base [cyc]", "GF4 [cyc]",
                    "speedup", "base BW [B/cyc/core]", "GF4 BW [B/cyc/core]",
                    "GF4 FPU util"});
    for (const ExtKernel& k : ext_kernels()) {
      const std::string& kernel = k.name;
      const std::string tag = kernel + (big ? "/mp64" : "/mp4");
      const KernelMetrics& b = rs.metrics(tag + "/base");
      const KernelMetrics& g = rs.metrics(tag + "/gf4");
      tw.add_row({kernel, g.size, fmt(g.arithmetic_intensity), std::to_string(b.cycles),
                  std::to_string(g.cycles),
                  fmt(static_cast<double>(b.cycles) / g.cycles, 2) + "x",
                  fmt(b.bw_per_core), fmt(g.bw_per_core), pct(g.fpu_util)});
    }
    tw.print(std::cout);
  }
  std::printf(
      "All kernels verify against host golden models in every configuration.\n"
      "MaxPool2x2 barely moves: all its loads are stride-2 vlse32, which the\n"
      "paper's VLE-keyed design never bursts (see the ablation_stride suite for\n"
      "the strided-burst extension that recovers it). Transpose moves no\n"
      "FLOPs; its speedup bounds store-dominated traffic (loads burst,\n"
      "strided stores serialize unchanged).\n");
}

LoadedSuite ext_kernels_suite() {
  LoadedSuite s = make_suite(
      "ext_kernels",
      "Extension kernels (GEMV, Conv2D, Jacobi2D, ReLU, MaxPool, "
      "Transpose) on MP4Spatz4 and MP64Spatz4, baseline vs GF4 — "
      "the memory-bound roofline region the paper does not evaluate",
      print_ext_kernels);
  for (const ExtKernel& k : ext_kernels()) {
    for (const bool big : {false, true}) {
      for (unsigned gf : {0u, 4u}) {
        s.scenarios.push_back(point(k.name + (big ? "/mp64" : "/mp4") + (gf ? "/gf4" : "/base"),
                                    preset_config(big ? "mp64spatz4" : "mp4spatz4", gf),
                                    big ? k.big : k.small, 20'000'000));
      }
    }
  }
  return s;
}

// ----------------------------------------------------- pareto_area_bw -----

void print_pareto(const ResultSet& rs) {
  std::printf("\n=== Ablation: area vs bandwidth Pareto across grouping factors ===\n");
  TableWriter tw({"config", "GF", "probe BW [B/cyc/core]", "logic area [MGE]",
                  "area overhead", "BW gain per +MGE"});
  for (const std::string preset : kTestbeds) {
    const ClusterConfig base_cfg = ClusterConfig::by_name(preset);
    const AreaBreakdown base_area = estimate_area(base_cfg);
    const double base_bw = rs.metrics(preset + "/gf0").bw_per_core;
    for (unsigned gf : {0u, 2u, 4u, 8u}) {
      const ClusterConfig cfg = preset_config(preset, gf);
      const AreaBreakdown area = estimate_area(cfg);
      const KernelMetrics& m = rs.metrics(preset + "/gf" + std::to_string(gf));
      const double extra_mge = (area.total() - base_area.total()) / 1e6;
      const double gain_per_mge =
          extra_mge > 0.0 ? (m.bw_per_core - base_bw) * cfg.num_cores() / extra_mge
                          : 0.0;
      tw.add_row({gf == 0 ? cfg.name : base_cfg.name, gf == 0 ? "-" : std::to_string(gf),
                  fmt(m.bw_per_core), fmt(area.total() / 1e6),
                  gf == 0 ? "-" : delta(area_overhead(base_area, area)),
                  gf == 0 ? "-" : fmt(gain_per_mge) + " B/cyc"});
    }
    tw.add_separator();
  }
  tw.print(std::cout);
  std::printf(
      "On the Spatz4 clusters bandwidth saturates at GF == K == 4 while\n"
      "response-channel area keeps growing: GF8 pays ~4%% extra area for\n"
      "zero bandwidth — the sweet spot is exactly the paper's GF4.\n"
      "On MP128Spatz8 (K = 8) gate count alone would justify GF4 or GF8;\n"
      "the paper ships GF2 because of routing CONGESTION — a wire-level\n"
      "constraint a logic-area model cannot see. This is a documented\n"
      "fidelity limit of the substitution (DESIGN.md section 1).\n");
}

/// Each variant's modeled logic area, then each probe's kernel metrics.
void emit_pareto(const ResultSet& rs, metrics::MetricsDoc& doc) {
  for (const std::string preset : kTestbeds) {
    for (unsigned gf : {0u, 2u, 4u, 8u}) {
      doc.add(preset + "/gf" + std::to_string(gf) + "/model/area_mge",
              estimate_area(preset_config(preset, gf)).total() / 1e6, metrics::kModelRelTol);
    }
  }
  for (const ScenarioResult& r : rs.all()) doc.add_kernel_metrics(r.rel, r.metrics);
}

LoadedSuite pareto() {
  LoadedSuite s = make_suite(
      "pareto_area_bw",
      "Ablation: area-bandwidth Pareto front across grouping "
      "factors — random-probe bandwidth vs modeled logic area per "
      "cluster scale",
      print_pareto, emit_pareto);
  for (const std::string preset : kTestbeds) {
    for (unsigned gf : {0u, 2u, 4u, 8u}) {
      // No "iters": the probe runs the kind's auto-scaled count.
      s.scenarios.push_back(point(preset + "/gf" + std::to_string(gf),
                                  preset_config(preset, gf), {"random_probe", {}}, 10'000'000,
                                  false));
    }
  }
  return s;
}

// ----------------------------------------------------- trace_patterns -----

constexpr const char* kTracePatterns[] = {"local", "neighbor", "uniform", "hotspot"};

void print_trace_patterns(const ResultSet& rs) {
  std::printf(
      "\n=== Synthetic traffic patterns on MP64Spatz4 (trace replay, 64 "
      "accesses/hart) ===\n");
  TableWriter tw({"pattern", "base BW [B/cyc/core]", "GF4 BW [B/cyc/core]",
                  "burst gain", "base cycles", "GF4 cycles"});
  for (const std::string pattern : kTracePatterns) {
    const KernelMetrics& b = rs.metrics(pattern + "/base");
    const KernelMetrics& g = rs.metrics(pattern + "/gf4");
    tw.add_row({pattern, fmt(b.bw_per_core), fmt(g.bw_per_core),
                delta(g.bw_per_core / b.bw_per_core - 1.0), std::to_string(b.cycles),
                std::to_string(g.cycles)});
  }
  tw.print(std::cout);
  std::printf(
      "Local traffic rides the full-width tile crossbar — bursts change\n"
      "nothing. Neighbor and uniform remote traffic gain the response-width\n"
      "factor. The hotspot is serialized by the hot tile's banks and\n"
      "response ports, not by the requesters' channels, so bursts recover\n"
      "only part of the loss — congestion the paper's Fig. 1 attributes to\n"
      "port competition remains when the destination itself is the\n"
      "bottleneck.\n");
}

LoadedSuite trace_patterns() {
  LoadedSuite s = make_suite(
      "trace_patterns",
      "Synthetic traffic study: local/neighbor/uniform/hotspot "
      "trace replay on MP64Spatz4, baseline vs GF4",
      print_trace_patterns);
  for (const std::string pattern : kTracePatterns) {
    for (unsigned gf : {0u, 4u}) {
      s.scenarios.push_back(
          point(pattern + (gf ? "/gf4" : "/base"), preset_config("mp64spatz4", gf),
                {"trace_replay", {{"pattern", pattern}, {"entries_per_hart", 64}, {"seed", 31}}},
                20'000'000, false));
    }
  }
  return s;
}

// ----------------------------------------------------------- explorer -----

// GF8 rides along for parity with the ablation_gf sweep.
constexpr unsigned kExplorerGfs[] = {0u, 2u, 4u, 8u};

constexpr const char* kExplorerPatterns[] = {"uniform", "remote", "local"};

/// Measured bandwidth per probe pattern next to the hierarchical-average
/// model (eq. 5), each cell as B/cycle/core and its share of the VLSU peak.
void print_explorer(const ResultSet& rs) {
  std::printf("\n=== Bandwidth explorer: B/cycle/core (%% of VLSU peak) ===\n");
  TableWriter tw({"config", "variant", "uniform", "remote-only", "local-only",
                  "model (eq. 5)"});
  const auto cell = [](double bw, double util) {
    std::string s = fmt(bw);
    s += " (";
    s += pct(util, 1);
    s += ")";
    return s;
  };
  for (const std::string preset : kTestbeds) {
    if (preset != kTestbeds[0]) tw.add_separator();
    for (const unsigned gf : kExplorerGfs) {
      const ClusterConfig cfg = preset_config(preset, gf);
      const std::string variant = variant_name(gf);
      std::vector<std::string> row = {preset, variant};
      for (const char* pattern : kExplorerPatterns) {
        const double bw = rs.metrics(preset + "/" + variant + "/" + pattern).bw_per_core;
        row.push_back(cell(bw, bw / cfg.vlsu_peak_bw()));
      }
      const unsigned eff_gf = cfg.burst_enabled ? cfg.grouping_factor : 1;
      row.push_back(cell(model::hier_avg_bw(cfg.num_cores(), cfg.vlsu_ports, eff_gf),
                         model::utilization(cfg.num_cores(), cfg.vlsu_ports, eff_gf)));
      tw.add_row(row);
    }
  }
  tw.print(std::cout);
  std::printf(
      "Local-only traffic never leaves the tile; remote-only traffic is\n"
      "what TCDM Burst speeds up, and uniform traffic mixes the two as the\n"
      "model's hierarchical average does.\n");
}

LoadedSuite explorer() {
  LoadedSuite s = make_suite(
      "explorer",
      "Bandwidth explorer: per-preset hierarchical-average "
      "bandwidth under uniform / remote-only / local-only probe "
      "traffic (interactive study)",
      print_explorer);
  s.suite.emit_by_default = false;
  for (const std::string preset : kTestbeds) {
    for (const unsigned gf : kExplorerGfs) {
      for (const char* pattern : kExplorerPatterns) {
        s.scenarios.push_back(point(preset + "/" + variant_name(gf) + "/" + pattern,
                                    preset_config(preset, gf),
                                    {"random_probe", {{"pattern", pattern}}}, 5'000'000,
                                    false));
      }
    }
  }
  return s;
}

// ------------------------------------------------------------ scaling -----

/// A MemPool-style configuration with `tiles` tiles of 4 FPUs each,
/// grouped 16 tiles per group above 16 tiles (the MP64Spatz4 pattern).
ClusterConfig scaled_config(unsigned tiles) {
  ClusterConfig c = ClusterConfig::mp4spatz4();
  c.name = "mp" + std::to_string(tiles) + "spatz4";
  c.num_tiles = tiles;
  if (tiles <= 16) {
    c.level_sizes = {tiles};
    c.level_latency = {{1, 1}};
    if (tiles > 1) {
      c.level_sizes = {1, tiles};
      c.level_latency = {{1, 1}, {1, 1}};
    }
  } else {
    c.level_sizes = {16, tiles / 16};
    c.level_latency = {{1, 1}, {2, 2}};
  }
  return c;
}

constexpr unsigned kScalingTiles[] = {4u, 16u, 32u, 64u, 128u};

void print_scaling(const ResultSet& rs) {
  std::printf("Scaling study: DotP, 1024 elements per core, baseline vs GF4\n\n");
  std::printf("%8s %6s | %21s | %21s | %s\n", "", "", "baseline", "GF4 burst", "");
  std::printf("%8s %6s | %10s %10s | %10s %10s | %s\n", "tiles", "FPUs", "BW/core",
              "util", "BW/core", "util", "speedup");
  for (unsigned tiles : kScalingTiles) {
    const ClusterConfig base_cfg = scaled_config(tiles);
    const ClusterConfig gf4_cfg = base_cfg.with_burst(4);
    // Split concatenation sidesteps a GCC-12 -Wrestrict false positive on
    // chained operator+ over std::to_string temporaries.
    std::string prefix = "t";
    prefix += std::to_string(tiles);
    const KernelMetrics& base = rs.metrics(prefix + "/baseline");
    const KernelMetrics& gf4 = rs.metrics(prefix + "/gf4");
    std::printf("%8u %6u | %10.2f %9.1f%% | %10.2f %9.1f%% | %.2fx\n", tiles,
                base_cfg.num_fpus(), base.bw_per_core,
                100.0 * base.bw_per_core / base_cfg.vlsu_peak_bw(), gf4.bw_per_core,
                100.0 * gf4.bw_per_core / gf4_cfg.vlsu_peak_bw(),
                static_cast<double>(base.cycles) / gf4.cycles);
  }
  std::printf(
      "\nBaseline utilization collapses with scale (more remote traffic,\n"
      "same serialized ports); GF4 holds utilization high — the paper's\n"
      "scalability argument in one sweep.\n");
}

LoadedSuite scaling() {
  LoadedSuite s = make_suite(
      "scaling",
      "Scaling study: DotP with a constant per-core working set on "
      "4 -> 128 tiles (16 -> 512 FPUs), baseline vs GF4 "
      "(interactive study)",
      print_scaling);
  s.suite.emit_by_default = false;
  for (unsigned tiles : kScalingTiles) {
    const ClusterConfig cfg = scaled_config(tiles);
    const KernelSpec dotp{"dotp", {{"n", 1024 * cfg.num_cores()}}};
    std::string prefix = "t";
    prefix += std::to_string(tiles);
    s.scenarios.push_back(point(prefix + "/baseline", cfg, dotp, 20'000'000));
    s.scenarios.push_back(point(prefix + "/gf4", cfg.with_burst(4), dotp, 20'000'000));
  }
  return s;
}

}  // namespace

const std::vector<LoadedSuite>& extension_suites() {
  static const std::vector<LoadedSuite> suites = {ext_kernels_suite(), pareto(),
                                                  trace_patterns(), explorer(), scaling()};
  return suites;
}

}  // namespace builtin
}  // namespace tcdm::scenario
