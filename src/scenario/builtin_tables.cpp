// Builtin suites for the paper's headline artifacts: Table I (bandwidth),
// Table II (kernels + energy efficiency), Fig. 3 (rooflines) and Fig. 5
// (area/power breakdowns). Configurations, kernel sizes and runner options
// are the ones the original per-binary sweeps used, so the recorded
// baselines carry over unchanged.
#include <cstdio>
#include <iostream>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "src/analytics/area_model.hpp"
#include "src/analytics/bandwidth_model.hpp"
#include "src/analytics/report.hpp"
#include "src/analytics/roofline.hpp"
#include "src/scenario/builtin.hpp"
#include "src/scenario/builtin_points.hpp"

namespace tcdm::scenario {

void register_builtin() {
  static std::once_flag once;
  std::call_once(once, [] {
    ScenarioRegistry& reg = ScenarioRegistry::instance();
    builtin::register_tables(reg);
    builtin::register_ablations(reg);
    builtin::register_extensions(reg);
    builtin::register_system(reg);
  });
}

namespace builtin {

namespace {

void register_all(ScenarioRegistry& reg, const std::vector<LoadedSuite>& suites) {
  for (const LoadedSuite& suite : suites) register_loaded_suite(reg, suite);
}

}  // namespace

void register_tables(ScenarioRegistry& reg) { register_all(reg, table_suites()); }
void register_ablations(ScenarioRegistry& reg) { register_all(reg, ablation_suites()); }
void register_extensions(ScenarioRegistry& reg) { register_all(reg, extension_suites()); }
void register_system(ScenarioRegistry& reg) { register_all(reg, system_suites()); }

namespace {

/// A testbed's burst design point and its Table II / Fig. 3 kernel points,
/// whose problem sizes scale with the cluster.
struct Testbed {
  std::string preset;
  /// GF4, except GF2 on the 1024-FPU cluster (routing congestion, §III-B).
  unsigned design_gf;
  std::vector<std::pair<std::string, KernelSpec>> kernels;
};

const std::vector<Testbed>& testbeds() {
  static const std::vector<Testbed> t = {
      {"mp4spatz4",
       4,
       {{"dotp", {"dotp", {{"n", 4096}}}},
        {"fft", {"fft", {{"instances", 1}, {"n", 512}}}},
        {"matmul-s", {"matmul", {{"n", 16}, {"row_block", 4}}}},
        {"matmul-l", {"matmul", {{"n", 64}, {"row_block", 8}}}}}},
      {"mp64spatz4",
       4,
       {{"dotp", {"dotp", {{"n", 65536}}}},
        {"fft", {"fft", {{"instances", 4}, {"n", 2048}}}},
        {"matmul-s", {"matmul", {{"n", 64}, {"row_block", 4}}}},
        {"matmul-l", {"matmul", {{"n", 256}, {"row_block", 8}}}}}},
      {"mp128spatz8",
       2,
       {{"dotp", {"dotp", {{"n", 131072}}}},
        {"fft", {"fft", {{"instances", 8}, {"n", 4096}}}},
        {"matmul-s", {"matmul", {{"n", 128}, {"row_block", 4}}}},
        {"matmul-l", {"matmul", {{"n", 256}, {"row_block", 8}}}}}},
  };
  return t;
}

// ------------------------------------------------------------- Table I ----

void print_table1(const ResultSet& rs) {
  // Paper Table I reference values (per-VLSU B/cycle).
  struct PaperCol {
    double base, gf2, gf4;
  };
  const std::map<std::string, PaperCol> paper = {
      {"mp4spatz4", {7.00, 10.00, 16.00}},
      {"mp64spatz4", {4.18, 8.13, 16.00}},
      {"mp128spatz8", {4.22, 8.19, 16.13}},
  };

  std::printf("\n=== Table I: calculated memory bandwidth vs simulated random probe ===\n");
  TableWriter tw({"config", "row", "peak", "baseline", "2xRsp (GF2)", "4xRsp (GF4)"});
  for (const std::string preset : kTestbeds) {
    const ClusterConfig cfg = ClusterConfig::by_name(preset);
    const auto col = model::table1_column(cfg);
    tw.add_row({preset, "model BW [B/cyc]", fmt(col.peak), fmt(col.baseline_bw),
                fmt(col.gf2_bw), fmt(col.gf4_bw)});
    tw.add_row({"", "model util", "", pct(col.baseline_util), pct(col.gf2_util),
                pct(col.gf4_util)});
    tw.add_row({"", "model improvement", "", "-", delta(col.gf2_improvement),
                delta(col.gf4_improvement)});
    tw.add_row({"", "paper BW [B/cyc]", "", fmt(paper.at(preset).base),
                fmt(paper.at(preset).gf2), fmt(paper.at(preset).gf4)});
    const KernelMetrics& r0 = rs.metrics(preset + "/baseline");
    const KernelMetrics& r2 = rs.metrics(preset + "/gf2");
    const KernelMetrics& r4 = rs.metrics(preset + "/gf4");
    tw.add_row({"", "simulated BW [B/cyc]", "", fmt(r0.bw_per_core), fmt(r2.bw_per_core),
                fmt(r4.bw_per_core)});
    tw.add_row({"", "simulated util", "", pct(r0.bw_per_core / col.peak),
                pct(r2.bw_per_core / col.peak), pct(r4.bw_per_core / col.peak)});
    tw.add_row({"", "simulated improvement", "", "-",
                delta(r2.bw_per_core / r0.bw_per_core - 1.0),
                delta(r4.bw_per_core / r0.bw_per_core - 1.0)});
    tw.add_separator();
  }
  tw.print(std::cout);
  std::printf(
      "Model rows reproduce the paper's closed forms (eqs. 1-5) exactly;\n"
      "simulated rows add real contention (bank conflicts, arbitration,\n"
      "finite ROBs), landing below the model as the paper's dashed\n"
      "hierarchical-average lines do.\n");
}

/// The closed-form columns per testbed, then each probe's simulated
/// bandwidth and cycles.
void emit_table1(const ResultSet& rs, metrics::MetricsDoc& doc) {
  for (const std::string p : kTestbeds) {
    const auto col = model::table1_column(ClusterConfig::by_name(p));
    doc.add(p + "/model/peak", col.peak, metrics::kModelRelTol);
    doc.add(p + "/model/baseline_bw", col.baseline_bw, metrics::kModelRelTol);
    doc.add(p + "/model/gf2_bw", col.gf2_bw, metrics::kModelRelTol);
    doc.add(p + "/model/gf4_bw", col.gf4_bw, metrics::kModelRelTol);
    doc.add(p + "/model/gf2_improvement", col.gf2_improvement, metrics::kModelRelTol);
    doc.add(p + "/model/gf4_improvement", col.gf4_improvement, metrics::kModelRelTol);
  }
  for (const ScenarioResult& r : rs.all()) {
    doc.add(r.rel + "/sim/bw_per_core", r.metrics.bw_per_core, metrics::kSimRelTol);
    doc.add(r.rel + "/sim/cycles", static_cast<double>(r.metrics.cycles),
            metrics::kSimRelTol);
  }
}

LoadedSuite table1() {
  LoadedSuite s = make_suite(
      "table1",
      "Table I: closed-form bandwidth model (eqs. 1-5) and "
      "simulated random-probe bandwidth, per-VLSU B/cycle",
      print_table1, emit_table1);
  for (const std::string preset : kTestbeds) {
    for (unsigned gf : {0u, 2u, 4u}) {
      // No "iters": the probe runs the kind's auto-scaled count.
      s.scenarios.push_back(point(preset + "/" + variant_name(gf), preset_config(preset, gf),
                                  {"random_probe", {}}, 3'000'000, false));
    }
  }
  return s;
}

// ------------------------------------------------------------ Table II ----

void print_table2(const ResultSet& rs) {
  std::printf("\n=== Table II: kernel performance and energy efficiency ===\n");
  TableWriter tw({"config", "kernel", "size", "AI [F/B]", "FPU util", "GFLOPS@ss",
                  "GFLOPS@tt", "Power@tt [W]", "GFLOPS/W", "eff. vs base", "ok"});
  for (const Testbed& t : testbeds()) {
    const std::string gf = std::to_string(t.design_gf);
    for (const auto& [k, spec] : t.kernels) {
      const std::string kb = t.preset + "/baseline/" + k;
      const std::string kg = t.preset + "/gf" + gf + "/" + k;
      const KernelMetrics& mb = rs.metrics(kb);
      const KernelMetrics& mg = rs.metrics(kg);
      const PowerBreakdown& pb = rs.power(kb);
      const PowerBreakdown& pg = rs.power(kg);
      const double eff_b = energy_efficiency(mb.gflops_tt, pb);
      const double eff_g = energy_efficiency(mg.gflops_tt, pg);
      tw.add_row({t.preset + " base", mb.kernel, mb.size, fmt(mb.arithmetic_intensity),
                  pct(mb.fpu_util), fmt(mb.gflops_ss), fmt(mb.gflops_tt),
                  fmt(pb.total()), fmt(eff_b), "-", mb.verified ? "OK" : "FAIL"});
      tw.add_row({t.preset + " GF" + gf, mg.kernel, mg.size,
                  fmt(mg.arithmetic_intensity), pct(mg.fpu_util), fmt(mg.gflops_ss),
                  fmt(mg.gflops_tt), fmt(pg.total()), fmt(eff_g),
                  delta(eff_g / eff_b - 1.0), mg.verified ? "OK" : "FAIL"});
    }
    tw.add_separator();
  }
  tw.print(std::cout);
  std::printf("Performance improvements (GF vs baseline, simulated):\n");
  for (const Testbed& t : testbeds()) {
    for (const auto& [k, spec] : t.kernels) {
      const KernelMetrics& mb = rs.metrics(t.preset + "/baseline/" + k);
      const KernelMetrics& mg = rs.metrics(t.preset + "/" + variant_name(t.design_gf) + "/" + k);
      if (mb.cycles == 0) continue;
      std::printf("  %-12s %-9s %s\n", t.preset.c_str(), k.c_str(),
                  delta(mg.flops_per_cycle / mb.flops_per_cycle - 1.0).c_str());
    }
  }
  std::printf(
      "\nPaper reference (Table II): dotp +106%%/+176%%/+80%%, fft +41%%/+64%%/+47%%,\n"
      "matmul small +2%%/+35%%/+62%%, matmul large ~0%%/+2%%/+12%% across\n"
      "MP4Spatz4/MP64Spatz4/MP128Spatz8 respectively.\n");
}

/// Each run's kernel metrics plus its tt-corner throughput, power and
/// energy efficiency.
void emit_table2(const ResultSet& rs, metrics::MetricsDoc& doc) {
  for (const ScenarioResult& r : rs.all()) {
    doc.add_kernel_metrics(r.rel, r.metrics);
    doc.add(r.rel + "/gflops_tt", r.metrics.gflops_tt, metrics::kSimRelTol);
    doc.add(r.rel + "/power_w", r.power.total(), metrics::kSimRelTol);
    doc.add(r.rel + "/gflops_per_w", energy_efficiency(r.metrics.gflops_tt, r.power),
            metrics::kSimRelTol);
  }
}

LoadedSuite table2() {
  LoadedSuite s = make_suite(
      "table2",
      "Table II: kernel performance and energy efficiency, "
      "baseline vs TCDM Burst (GF4 on MP4/MP64, GF2 on MP128)",
      print_table2, emit_table2);
  for (const Testbed& t : testbeds()) {
    for (const auto& [k, spec] : t.kernels) {
      for (unsigned gf : {0u, t.design_gf}) {
        s.scenarios.push_back(point(t.preset + "/" + variant_name(gf) + "/" + k,
                                    preset_config(t.preset, gf), spec, 50'000'000));
      }
    }
  }
  return s;
}

// -------------------------------------------------------------- Fig. 3 ----

void print_fig3(const ResultSet& rs) {
  for (const Testbed& t : testbeds()) {
    const std::string& preset = t.preset;
    const ClusterConfig cfg = ClusterConfig::by_name(preset);
    const std::string gfv = variant_name(t.design_gf);
    const KernelMetrics& probe_base = rs.metrics(preset + "/probe/baseline");
    const KernelMetrics& probe_gf = rs.metrics(preset + "/probe/" + gfv);

    std::printf("\n=== Fig. 3 roofline: %s (ss corner %.0f MHz) ===\n", preset.c_str(),
                cfg.freq_ss_mhz);
    const Roofline rl_base = make_roofline(cfg, probe_base.bw_bytes_per_cycle);
    const Roofline rl_gf = make_roofline(cfg, probe_gf.bw_bytes_per_cycle);
    std::printf("peak %.1f GFLOPS | ideal BW %.1f GB/s | hier-avg BW: baseline %.1f GB/s "
                "(dashed), GF%u %.1f GB/s (dashed)\n",
                rl_base.peak_gflops, rl_base.ideal_bw_gbps, rl_base.measured_bw_gbps,
                t.design_gf, rl_gf.measured_bw_gbps);

    TableWriter tw({"kernel", "AI [F/B]", "GFLOPS base", "GFLOPS GF", "speedup",
                    "roofline bound (meas. BW)"});
    std::vector<RooflineSample> samples;
    for (const auto& [which, spec] : t.kernels) {
      const KernelMetrics& mb = rs.metrics(preset + "/" + which + "/baseline");
      const KernelMetrics& mg = rs.metrics(preset + "/" + which + "/" + gfv);
      tw.add_row({which, fmt(mb.arithmetic_intensity), fmt(mb.gflops_ss),
                  fmt(mg.gflops_ss), delta(mg.gflops_ss / mb.gflops_ss - 1.0),
                  fmt(rl_gf.attainable_measured(mg.arithmetic_intensity))});
      samples.push_back({which + "-base", mb.arithmetic_intensity, mb.gflops_ss});
      samples.push_back({which + "-" + gfv, mg.arithmetic_intensity, mg.gflops_ss});
    }
    tw.print(std::cout);
    std::printf("--- CSV (as examples/roofline_csv.cpp prints it; plot with any CSV "
                "grapher) ---\n%s",
                roofline_csv(rl_gf, samples).c_str());
  }
}

/// The preset-only roofs (FPU peak, ideal bandwidth), each probe's
/// measured (dashed) roof, and each kernel's roofline sample.
void emit_fig3(const ResultSet& rs, metrics::MetricsDoc& doc) {
  for (const std::string p : kTestbeds) {
    const Roofline roofs = make_roofline(ClusterConfig::by_name(p));
    doc.add(p + "/roofline/peak_gflops", roofs.peak_gflops, metrics::kModelRelTol);
    doc.add(p + "/roofline/ideal_bw_gbps", roofs.ideal_bw_gbps, metrics::kModelRelTol);
  }
  for (const ScenarioResult& r : rs.all()) {
    const std::string preset = r.rel.substr(0, r.rel.find('/'));
    const std::string probe = preset + "/probe/";
    if (r.rel.starts_with(probe)) {
      const Roofline rl =
          make_roofline(ClusterConfig::by_name(preset), r.metrics.bw_bytes_per_cycle);
      doc.add(preset + "/roofline/" + r.rel.substr(probe.size()) + "/measured_bw_gbps",
              rl.measured_bw_gbps, metrics::kSimRelTol);
      continue;
    }
    doc.add(r.rel + "/gflops_ss", r.metrics.gflops_ss, metrics::kSimRelTol);
    doc.add(r.rel + "/arithmetic_intensity", r.metrics.arithmetic_intensity,
            metrics::kSimRelTol);
    doc.add(r.rel + "/verified", r.metrics.verified ? 1.0 : 0.0, metrics::kExactTol);
  }
}

LoadedSuite fig3() {
  LoadedSuite s = make_suite(
      "fig3_roofline",
      "Fig. 3: roofline roofs (FPU peak, ideal and measured "
      "hierarchical-average bandwidth) and kernel sample points, "
      "baseline vs burst",
      print_fig3, emit_fig3);
  for (const Testbed& t : testbeds()) {
    for (unsigned gf : {0u, t.design_gf}) {
      s.scenarios.push_back(point(t.preset + "/probe/" + variant_name(gf),
                                  preset_config(t.preset, gf), {"random_probe", {}}, 50'000'000,
                                  false));
    }
    for (const auto& [k, spec] : t.kernels) {
      for (unsigned gf : {0u, t.design_gf}) {
        s.scenarios.push_back(point(t.preset + "/" + k + "/" + variant_name(gf),
                                    preset_config(t.preset, gf), spec, 50'000'000));
      }
    }
  }
  return s;
}

// -------------------------------------------------------------- Fig. 5 ----

void print_fig5(const ResultSet& rs) {
  const AreaBreakdown ab = estimate_area(preset_config("mp64spatz4", 0));
  const AreaBreakdown ag = estimate_area(preset_config("mp64spatz4", 4));

  std::printf("\n=== Fig. 5 (left): logic area breakdown, MP64Spatz4 [MGE] ===\n");
  TableWriter ta({"component", "baseline", "GF4", "delta"});
  const auto row = [&](const char* name, double b, double g) {
    ta.add_row({name, fmt(b / 1e6, 3), fmt(g / 1e6, 3), delta(b > 0 ? g / b - 1.0 : 0.0)});
  };
  row("Snitch cores", ab.snitch, ag.snitch);
  row("Spatz FPUs", ab.spatz_fpu, ag.spatz_fpu);
  row("Spatz VRF", ab.spatz_vrf, ag.spatz_vrf);
  row("Spatz control", ab.spatz_misc, ag.spatz_misc);
  row("VLSU (+ROB)", ab.vlsu, ag.vlsu);
  row("Interconnect", ab.interconnect, ag.interconnect);
  ta.add_row({"Burst Mgr+Snd", fmt(ab.burst / 1e6, 3), fmt(ag.burst / 1e6, 3), "new"});
  row("Bank control", ab.banks_logic, ag.banks_logic);
  ta.add_separator();
  row("TOTAL", ab.total(), ag.total());
  ta.print(std::cout);
  std::printf("Paper: +35%% VLSU, +51%% interconnect, +1.5 MGE BM+BS, +4.5 MGE total, <8%%.\n");
  std::printf("Model: +%.0f%% VLSU, +%.0f%% interconnect, +%.2f MGE BM+BS, +%.2f MGE total, "
              "%.1f%% overall.\n",
              100.0 * (ag.vlsu / ab.vlsu - 1.0),
              100.0 * (ag.interconnect / ab.interconnect - 1.0),
              (ag.burst - ab.burst) / 1e6, (ag.total() - ab.total()) / 1e6,
              100.0 * area_overhead(ab, ag));

  const KernelMetrics& mb = rs.metrics("matmul256/baseline");
  const KernelMetrics& mg = rs.metrics("matmul256/gf4");
  const PowerBreakdown& pb = rs.power("matmul256/baseline");
  const PowerBreakdown& pg = rs.power("matmul256/gf4");
  std::printf("\n=== Fig. 5 (right): power breakdown, MatMul 256^3 @tt [W] ===\n");
  TableWriter tp({"component", "baseline", "GF4"});
  const auto prow = [&](const char* name, double b, double g) {
    tp.add_row({name, fmt(b, 3), fmt(g, 3)});
  };
  prow("FPUs", pb.fpu_w, pg.fpu_w);
  prow("VRF", pb.vrf_w, pg.vrf_w);
  prow("VLSU", pb.vlsu_w, pg.vlsu_w);
  prow("Snitch", pb.snitch_w, pg.snitch_w);
  prow("Interconnect", pb.icn_w, pg.icn_w);
  prow("SPM banks", pb.banks_w, pg.banks_w);
  prow("Burst Mgr+Snd", pb.burst_w, pg.burst_w);
  prow("Static+clock", pb.static_w, pg.static_w);
  tp.add_separator();
  prow("TOTAL", pb.total(), pg.total());
  tp.print(std::cout);
  std::printf("MatMul 256^3 @tt: baseline %.1f GFLOPS / %.2f W; GF4 %.1f GFLOPS / %.2f W\n"
              "(paper: 440.67 GFLOPS / 1.77 W -> 451.62 GFLOPS / 1.97 W).\n",
              mb.gflops_tt, pb.total(), mg.gflops_tt, pg.total());
}

/// The area model's breakdown of both variants and the GF4 overhead, then
/// each run's kernel metrics, tt-corner throughput and power breakdown.
void emit_fig5(const ResultSet& rs, metrics::MetricsDoc& doc) {
  for (unsigned gf : {0u, 4u}) {
    const AreaBreakdown a = estimate_area(preset_config("mp64spatz4", gf));
    const std::string p = "area/" + variant_name(gf);
    doc.add(p + "/snitch_ge", a.snitch, metrics::kModelRelTol);
    doc.add(p + "/spatz_fpu_ge", a.spatz_fpu, metrics::kModelRelTol);
    doc.add(p + "/spatz_vrf_ge", a.spatz_vrf, metrics::kModelRelTol);
    doc.add(p + "/spatz_misc_ge", a.spatz_misc, metrics::kModelRelTol);
    doc.add(p + "/vlsu_ge", a.vlsu, metrics::kModelRelTol);
    doc.add(p + "/interconnect_ge", a.interconnect, metrics::kModelRelTol);
    doc.add(p + "/burst_ge", a.burst, metrics::kModelRelTol);
    doc.add(p + "/banks_logic_ge", a.banks_logic, metrics::kModelRelTol);
    doc.add(p + "/total_ge", a.total(), metrics::kModelRelTol);
  }
  doc.add("area/gf4_overhead",
          area_overhead(estimate_area(preset_config("mp64spatz4", 0)),
                        estimate_area(preset_config("mp64spatz4", 4))),
          metrics::kModelRelTol);
  for (const ScenarioResult& r : rs.all()) {
    const std::string& rel = r.rel;
    doc.add_kernel_metrics(rel, r.metrics);
    doc.add(rel + "/gflops_tt", r.metrics.gflops_tt, metrics::kSimRelTol);
    doc.add(rel + "/power/fpu_w", r.power.fpu_w, metrics::kSimRelTol);
    doc.add(rel + "/power/vrf_w", r.power.vrf_w, metrics::kSimRelTol);
    doc.add(rel + "/power/vlsu_w", r.power.vlsu_w, metrics::kSimRelTol);
    doc.add(rel + "/power/snitch_w", r.power.snitch_w, metrics::kSimRelTol);
    doc.add(rel + "/power/icn_w", r.power.icn_w, metrics::kSimRelTol);
    doc.add(rel + "/power/banks_w", r.power.banks_w, metrics::kSimRelTol);
    doc.add(rel + "/power/burst_w", r.power.burst_w, metrics::kSimRelTol);
    doc.add(rel + "/power/static_w", r.power.static_w, metrics::kSimRelTol);
    doc.add(rel + "/power/total_w", r.power.total(), metrics::kSimRelTol);
  }
}

LoadedSuite fig5() {
  LoadedSuite s = make_suite(
      "fig5_breakdown",
      "Fig. 5: logic-area breakdown (calibrated gate-count model) "
      "and activity-based power breakdown for MP64Spatz4 GF4, "
      "MatMul 256^3 @tt",
      print_fig5, emit_fig5);
  for (unsigned gf : {0u, 4u}) {
    s.scenarios.push_back(point("matmul256/" + variant_name(gf),
                                preset_config("mp64spatz4", gf),
                                {"matmul", {{"n", 256}, {"row_block", 8}}}, 50'000'000));
  }
  return s;
}

}  // namespace

const std::vector<LoadedSuite>& table_suites() {
  static const std::vector<LoadedSuite> suites = {table1(), table2(), fig3(), fig5()};
  return suites;
}

}  // namespace builtin
}  // namespace tcdm::scenario
