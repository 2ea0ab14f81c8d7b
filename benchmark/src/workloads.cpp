// Workload definitions, reference documents and paper-fidelity errors.
// Why each workload exists is recorded in benchmark/README.md.
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "benchmark/src/bench.hpp"
#include "src/analytics/metrics_export.hpp"
#include "src/common/rng.hpp"
#include "src/scenario/builtin.hpp"
#include "src/scenario/scenario_file.hpp"
#include "src/scenario/scenario_gen.hpp"

namespace tcdm::bench {

namespace {

constexpr std::size_t kSmokeScenarios = 8;
constexpr unsigned kDseCount = 1000;
constexpr unsigned kDseSmokeCount = 20;

const std::vector<std::string>& builtin_suites(const std::string& workload) {
  static const std::vector<std::string> paper = {"table2"};
  static const std::vector<std::string> traffic = {
      "table1", "ablation_rob", "ablation_store", "ablation_stride", "trace_patterns",
      "ext_kernels"};
  static const std::vector<std::string> none;
  if (workload == "paper_kernels") return paper;
  if (workload == "traffic_mix") return traffic;
  return none;
}

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// The reference for one suite of a workload; empty when the workload has
/// none for this seed (dse_random at seeds without a recording).
std::string reference_path(const Workload& w, const std::string& suite,
                           const ReferenceDirs& dirs) {
  namespace fs = std::filesystem;
  if (!builtin_suites(w.name).empty()) {
    return (fs::path(dirs.baselines) / (suite + ".json")).string();
  }
  if (w.name == "system_halo") return (fs::path(dirs.reference) / "system_halo.json").string();
  const fs::path p =
      fs::path(dirs.reference) / ("dse_random.seed" + std::to_string(w.seed) + ".json");
  return fs::exists(p) ? p.string() : std::string();
}

/// Smoke runs emit a prefix of each suite: every metric they emit must
/// equal the reference's value and tolerance exactly.
std::string check_subset(const std::string& emitted, const std::string& reference) {
  const metrics::MetricsDoc got = metrics::MetricsDoc::from_json(Json::parse(emitted));
  const metrics::MetricsDoc want = metrics::MetricsDoc::from_json(Json::parse(reference));
  for (const auto& [name, m] : got.metrics) {
    const auto it = want.metrics.find(name);
    if (it == want.metrics.end()) return "metric " + name + " missing from the reference";
    const bool same_value =
        m.value == it->second.value || (std::isnan(m.value) && std::isnan(it->second.value));
    if (!same_value || m.rel_tol != it->second.rel_tol) {
      return "metric " + name + " differs from the reference";
    }
  }
  return {};
}

/// New kernel data seeds (the generator draws them below 2^16) for the
/// scenarios of a generated suite document.
void reseed_kernels(Json& doc, std::uint64_t seed) {
  Xoshiro128 rng(seed);
  for (Json& point : doc.as_object().at("scenarios").as_array()) {
    Json::Object& kernel = point.as_object().at("kernel").as_object();
    if (kernel.count("seed") != 0) kernel["seed"] = Json(rng.next_below(1u << 16));
  }
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"paper_kernels", "traffic_mix", "dse_random",
                                                 "system_halo"};
  return names;
}

const std::vector<MetricInfo>& end_to_end_metrics() {
  static const std::vector<MetricInfo> m = {{"wall_s", "s"},
                                            {"core_cycles_per_s", "core-cycles/s"},
                                            {"setup_s", "s"},
                                            {"peak_rss_mb", "MiB"}};
  return m;
}

const std::vector<MetricInfo>& per_layer_metrics() {
  static const std::vector<MetricInfo> m = {
      // Self host time of the spans around each layer's public calls.
      {"scenario.load_s", "s"},
      {"scenario.config_s", "s"},
      {"cluster.ctor_s", "s"},
      {"cluster.reset_s", "s"},
      {"kernels.factory_s", "s"},
      {"kernels.setup_s", "s"},
      {"cluster.step_s", "s"},
      {"cluster.probe_s", "s"},
      {"cluster.skip_s", "s"},
      {"analytics.metrics_s", "s"},
      {"kernels.verify_s", "s"},
      {"analytics.power_s", "s"},
      {"system.ctor_s", "s"},
      {"system.run_s", "s"},
      {"analytics.emit_s", "s"},
      // Work counts and ratios of the host-side layers.
      {"cluster.steps", "count"},
      {"cluster.step_ns_per_core_cycle", "ns"},
      {"cluster.probes", "count"},
      {"cluster.probe_hit_ratio", "ratio"},
      {"cluster.skip_ratio", "ratio"},
      {"cluster.ctors", "count"},
      {"cluster.resets", "count"},
      {"cluster.cache_hit_ratio", "ratio"},
      {"system.ns_per_cluster_cycle", "ns"},
      {"system.skip_ratio", "ratio"},
      {"system.noc_bytes", "B"},
      // Modelled counters, summed over every simulated cluster.
      {"sim.cycles", "cycles"},
      {"sim.core_cycles", "core-cycles"},
      {"memory.bank_reads", "count"},
      {"memory.bank_writes", "count"},
      {"memory.conflict_cycles", "cycles"},
      {"interconnect.req_words", "words"},
      {"interconnect.rsp_beats", "count"},
      {"interconnect.egress_blocked_cycles", "cycles"},
      {"burst.bursts_sent", "count"},
      {"burst.beats_merged", "count"},
      {"burst.fifo_full_events", "count"},
      {"spatz.vlsu_issue_stall_cycles", "cycles"},
      {"spatz.snitch_stall_mem_cycles", "cycles"},
      {"spatz.vfpu_busy_cycles", "cycles"},
      // Checks on the trace itself.
      {"bench.coverage_pct", "%"},
      {"bench.trace_overhead_pct", "%"},
  };
  return m;
}

Workload make_workload(std::string name, const scenario::ScenarioRegistry& src,
                       const std::vector<std::string>& suites, std::size_t limit) {
  Workload w;
  w.name = std::move(name);
  w.reg = std::make_unique<scenario::ScenarioRegistry>();
  for (const std::string& suite : suites) {
    w.reg->add_suite(src.suite(suite));
    const auto specs = src.suite_scenarios(suite);
    const std::size_t n = limit == 0 ? specs.size() : std::min(limit, specs.size());
    for (std::size_t i = 0; i < n; ++i) w.reg->add(*specs[i]);
    w.suites.push_back(suite);
  }
  for (const std::string& suite : w.suites) {
    for (const scenario::ScenarioSpec* s : w.reg->suite_scenarios(suite)) {
      w.specs.push_back(s);
      w.cores.push_back(s->config().num_cores());
    }
  }
  return w;
}

Workload load_workload(const std::string& name, const LoadOptions& opts) {
  scenario::ScenarioRegistry src;
  std::vector<std::string> suites = builtin_suites(name);
  std::size_t limit = opts.smoke ? kSmokeScenarios : 0;
  if (!suites.empty()) {
    scenario::builtin::register_tables(src);
    scenario::builtin::register_ablations(src);
    scenario::builtin::register_extensions(src);
  } else if (name == "dse_random") {
    // The design points always come from generator seed 1: the generator's
    // host cost varies by ±10% and more from one seed to the next, wider
    // than the wall_s bound. Any other --seed re-draws every kernel's data
    // seed instead (random-probe addresses, operand values), which keeps
    // the shapes and the amount of work fixed.
    scenario::GenOptions gen;
    gen.seed = 1;
    gen.count = opts.smoke ? kDseSmokeCount : kDseCount;
    Json doc = scenario::generate_suite(gen);
    if (opts.seed != gen.seed) reseed_kernels(doc, opts.seed);
    const scenario::LoadedSuite loaded = scenario::parse_suite(
        doc, "dse_random(seed=" + std::to_string(opts.seed) + ")");
    scenario::register_loaded_suite(src, loaded);
    suites.push_back(loaded.suite.name);
    limit = 0;
  } else if (name == "system_halo") {
    const std::string path = (std::filesystem::path(opts.repo_dir) / "benchmark" /
                              "workloads" / "system_halo.json")
                                 .string();
    suites.push_back(scenario::register_suite_file(src, path));
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  Workload w = make_workload(name, src, suites, limit);
  w.seed = opts.seed;
  w.smoke = opts.smoke;
  return w;
}

std::string check_references(const Workload& w, const PassResult& pass,
                             const ReferenceDirs& dirs) {
  for (const auto& [suite, text] : pass.docs) {
    const std::string path = reference_path(w, suite, dirs);
    if (path.empty()) continue;
    const std::string want = read_text(path);
    if (want.empty()) return "reference " + path + " is missing or empty";
    if (text.empty()) return "suite " + suite + " emitted no document";
    const std::string err = w.smoke ? check_subset(text, want)
                                    : (text == want ? std::string() : "bytes differ");
    if (!err.empty()) return "suite " + suite + " vs " + path + ": " + err;
  }
  return {};
}

std::vector<std::pair<std::string, double>> paper_fidelity(const PassResult& pass) {
  const auto find_set = [&](const std::string& suite) -> const scenario::ResultSet* {
    for (const auto& [name, set] : pass.sets) {
      if (name == suite) return &set;
    }
    return nullptr;
  };
  // The paper's design point per testbed: GF4, except GF2 on MP128.
  const std::vector<std::pair<std::string, std::string>> testbeds = {
      {"mp4spatz4", "gf4"}, {"mp64spatz4", "gf4"}, {"mp128spatz8", "gf2"}};
  std::vector<std::pair<std::string, double>> out;
  const auto mean_abs_err = [](const std::vector<double>& sim, const std::vector<double>& paper) {
    double sum = 0.0;
    for (std::size_t i = 0; i < sim.size(); ++i) sum += std::abs(sim[i] - paper[i]);
    return sum / static_cast<double>(sim.size());
  };

  if (const scenario::ResultSet* rs = find_set("table2"); rs != nullptr) {
    // Paper Table II GF-vs-baseline performance gains [%], MP4/MP64/MP128.
    const std::map<std::string, std::vector<double>> paper = {
        {"dotp", {106, 176, 80}}, {"fft", {41, 64, 47}},
        {"matmul-s", {2, 35, 62}}, {"matmul-l", {0, 2, 12}}};
    std::vector<double> sim;
    std::vector<double> ref;
    for (const auto& [kernel, gains] : paper) {
      for (std::size_t t = 0; t < testbeds.size(); ++t) {
        const auto* base = rs->find(testbeds[t].first + "/baseline/" + kernel);
        const auto* gf = rs->find(testbeds[t].first + "/" + testbeds[t].second + "/" + kernel);
        if (base == nullptr || gf == nullptr) continue;
        sim.push_back(100.0 * (gf->metrics.gflops_ss / base->metrics.gflops_ss - 1.0));
        ref.push_back(gains[t]);
      }
    }
    if (sim.size() == 12) out.emplace_back("paper_speedup_err_pp", mean_abs_err(sim, ref));
  }
  if (const scenario::ResultSet* rs = find_set("table1"); rs != nullptr) {
    // The abstract's random-probe bandwidth gains [%] at the design point.
    const std::vector<double> paper = {118, 226, 77};
    std::vector<double> sim;
    for (const auto& [preset, gf] : testbeds) {
      const auto* base = rs->find(preset + "/baseline");
      const auto* burst = rs->find(preset + "/" + gf);
      if (base == nullptr || burst == nullptr) continue;
      sim.push_back(100.0 * (burst->metrics.bw_per_core / base->metrics.bw_per_core - 1.0));
    }
    if (sim.size() == 3) out.emplace_back("paper_bw_gain_err_pp", mean_abs_err(sim, paper));
  }
  return out;
}

}  // namespace tcdm::bench
