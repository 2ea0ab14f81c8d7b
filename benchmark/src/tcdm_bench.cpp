// tcdm_bench: run one benchmark workload and print every metric with its
// unit, then one JSON result line (the last line of stdout).
//
//   tcdm_bench --workload NAME [--seed S] [--seconds T] [--trace 0|1]
//              [--results-dir DIR] [--smoke] [--reference-dir DIR]
//   tcdm_bench --table RESULT.json...
//
// A run times at least 5 setup-only passes (setup_s), then repeats the
// untraced pass while another one fits in --seconds (at least one), checks
// correctness, and with --trace 1 adds one traced pass. Exit codes: 0
// correct, 1 a correctness check failed, 2 usage or input errors.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "benchmark/src/bench.hpp"
#include "src/common/json.hpp"

namespace tcdm::bench {
namespace {

constexpr unsigned kSetupPasses = 5;
constexpr double kSetupSeconds = 1.0;
constexpr unsigned kMaxPasses = 64;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool smoke = false;
  std::string results_dir;
  std::string reference_dir = std::string(TCDM_REPO_DIR) + "/benchmark/reference";
  std::vector<std::string> table;
};

int usage(const std::string& msg) {
  std::cerr << "tcdm_bench: " << msg << "\n"
            << "usage: tcdm_bench --workload NAME [--seed S] [--seconds T] [--trace 0|1]\n"
            << "                  [--results-dir DIR] [--smoke] [--reference-dir DIR]\n"
            << "       tcdm_bench --table RESULT.json...\n"
            << "workloads:";
  for (const std::string& w : workload_names()) std::cerr << " " << w;
  std::cerr << "\n";
  return 2;
}

/// Samples of one metric: the reported value is the median.
struct Samples {
  std::vector<double> v;

  [[nodiscard]] double median() const {
    std::vector<double> s = v;
    std::sort(s.begin(), s.end());
    const std::size_t n = s.size();
    return n % 2 == 1 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
  }
  [[nodiscard]] Json to_json(const std::string& unit) const {
    Json j;
    j.set("value", median());
    j.set("unit", unit);
    if (v.size() > 1) {
      j.set("median", median());
      j.set("min", *std::min_element(v.begin(), v.end()));
      j.set("max", *std::max_element(v.begin(), v.end()));
      j.set("n", static_cast<unsigned>(v.size()));
    }
    return j;
  }
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void print_row(const std::string& name, const Json& m) {
  std::printf("  %-36s %16.6g %-14s", name.c_str(), m.at("value").as_double(),
              m.at("unit").as_string().c_str());
  if (m.contains("n")) {
    std::printf(" median %.6g  min %.6g  max %.6g  n %.0f", m.at("median").as_double(),
                m.at("min").as_double(), m.at("max").as_double(), m.at("n").as_double());
  }
  std::printf("\n");
}

int run(const Args& a) {
  const LoadOptions lo{a.seed, a.smoke, TCDM_REPO_DIR};
  if (!a.results_dir.empty()) std::filesystem::create_directories(a.results_dir);
  std::vector<std::string> problems;

  // setup_s: at least kSetupPasses setup-only passes and kSetupSeconds of
  // them, so sub-0.1 s setups still get a steady median. The last pass's
  // workload is reused.
  Samples setup;
  Workload w;
  double setup_total = 0.0;
  while (setup.v.empty() ||
         (!a.smoke && (setup.v.size() < kSetupPasses || setup_total < kSetupSeconds) &&
          setup.v.size() < kMaxPasses)) {
    const auto t0 = std::chrono::steady_clock::now();
    w = load_workload(a.workload, lo);
    setup_only(w);
    setup.v.push_back(seconds_since(t0));
    setup_total += setup.v.back();
  }

  // Timed passes: keep the first whole, the rest only as checks. The peak
  // RSS is read after the first pass, so it does not depend on how many
  // passes fit in --seconds.
  Samples wall;
  Samples throughput;
  PassResult first;
  double rss = 0.0;
  unsigned attempted = 0;
  unsigned failed = 0;
  double elapsed = 0.0;
  for (unsigned i = 0; i < kMaxPasses; ++i) {
    PassResult p = run_pass(w);
    attempted += p.attempted;
    failed += p.failed;
    elapsed += p.wall_s;
    wall.v.push_back(p.wall_s);
    throughput.v.push_back(p.core_cycles / p.wall_s);
    if (i == 0) {
      first = std::move(p);
      rss = peak_rss_mib();
    } else if (p.digest != first.digest || p.fingerprint != first.fingerprint) {
      problems.push_back("pass " + std::to_string(i + 1) + " differs from pass 1");
    }
    if (a.smoke || elapsed + wall.median() > a.seconds) break;
  }

  if (failed > 0 || !first.error.empty()) problems.push_back("failure: " + first.error);
  const std::string ref = check_references(
      w, first, {std::string(TCDM_REPO_DIR) + "/baselines", a.reference_dir});
  if (!ref.empty()) problems.push_back(ref);

  Json e2e;
  e2e.set("wall_s", wall.to_json("s"));
  e2e.set("core_cycles_per_s", throughput.to_json("core-cycles/s"));
  e2e.set("setup_s", setup.to_json("s"));
  e2e.set("peak_rss_mb", Samples{{rss}}.to_json("MiB"));
  Json fidelity;
  for (const auto& [name, value] : paper_fidelity(first)) {
    fidelity.set(name, Samples{{value}}.to_json("pp"));
  }

  Json layers;
  std::string trace_path;
  if (a.trace) {
    const TraceReport rep = traced_pass([&] { return load_workload(a.workload, lo); });
    if (rep.pass.digest != first.digest || rep.pass.fingerprint != first.fingerprint) {
      problems.push_back("traced pass differs from the untraced passes");
    }
    for (const MetricInfo& info : per_layer_metrics()) {
      double value = rep.metrics.at(info.name);
      if (info.name == "bench.trace_overhead_pct") {
        value = 100.0 * (rep.run_wall_s / wall.median() - 1.0);
      }
      layers.set(info.name, Samples{{value}}.to_json(info.unit));
    }
    if (!a.results_dir.empty()) {
      trace_path = a.results_dir + "/" + a.workload + ".trace.json";
      write_chrome_trace(rep, trace_path);
    }
  }

  const bool correct = problems.empty();
  std::printf("tcdm_bench %s seed=%llu passes=%zu setup_passes=%zu%s\n", a.workload.c_str(),
              static_cast<unsigned long long>(a.seed), wall.v.size(), setup.v.size(),
              a.smoke ? " (smoke)" : "");
  std::printf("  %-36s %16s\n", "sim_digest", hex64(first.digest).c_str());
  for (const auto& [name, m] : e2e.as_object()) print_row(name, m);
  if (fidelity.is_object()) {
    for (const auto& [name, m] : fidelity.as_object()) print_row(name, m);
  }
  if (layers.is_object()) {
    for (const auto& [name, m] : layers.as_object()) print_row(name, m);
  }
  if (!trace_path.empty()) std::printf("  trace: %s\n", trace_path.c_str());
  for (const std::string& p : problems) std::printf("  CHECK FAILED: %s\n", p.c_str());

  Json metrics;
  for (const auto& [name, m] : (a.trace ? layers : e2e).as_object()) {
    Json brief;
    brief.set("value", m.at("value"));
    brief.set("unit", m.at("unit"));
    metrics.set(name, std::move(brief));
  }
  Json result;
  result.set("correct", correct);
  result.set("attempted", attempted);
  result.set("failed", failed);
  result.set("metrics", std::move(metrics));

  if (!a.results_dir.empty()) {
    Json doc;
    doc.set("workload", a.workload);
    doc.set("seed", static_cast<unsigned long long>(a.seed));
    doc.set("smoke", a.smoke);
    doc.set("sim_digest", hex64(first.digest));
    doc.set("correct", correct);
    doc.set("attempted", attempted);
    doc.set("failed", failed);
    Json::Array probs(problems.begin(), problems.end());
    doc.set("problems", std::move(probs));
    doc.set("end_to_end", e2e);
    doc.set("fidelity", fidelity.is_object() ? fidelity : Json(Json::Object{}));
    doc.set("per_layer", layers.is_object() ? layers : Json(Json::Object{}));
    std::ofstream out(a.results_dir + "/" + a.workload + ".json");
    out << doc.dump();
  }
  std::cout << result.dump_compact() << std::endl;
  return correct ? 0 : 1;
}

/// One table over several result files: a row per metric, a column per
/// workload.
int table(const std::vector<std::string>& files) {
  std::vector<std::string> workloads;
  std::vector<std::pair<std::string, std::string>> rows;  // (metric, unit)
  std::map<std::string, std::map<std::string, double>> values;  // metric -> workload
  for (const std::string& f : files) {
    std::ifstream in(f);
    if (!in) throw std::runtime_error("cannot read " + f);
    std::ostringstream buf;
    buf << in.rdbuf();
    const Json doc = Json::parse(buf.str());
    const std::string w = doc.at("workload").as_string();
    workloads.push_back(w);
    for (const char* group : {"end_to_end", "fidelity", "per_layer"}) {
      for (const auto& [name, m] : doc.at(group).as_object()) {
        if (values.find(name) == values.end()) rows.emplace_back(name, m.at("unit").as_string());
        values[name][w] = m.at("value").as_double();
      }
    }
  }
  std::printf("%-36s %-14s", "metric", "unit");
  for (const std::string& w : workloads) std::printf(" %14s", w.c_str());
  std::printf("\n");
  for (const auto& [name, unit] : rows) {
    std::printf("%-36s %-14s", name.c_str(), unit.c_str());
    for (const std::string& w : workloads) {
      const auto it = values[name].find(w);
      if (it == values[name].end()) {
        std::printf(" %14s", "-");
      } else {
        std::printf(" %14.6g", it->second);
      }
    }
    std::printf("\n");
  }
  return 0;
}

int main_impl(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--table") {
      for (++i; i < argc; ++i) a.table.emplace_back(argv[i]);
      break;
    }
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      std::size_t used = 0;
      if (flag == "--workload") {
        a.workload = v;
      } else if (flag == "--seed") {
        if (v.empty() || v[0] == '-') return usage("--seed must be a non-negative integer");
        a.seed = std::stoull(v, &used);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v, &used);
      } else if (flag == "--trace") {
        if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else if (flag == "--results-dir") {
        a.results_dir = v;
      } else if (flag == "--reference-dir") {
        a.reference_dir = v;
      } else {
        return usage("unknown flag " + flag);
      }
      if (used != 0 && used != v.size()) return usage("bad value for " + flag + ": " + v);
    } catch (const std::logic_error&) {
      return usage("bad value for " + flag + ": " + v);
    }
  }
  if (!a.table.empty()) return table(a.table);
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
    return usage(a.workload.empty() ? "no --workload given" : "unknown workload " + a.workload);
  }
  if (!(a.seconds >= 0.0)) return usage("--seconds must be >= 0");
  return run(a);
}

}  // namespace
}  // namespace tcdm::bench

int main(int argc, char** argv) {
  try {
    return tcdm::bench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "tcdm_bench: " << e.what() << "\n";
    return 2;
  }
}
