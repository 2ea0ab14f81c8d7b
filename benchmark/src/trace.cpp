// The traced pass: run_scenario replayed call by call through each layer's
// public entry points, with a span around every call. step, next_event and
// skip_to run once per simulated cycle or skip, so they are not spans: the
// traced loop sums them per scenario into the cluster.run span's LoopStats,
// which keeps the trace bounded by the scenario count.
#include <chrono>
#include <fstream>
#include <stdexcept>

#include "benchmark/src/bench.hpp"
#include "benchmark/src/pass_internal.hpp"
#include "src/analytics/power_model.hpp"
#include "src/cluster/cluster_cache.hpp"
#include "src/cluster/kernel_runner.hpp"
#include "src/system/system.hpp"
#include "src/system/system_runner.hpp"

namespace tcdm::bench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

class Tracer {
 public:
  explicit Tracer(std::vector<Span>& spans) : spans_(spans), origin_(Clock::now()) {}

  int begin(std::string name, const char* cat, int scenario) {
    Span s;
    s.name = std::move(name);
    s.cat = cat;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.scenario = scenario;
    s.start_ns = now_ns();
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void end(int id) {
    spans_[id].end_ns = now_ns();
    stack_.pop_back();
  }
  Span& span(int id) { return spans_[id]; }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  }

  std::vector<Span>& spans_;
  std::vector<int> stack_;
  Clock::time_point origin_;
};

/// A span over one lexical scope; ends on exceptions too, so a failing
/// scenario leaves a well-formed trace.
class Scope {
 public:
  Scope(Tracer& t, std::string name, int scenario, const char* cat = "layer")
      : t_(t), id_(t.begin(std::move(name), cat, scenario)) {}
  ~Scope() { t_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] int id() const { return id_; }

 private:
  Tracer& t_;
  int id_;
};

template <typename Fn>
auto spanned(Tracer& t, const char* name, int sid, Fn&& fn) {
  const Scope s(t, name, sid);
  return fn();
}

/// Modelled counters summed over every cluster a scenario ran.
void add_model_counters(const StatsRegistry& stats, std::map<std::string, double>& out) {
  static const std::pair<const char*, const char*> kSuffix[] = {
      {"memory.bank_reads", ".reads"},
      {"memory.bank_writes", ".writes"},
      {"memory.conflict_cycles", ".conflict_cycles"},
      {"burst.bursts_sent", ".bursts_sent"},
      {"burst.beats_merged", ".beats_merged"},
      {"burst.fifo_full_events", ".fifo_full_events"},
      {"spatz.vlsu_issue_stall_cycles", ".vlsu.issue_stall_cycles"},
      {"spatz.snitch_stall_mem_cycles", ".snitch.stall_mem_cycles"},
      {"spatz.vfpu_busy_cycles", ".vfpu.busy_cycles"},
  };
  static const std::pair<const char*, const char*> kNamed[] = {
      {"interconnect.req_words", "network.req_words"},
      {"interconnect.rsp_beats", "network.rsp_beats"},
      {"interconnect.egress_blocked_cycles", "network.egress_blocked_cycles"},
  };
  for (const auto& [metric, suffix] : kSuffix) out[metric] += stats.sum_suffix(suffix);
  for (const auto& [metric, name] : kNamed) out[metric] += stats.value(name);
}

/// run_kernel_on (src/cluster/kernel_runner.cpp) with a span per call and
/// the run loop replaced by traced_cluster_run.
KernelMetrics traced_run_kernel_on(Cluster& cluster, Kernel& kernel, const RunnerOptions& opts,
                                   Tracer& t, int sid) {
  const ClusterConfig& cfg = cluster.config();
  cluster.set_watchdog_window(opts.watchdog_window);
  {
    const Scope s(t, "kernels.setup", sid);
    kernel.setup(cluster);
  }
  RunOutcome out;
  {
    const Scope s(t, "cluster.run", sid);
    LoopStats loop;
    out = traced_cluster_run(cluster, opts.max_cycles, loop);
    t.span(s.id()).loop = loop;
  }
  KernelMetrics m;
  {
    const Scope s(t, "analytics.metrics", sid);
    m.config = cfg.name;
    m.kernel = kernel.name();
    m.size = kernel.size_desc();
    m.cycles = out.cycles;
    m.timed_out = !out.all_halted;
    m.flops = cluster.total_flops();
    m.bytes = kernel.traffic_bytes(cluster);
    if (out.cycles > 0) {
      m.flops_per_cycle = m.flops / static_cast<double>(out.cycles);
      m.fpu_util = m.flops_per_cycle / cfg.peak_flops_per_cycle();
      m.gflops_ss = m.flops_per_cycle * cfg.freq_ss_mhz / 1000.0;
      m.gflops_tt = m.flops_per_cycle * cfg.freq_tt_mhz / 1000.0;
      m.bw_bytes_per_cycle = m.bytes / static_cast<double>(out.cycles);
      m.bw_per_core = m.bw_bytes_per_cycle / cfg.num_cores();
    }
    if (m.bytes > 0) m.arithmetic_intensity = m.flops / m.bytes;
  }
  {
    const Scope s(t, "kernels.verify", sid);
    m.verified = opts.verify ? kernel.verify(cluster) : true;
  }
  return m;
}

/// run_scenario (src/scenario/runner.cpp) with a span per call.
scenario::ScenarioResult traced_run_scenario(const scenario::ScenarioSpec& spec, int sid,
                                             ClusterCache& cache, Tracer& t,
                                             std::map<std::string, double>& model) {
  scenario::ScenarioResult r;
  r.name = spec.name;
  r.rel = spec.rel();
  const Scope root(t, spec.name, sid, "scenario");
  try {
    const ClusterConfig cfg = spanned(t, "scenario.config", sid, [&] { return spec.config(); });
    const SimOptions& sim = spec.opts.sim;
    if (spec.system) {
      const SystemConfig syscfg =
          spanned(t, "scenario.config", sid, [&] { return spec.system(); });
      const auto system = spanned(t, "system.ctor", sid, [&] {
        return std::make_unique<System>(syscfg, cfg, sim);
      });
      std::vector<std::unique_ptr<Kernel>> kernels;
      {
        const Scope s(t, "kernels.factory", sid);
        for (unsigned c = 0; c < system->num_clusters(); ++c) kernels.push_back(spec.kernel());
      }
      r.metrics = spanned(t, "system.run", sid,
                          [&] { return run_system_kernel(*system, kernels, spec.opts); });
      r.power = spanned(t, "analytics.power", sid, [&] {
        return estimate_system_power(*system, r.metrics.cycles, cfg.freq_tt_mhz);
      });
      r.sim_cycles_skipped = system->cycles_skipped();
      const Scope s(t, "bench.counters", sid, "bench");
      for (unsigned c = 0; c < system->num_clusters(); ++c) {
        add_model_counters(system->cluster(c).stats(), model);
      }
    } else {
      const std::unique_ptr<Kernel> kernel =
          spanned(t, "kernels.factory", sid, [&] { return spec.kernel(); });
      Cluster* cluster = nullptr;
      {
        // A change in misses() tells a construction from a reset.
        const std::size_t misses = cache.misses();
        const Scope s(t, "cluster.acquire", sid);
        cluster = &cache.acquire(cfg, sim);
        t.span(s.id()).name = cache.misses() != misses ? "cluster.ctor" : "cluster.reset";
      }
      r.metrics = traced_run_kernel_on(*cluster, *kernel, spec.opts, t, sid);
      r.power = spanned(t, "analytics.power", sid, [&] {
        return estimate_power(*cluster, r.metrics.cycles, cfg.freq_tt_mhz);
      });
      r.sim_cycles_skipped = cluster->cycles_skipped();
      const Scope s(t, "bench.counters", sid, "bench");
      add_model_counters(cluster->stats(), model);
    }
    if (r.metrics.timed_out) {
      r.error = "timed out after " + std::to_string(r.metrics.cycles) + " cycles";
    } else if (spec.opts.verify && spec.expect_verified && !r.metrics.verified) {
      r.error = "golden verification failed";
    }
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  return r;
}

void derive_metrics(const Workload& w, TraceReport& rep) {
  std::map<std::string, double>& m = rep.metrics;
  // Every per-layer metric is present, zero where the workload bypasses
  // the layer; bench.trace_overhead_pct needs the untraced passes and is
  // the caller's to fill.
  for (const MetricInfo& info : per_layer_metrics()) m[info.name] += 0.0;

  std::vector<double> child_s(rep.spans.size(), 0.0);
  for (const Span& s : rep.spans) {
    if (s.parent >= 0) child_s[s.parent] += 1e-9 * static_cast<double>(s.end_ns - s.start_ns);
  }
  double pass_s = 0.0;
  double covered_s = 0.0;
  double ctors = 0.0;
  double resets = 0.0;
  LoopStats loop;
  for (std::size_t i = 0; i < rep.spans.size(); ++i) {
    const Span& s = rep.spans[i];
    const double dur = 1e-9 * static_cast<double>(s.end_ns - s.start_ns);
    if (s.cat == "pass") pass_s += dur;
    if (s.cat != "layer") continue;
    const double self = dur - child_s[i];
    covered_s += self;
    if (s.name == "cluster.run") {
      m["cluster.step_s"] += self - s.loop.probe_s - s.loop.skip_s;
      m["cluster.probe_s"] += s.loop.probe_s;
      m["cluster.skip_s"] += s.loop.skip_s;
      loop.steps += s.loop.steps;
      loop.probes += s.loop.probes;
      loop.probe_hits += s.loop.probe_hits;
      loop.skipped += s.loop.skipped;
    } else {
      m[s.name + "_s"] += self;
    }
    ctors += s.name == "cluster.ctor" ? 1.0 : 0.0;
    resets += s.name == "cluster.reset" ? 1.0 : 0.0;
  }

  double stepped_core_cycles = 0.0;
  double cluster_cycles = 0.0;
  double system_cluster_cycles = 0.0;
  double system_skipped = 0.0;
  double noc_bytes = 0.0;
  double sim_cycles = 0.0;
  std::size_t i = 0;
  for (const auto& [suite, set] : rep.pass.sets) {
    for (const scenario::ScenarioResult& r : set.all()) {
      const double cycles = static_cast<double>(r.metrics.cycles);
      sim_cycles += cycles;
      if (w.specs.at(i)->system) {
        system_cluster_cycles += cycles * r.metrics.clusters;
        system_skipped += r.sim_cycles_skipped;
        noc_bytes += r.metrics.noc_bytes;
      } else {
        cluster_cycles += cycles;
        stepped_core_cycles += (cycles - r.sim_cycles_skipped) * w.cores.at(i);
      }
      ++i;
    }
  }
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  m["cluster.steps"] = static_cast<double>(loop.steps);
  m["cluster.probes"] = static_cast<double>(loop.probes);
  m["cluster.probe_hit_ratio"] =
      ratio(static_cast<double>(loop.probe_hits), static_cast<double>(loop.probes));
  m["cluster.skip_ratio"] = ratio(static_cast<double>(loop.skipped), cluster_cycles);
  m["cluster.step_ns_per_core_cycle"] = ratio(1e9 * m["cluster.step_s"], stepped_core_cycles);
  m["cluster.ctors"] = ctors;
  m["cluster.resets"] = resets;
  m["cluster.cache_hit_ratio"] = ratio(resets, ctors + resets);
  m["system.ns_per_cluster_cycle"] = ratio(1e9 * m["system.run_s"], system_cluster_cycles);
  m["system.skip_ratio"] = ratio(system_skipped, system_cluster_cycles);
  m["system.noc_bytes"] = noc_bytes;
  m["sim.cycles"] = sim_cycles;
  m["sim.core_cycles"] = rep.pass.core_cycles;
  m["bench.coverage_pct"] = 100.0 * ratio(covered_s, pass_s);
}

}  // namespace

RunOutcome traced_cluster_run(Cluster& cluster, Cycle max_cycles, LoopStats& stats) {
  RunOutcome out;
  const Cycle start = cluster.now();
  const Cycle budget_end = max_cycles > kNoCycle - start ? kNoCycle : start + max_cycles;
  const SteppingMode mode = cluster.stepping();
  while (cluster.now() < budget_end) {
    ++stats.steps;
    if (cluster.step()) {
      out.all_halted = true;
      break;
    }
    if (mode == SteppingMode::kCycleByCycle) continue;
    const Cycle now = cluster.now();
    if (now >= budget_end) break;
    if (cluster.mem_phase_active()) continue;

    const auto p0 = Clock::now();
    const Cycle event = cluster.next_event();
    stats.probe_s += seconds(Clock::now() - p0);
    ++stats.probes;
    if (event <= now) continue;
    const Cycle jump_to = std::min(std::min(event, cluster.watchdog_deadline()), budget_end);
    if (jump_to <= now) continue;

    ++stats.probe_hits;
    stats.skipped += jump_to - now;
    if (mode == SteppingMode::kEventDriven) {
      const auto s0 = Clock::now();
      cluster.skip_to(jump_to);
      stats.skip_s += seconds(Clock::now() - s0);
    } else {
      cluster.cross_check_to(event, jump_to);
    }
  }
  out.cycles = cluster.now() - start;
  return out;
}

TraceReport traced_pass(const std::function<Workload()>& load) {
  TraceReport rep;
  Tracer t(rep.spans);
  Workload w;
  {
    const Scope pass(t, "pass", -1, "pass");
    {
      const Scope s(t, "scenario.load", -1);
      w = load();
    }
    const auto t0 = Clock::now();
    std::vector<scenario::ScenarioResult> results;
    {
      ClusterCache cache;  // one per sweep, as run_scenarios keeps
      for (std::size_t i = 0; i < w.specs.size(); ++i) {
        results.push_back(
            traced_run_scenario(*w.specs[i], static_cast<int>(i), cache, t, rep.metrics));
      }
    }
    rep.pass.sets = scenario::group_by_suite(std::move(results));
    for (const auto& [suite, set] : rep.pass.sets) {
      const Scope s(t, "analytics.emit", -1);
      rep.pass.docs.emplace_back(suite, emit_suite(w, suite, set, rep.pass.error));
    }
    rep.run_wall_s = seconds(Clock::now() - t0);
  }
  rep.pass.wall_s = rep.run_wall_s;
  tally(w, rep.pass);
  for (const scenario::ScenarioSpec* s : w.specs) rep.scenario_names.push_back(s->name);
  derive_metrics(w, rep);
  return rep;
}

void write_chrome_trace(const TraceReport& report, const std::string& path) {
  Json::Array events;
  events.reserve(report.spans.size());
  for (std::size_t i = 0; i < report.spans.size(); ++i) {
    const Span& s = report.spans[i];
    Json args;
    args.set("id", static_cast<unsigned long long>(i));
    args.set("parent", s.parent);
    if (s.scenario >= 0) args.set("scenario", report.scenario_names.at(s.scenario));
    if (s.name == "cluster.run") {
      args.set("steps", static_cast<unsigned long long>(s.loop.steps));
      args.set("probes", static_cast<unsigned long long>(s.loop.probes));
      args.set("probe_hits", static_cast<unsigned long long>(s.loop.probe_hits));
      args.set("cycles_skipped", static_cast<unsigned long long>(s.loop.skipped));
      args.set("probe_s", s.loop.probe_s);
      args.set("skip_s", s.loop.skip_s);
    }
    Json e;
    e.set("name", s.name);
    e.set("cat", s.cat);
    e.set("ph", "X");
    e.set("pid", 1);
    e.set("tid", 1);
    e.set("ts", 1e-3 * static_cast<double>(s.start_ns));
    e.set("dur", 1e-3 * static_cast<double>(s.end_ns - s.start_ns));
    e.set("args", std::move(args));
    events.push_back(std::move(e));
  }
  Json doc;
  doc.set("displayTimeUnit", "ms");
  doc.set("traceEvents", std::move(events));
  std::ofstream out(path);
  out << doc.dump_compact() << "\n";
  if (!out) throw std::runtime_error("cannot write trace " + path);
}

}  // namespace tcdm::bench
