#include "src/scenario/runner.hpp"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "src/cluster/cluster_cache.hpp"
#include "src/system/system.hpp"
#include "src/system/system_runner.hpp"

namespace tcdm::scenario {

void ResultSet::add(ScenarioResult r) {
  if (!index_.emplace(r.rel, ordered_.size()).second) {
    throw std::invalid_argument("duplicate result for: " + r.name);
  }
  ordered_.push_back(std::move(r));
}

const ScenarioResult& ResultSet::at(const std::string& rel) const {
  const ScenarioResult* r = find(rel);
  if (r == nullptr) throw std::out_of_range("no scenario result for: " + rel);
  return *r;
}

const ScenarioResult* ResultSet::find(const std::string& rel) const {
  const auto it = index_.find(rel);
  return it == index_.end() ? nullptr : &ordered_[it->second];
}

ScenarioResult run_scenario(const ScenarioSpec& spec, const SweepOptions& opts,
                            ClusterCache* cache) {
  ScenarioResult r;
  r.name = spec.name;
  r.rel = spec.rel();
  try {
    const ClusterConfig cfg = spec.config();
    SimOptions sim = spec.opts.sim;
    if (opts.stepping) sim.stepping = *opts.stepping;
    // Every scenario runs as a System: a plain cluster scenario as the
    // one-cluster System named after its config, which is exactly the bare
    // cluster run (same cycles, stats, metrics and power bytes).
    const SystemConfig syscfg = spec.system ? spec.system() : SystemConfig::single(cfg);
    // Reuse a cached System for this shape when the caller provides a cache
    // (sweeps); the fallback local is for one-off calls.
    std::optional<System> local;
    System& system =
        cache != nullptr ? cache->acquire(syscfg, cfg, sim) : local.emplace(syscfg, cfg, sim);
    std::vector<std::unique_ptr<Kernel>> kernels;
    kernels.reserve(system.num_clusters());
    for (unsigned c = 0; c < system.num_clusters(); ++c) kernels.push_back(spec.kernel());
    r.metrics = run_system_kernel(system, kernels, spec.opts);
    r.power = estimate_system_power(system, r.metrics.cycles, cfg.freq_tt_mhz);
    r.sim_cycles_skipped = system.cycles_skipped();
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

std::vector<ScenarioResult> run_scenarios(const std::vector<const ScenarioSpec*>& specs,
                                          const SweepOptions& opts) {
  std::vector<ScenarioResult> slots(specs.size());
  unsigned jobs = opts.jobs == 0 ? std::thread::hardware_concurrency() : opts.jobs;
  if (jobs == 0) jobs = 1;
  jobs = std::min<unsigned>(jobs, static_cast<unsigned>(specs.size()));

  // One System cache per worker thread: scenarios of a suite cycle over a
  // handful of config shapes, so reset-reuse removes per-scenario cluster
  // construction (bit-identical results, docs/ARCHITECTURE.md P2). At one
  // job the worker runs on the calling thread.
  std::atomic<std::size_t> next{0};
  std::mutex done_mutex;
  const auto worker = [&] {
    ClusterCache cache;
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= specs.size()) return;
      slots[i] = run_scenario(*specs[i], opts, &cache);
      if (opts.on_done) {
        const std::lock_guard<std::mutex> lock(done_mutex);
        opts.on_done(slots[i]);
      }
    }
  };
  if (jobs <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (unsigned j = 0; j < jobs; ++j) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  return slots;
}

std::vector<std::pair<std::string, ResultSet>> group_by_suite(
    std::vector<ScenarioResult> results) {
  std::vector<std::pair<std::string, ResultSet>> out;
  for (ScenarioResult& r : results) {
    const std::string suite = r.name.substr(0, r.name.find('/'));
    auto it = out.begin();
    for (; it != out.end(); ++it) {
      if (it->first == suite) break;
    }
    if (it == out.end()) {
      out.emplace_back(suite, ResultSet{});
      it = std::prev(out.end());
    }
    it->second.add(std::move(r));
  }
  return out;
}

}  // namespace tcdm::scenario
