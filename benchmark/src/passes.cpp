// The untraced timed pass, the setup-only pass, and the bookkeeping both
// the timed and the traced pass share.
#include <chrono>

#include "benchmark/src/bench.hpp"
#include "benchmark/src/pass_internal.hpp"
#include "src/cluster/cluster_cache.hpp"
#include "src/explore/config_hash.hpp"
#include "src/scenario/emit.hpp"
#include "src/system/system.hpp"

namespace tcdm::bench {

std::string emit_suite(const Workload& w, const std::string& suite,
                       const scenario::ResultSet& set, std::string& error) {
  try {
    return scenario::build_doc(*w.reg, suite, set).to_json().dump();
  } catch (const std::exception& e) {
    if (error.empty()) error = e.what();
    return {};
  }
}

void tally(const Workload& w, PassResult& pass) {
  constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;
  pass.digest = kFnvBasis;
  for (const auto& [suite, text] : pass.docs) {
    pass.digest = explore::fnv1a64(text, pass.digest);
  }
  std::size_t i = 0;
  for (const auto& [suite, set] : pass.sets) {
    for (const scenario::ScenarioResult& r : set.all()) {
      ++pass.attempted;
      if (!r.ok()) {
        ++pass.failed;
        if (pass.error.empty()) pass.error = r.name + ": " + r.error;
      }
      pass.fingerprint.push_back(r.metrics.cycles);
      pass.core_cycles += static_cast<double>(r.metrics.cycles) * w.cores.at(i) *
                          r.metrics.clusters;
      ++i;
    }
  }
}

PassResult run_pass(const Workload& w) {
  PassResult pass;
  const auto t0 = std::chrono::steady_clock::now();
  pass.sets = scenario::group_by_suite(scenario::run_scenarios(w.specs));
  for (const auto& [suite, set] : pass.sets) {
    pass.docs.emplace_back(suite, emit_suite(w, suite, set, pass.error));
  }
  pass.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  tally(w, pass);
  return pass;
}

void setup_only(const Workload& w) {
  ClusterCache cache;  // one per sweep, as run_scenarios keeps
  for (const scenario::ScenarioSpec* spec : w.specs) {
    const ClusterConfig cfg = spec->config();
    if (spec->system) {
      System system(spec->system(), cfg, spec->opts.sim);
      for (unsigned c = 0; c < system.num_clusters(); ++c) {
        spec->kernel()->setup(system.cluster(c));
      }
    } else {
      const std::unique_ptr<Kernel> kernel = spec->kernel();
      kernel->setup(cache.acquire(cfg, spec->opts.sim));
    }
  }
}

}  // namespace tcdm::bench
