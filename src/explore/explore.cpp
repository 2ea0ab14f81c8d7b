#include "src/explore/explore.hpp"

#include <algorithm>
#include <ostream>
#include <utility>

#include "src/analytics/area_model.hpp"
#include "src/analytics/metrics_export.hpp"
#include "src/analytics/report.hpp"
#include "src/scenario/runner.hpp"

namespace tcdm::explore {

ExploreOutcome run_explore(const scenario::LoadedSuite& suite,
                           const ExploreOptions& opts) {
  const std::vector<scenario::FileScenario>& cands = suite.scenarios;
  const std::string& suite_name = suite.suite.name;

  ExploreOutcome outcome;
  outcome.candidates = cands.size();

  // Everything knowable without simulating, computed once up front: the
  // canonical key and the closed-form logic area of every candidate.
  std::vector<std::string> keys;
  std::vector<double> areas;
  keys.reserve(cands.size());
  areas.reserve(cands.size());
  for (const scenario::FileScenario& c : cands) {
    keys.push_back(canonical_key(c));
    areas.push_back(estimate_area(c.config).total() / 1e6);
  }

  MemoStore memo = opts.cache_path.empty() ? MemoStore() : MemoStore(opts.cache_path);
  ParetoFrontier frontier;

  enum class Disp { kPrunedCap, kPrunedDom, kHit, kSim };

  bool stopped = false;
  for (std::size_t wave_start = 0; wave_start < cands.size() && !stopped;
       wave_start += kWaveSize) {
    const std::size_t wave_end = std::min(wave_start + kWaveSize, cands.size());

    // --- scan: dispose of each candidate against the committed (pre-wave)
    // frontier, so decisions cannot depend on results still in flight.
    std::vector<Disp> disp;
    std::vector<std::size_t> queued;  // candidate indices to simulate
    std::size_t processed_end = wave_end;
    for (std::size_t i = wave_start; i < wave_end; ++i) {
      const scenario::FileScenario& c = cands[i];
      if (opts.area_cap_mge > 0.0 && areas[i] > opts.area_cap_mge) {
        disp.push_back(Disp::kPrunedCap);
        continue;
      }
      if (opts.prune &&
          !frontier.would_admit(areas[i], peak_bw_bound(c.config, c.system))) {
        disp.push_back(Disp::kPrunedDom);
        continue;
      }
      if (memo.lookup(keys[i]) != nullptr) {
        disp.push_back(Disp::kHit);
        continue;
      }
      // The candidate needs a simulation; the budget counts simulations only.
      if (opts.budget > 0 && outcome.simulations + queued.size() >= opts.budget) {
        processed_end = i;  // fold the disposed prefix, then stop
        outcome.budget_exhausted = true;
        stopped = true;
        break;
      }
      disp.push_back(Disp::kSim);
      queued.push_back(i);
    }

    // --- run: the wave's misses, scenario-parallel (`-j`).
    if (!queued.empty()) {
      std::vector<scenario::ScenarioSpec> specs;
      specs.reserve(queued.size());
      for (const std::size_t ci : queued) {
        specs.push_back(scenario::to_scenario_spec(suite_name, cands[ci]));
      }
      std::vector<const scenario::ScenarioSpec*> ptrs;
      ptrs.reserve(specs.size());
      for (const scenario::ScenarioSpec& s : specs) ptrs.push_back(&s);

      scenario::SweepOptions sweep = opts.sweep;
      if (opts.log != nullptr) {
        sweep.on_done = [&](const scenario::ScenarioResult& r) {
          *opts.log << "  [sim] " << r.name
                    << (r.ok() ? "" : "  FAILED: " + r.error) << "\n";
        };
      }
      const std::vector<scenario::ScenarioResult> results =
          scenario::run_scenarios(ptrs, sweep);

      for (std::size_t qi = 0; qi < results.size(); ++qi) {
        const scenario::ScenarioResult& r = results[qi];
        CachedResult cached;
        cached.rel = r.rel;
        cached.metrics = r.metrics;
        cached.power = r.power;
        cached.error = r.error;
        memo.insert(keys[queued[qi]], std::move(cached));
        ++outcome.simulations;
      }
    }

    // --- fold: commit results in candidate order (every disposed candidate
    // now has a memo entry, whether it was a hit or just simulated).
    std::size_t di = 0;
    for (std::size_t i = wave_start; i < processed_end; ++i, ++di) {
      switch (disp[di]) {
        case Disp::kPrunedCap:
          ++outcome.pruned_area_cap;
          break;
        case Disp::kPrunedDom:
          ++outcome.pruned_dominated;
          break;
        case Disp::kHit:
        case Disp::kSim: {
          if (disp[di] == Disp::kHit) ++outcome.cache_hits;
          const CachedResult* r = memo.lookup(keys[i]);
          if (r == nullptr || !r->ok()) {
            if (r != nullptr) ++outcome.failures;
            break;
          }
          FrontierPoint p;
          p.rel = cands[i].rel;
          p.key = keys[i];
          p.area_mge = areas[i];
          p.metrics = r->metrics;
          p.power = r->power;
          frontier.insert(std::move(p));
          break;
        }
      }
    }
  }

  outcome.frontier = frontier.points();
  return outcome;
}

Json report_json(const scenario::LoadedSuite& suite, const ExploreOptions& opts,
                 const ExploreOutcome& outcome) {
  Json doc;
  doc.set("schema", kReportSchemaName);
  doc.set("schema_version", kReportSchemaVersion);
  doc.set("suite", suite.suite.name);
  doc.set("area_cap_mge", opts.area_cap_mge);
  Json::Array pts;
  pts.reserve(outcome.frontier.size());
  for (const FrontierPoint& p : outcome.frontier) pts.push_back(write_fields(p));
  doc.set("frontier", Json(std::move(pts)));
  return doc;
}

void print_frontier(std::ostream& os, const ExploreOptions& opts,
                    const ExploreOutcome& outcome) {
  os << "Pareto frontier — area vs. bandwidth";
  if (opts.area_cap_mge > 0.0) {
    os << ", area cap " << fmt(opts.area_cap_mge, 2) << " MGE";
  }
  os << " (" << outcome.frontier.size() << " of " << outcome.candidates
     << " candidates)\n";
  TableWriter table({"scenario", "area [MGE]", "BW [B/cyc]", "cycles", "FPU util"});
  for (const FrontierPoint& p : outcome.frontier) {
    table.add_row({p.rel, fmt(p.area_mge, 3), fmt(p.metrics.bw_bytes_per_cycle, 2),
                   std::to_string(p.metrics.cycles), pct(p.metrics.fpu_util)});
  }
  table.print(os);
}

}  // namespace tcdm::explore
