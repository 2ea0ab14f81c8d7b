#include "src/explore/explore.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <utility>

#include "src/analytics/area_model.hpp"
#include "src/analytics/metrics_export.hpp"
#include "src/analytics/report.hpp"
#include "src/common/stats.hpp"
#include "src/scenario/runner.hpp"

namespace tcdm::explore {

namespace {

/// Identity of the searched space: the suite name plus every candidate's
/// canonical key, in candidate order. A checkpoint recorded against one
/// digest cannot silently resume a different suite (renamed scenarios,
/// regenerated seeds, edited sweeps all change it).
std::string suite_digest(const std::string& suite_name,
                         const std::vector<std::string>& keys) {
  std::string blob = suite_name;
  for (const std::string& k : keys) {
    blob += '\n';
    blob += k;
  }
  return digest128(blob);
}

Json point_to_json(const FrontierPoint& p) {
  Json j;
  j.set("rel", p.rel);
  j.set("key", p.key);
  j.set("area_mge", p.area_mge);
  j.set("cost", p.cost);
  j.set("value", p.value);
  j.set("metrics", metrics::kernel_metrics_to_json(p.metrics));
  j.set("power", metrics::power_to_json(p.power));
  return j;
}

double point_num(const Json& j, const char* field, const std::string& where) {
  const Json& v = j.at(field);
  if (!v.is_number()) {
    throw ExploreFileError(where + ": frontier field \"" + field +
                           "\" must be a number");
  }
  return v.as_double();
}

FrontierPoint point_from_json(const Json& j, const std::string& where) {
  if (!j.is_object()) {
    throw ExploreFileError(where + ": expected a frontier point object");
  }
  for (const auto& [key, val] : j.as_object()) {
    (void)val;
    if (key != "rel" && key != "key" && key != "area_mge" && key != "cost" &&
        key != "value" && key != "metrics" && key != "power") {
      throw ExploreFileError(where + ": unknown frontier field \"" + key + "\"");
    }
  }
  for (const char* req :
       {"rel", "key", "area_mge", "cost", "value", "metrics", "power"}) {
    if (!j.contains(req)) {
      throw ExploreFileError(where + ": frontier field \"" + std::string(req) +
                             "\" missing");
    }
  }
  if (!j.at("rel").is_string() || !j.at("key").is_string()) {
    throw ExploreFileError(where + ": rel/key must be strings");
  }
  FrontierPoint p;
  p.rel = j.at("rel").as_string();
  p.key = j.at("key").as_string();
  p.area_mge = point_num(j, "area_mge", where);
  p.cost = point_num(j, "cost", where);
  p.value = point_num(j, "value", where);
  try {
    p.metrics = metrics::kernel_metrics_from_json(j.at("metrics"), where + "/metrics");
    p.power = metrics::power_from_json(j.at("power"), where + "/power");
  } catch (const metrics::SchemaError& e) {
    throw ExploreFileError(e.what());
  }
  return p;
}

void write_checkpoint(const std::string& path, const std::string& suite_name,
                      const std::string& digest, const ExploreOptions& opts,
                      std::size_t next_index, const ParetoFrontier& frontier) {
  Json doc;
  doc.set("schema", kStateSchemaName);
  doc.set("schema_version", kStateSchemaVersion);
  doc.set("suite", suite_name);
  doc.set("suite_digest", digest);
  doc.set("objective", objective_name(opts.objective.kind));
  doc.set("area_cap_mge", opts.objective.area_cap_mge);
  doc.set("prune", opts.prune);
  doc.set("next_index", static_cast<unsigned long long>(next_index));
  Json::Array pts;
  pts.reserve(frontier.size());
  for (const FrontierPoint& p : frontier.points()) pts.push_back(point_to_json(p));
  doc.set("frontier", Json(std::move(pts)));

  // Write the whole document to a sibling temp file, then rename over the
  // target: on POSIX the rename is atomic, so a reader (or a resumed run
  // after a kill at any instant) sees either the previous checkpoint or
  // this one — never a torn file.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error(tmp + ": cannot open for writing");
    out << doc.dump();
    out.flush();
    if (!out) throw std::runtime_error(tmp + ": write failed");
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    throw std::runtime_error(path + ": checkpoint rename failed: " + ec.message());
  }
}

struct LoadedState {
  std::size_t next_index = 0;
  std::vector<FrontierPoint> frontier;
};

std::string quote_str(std::string_view s) {
  std::string q = "\"";
  q += s;
  q += '"';
  return q;
}

[[noreturn]] void state_mismatch(const std::string& path, const std::string& field,
                                 const std::string& recorded,
                                 const std::string& current) {
  throw ExploreFileError(path + ": checkpoint does not match this search (" +
                         field + ": checkpoint has " + recorded +
                         ", search has " + current + ")");
}

LoadedState load_checkpoint(const std::string& path, const std::string& suite_name,
                            const std::string& digest, const ExploreOptions& opts,
                            std::size_t candidates) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error(path + ": cannot open checkpoint");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (in.bad()) throw std::runtime_error(path + ": read failed");
  Json doc;
  try {
    doc = Json::parse(text);
  } catch (const JsonError& e) {
    throw ExploreFileError(path + ": " + e.what());
  }
  if (!doc.is_object() || doc.get("schema", std::string()) != kStateSchemaName) {
    throw ExploreFileError(path + ": not a " + std::string(kStateSchemaName) +
                           " file");
  }
  if (doc.get("schema_version", 0.0) != kStateSchemaVersion) {
    throw ExploreFileError(path + ": unsupported schema_version (expected " +
                           std::to_string(kStateSchemaVersion) + ")");
  }
  for (const auto& [key, val] : doc.as_object()) {
    (void)val;
    if (key != "schema" && key != "schema_version" && key != "suite" &&
        key != "suite_digest" && key != "objective" && key != "area_cap_mge" &&
        key != "prune" && key != "next_index" && key != "frontier") {
      throw ExploreFileError(path + ": unknown checkpoint field \"" + key + "\"");
    }
  }
  for (const char* req : {"suite", "suite_digest", "objective", "area_cap_mge",
                          "prune", "next_index", "frontier"}) {
    if (!doc.contains(req)) {
      throw ExploreFileError(path + ": checkpoint field \"" + std::string(req) +
                             "\" missing");
    }
  }

  // A checkpoint is only meaningful for the exact search it was taken from:
  // same candidate set (digest covers suite name + every canonical key, in
  // order) and same objective settings (they steer pruning and folding).
  const std::string rec_suite = doc.get("suite", std::string());
  if (rec_suite != suite_name) {
    state_mismatch(path, "suite", quote_str(rec_suite), quote_str(suite_name));
  }
  const std::string rec_digest = doc.get("suite_digest", std::string());
  if (rec_digest != digest) state_mismatch(path, "suite_digest", rec_digest, digest);
  const std::string rec_obj = doc.get("objective", std::string());
  if (rec_obj != objective_name(opts.objective.kind)) {
    state_mismatch(path, "objective", quote_str(rec_obj),
                   quote_str(objective_name(opts.objective.kind)));
  }
  if (!doc.at("area_cap_mge").is_number() ||
      doc.at("area_cap_mge").as_double() != opts.objective.area_cap_mge) {
    state_mismatch(path, "area_cap_mge", doc.at("area_cap_mge").dump_compact(),
                   Json(opts.objective.area_cap_mge).dump_compact());
  }
  if (!doc.at("prune").is_bool() || doc.at("prune").as_bool() != opts.prune) {
    state_mismatch(path, "prune", doc.at("prune").dump_compact(),
                   opts.prune ? "true" : "false");
  }

  if (!doc.at("next_index").is_uint(static_cast<double>(candidates))) {
    throw ExploreFileError(path + ": next_index must be an integer in [0, " +
                           std::to_string(candidates) + "]");
  }
  LoadedState state;
  state.next_index = static_cast<std::size_t>(doc.at("next_index").as_double());
  if (!doc.at("frontier").is_array()) {
    throw ExploreFileError(path + ": frontier must be an array");
  }
  const Json::Array& pts = doc.at("frontier").as_array();
  state.frontier.reserve(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    state.frontier.push_back(
        point_from_json(pts[i], path + ": frontier[" + std::to_string(i) + "]"));
  }
  return state;
}

}  // namespace

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
  const std::string digest = suite_digest(suite_name, keys);

  MemoStore memo = opts.cache_path.empty() ? MemoStore() : MemoStore(opts.cache_path);

  ParetoFrontier frontier;
  std::size_t start = 0;
  if (opts.resume && !opts.state_path.empty()) {
    std::error_code ec;
    if (std::filesystem::exists(opts.state_path, ec)) {
      LoadedState state =
          load_checkpoint(opts.state_path, suite_name, digest, opts, cands.size());
      start = state.next_index;
      for (FrontierPoint& p : state.frontier) {
        if (!frontier.insert(std::move(p))) {
          throw ExploreFileError(opts.state_path +
                                 ": frontier members are not mutually non-dominated");
        }
      }
    }
  }
  outcome.resumed_at = start;

  enum class Disp { kPrunedCap, kPrunedDom, kHit, kSim };

  bool stopped = false;
  for (std::size_t wave_start = start; wave_start < cands.size() && !stopped;
       wave_start += kWaveSize) {
    const std::size_t wave_end = std::min(wave_start + kWaveSize, cands.size());

    // --- scan: dispose of each candidate against the committed (pre-wave)
    // frontier, so decisions cannot depend on results still in flight.
    std::vector<Disp> disp;
    std::vector<std::size_t> queued;  // candidate indices to simulate
    std::size_t processed_end = wave_end;
    bool abort_pending = false;
    for (std::size_t i = wave_start; i < wave_end; ++i) {
      const scenario::FileScenario& c = cands[i];
      if (!opts.objective.admissible(areas[i])) {
        disp.push_back(Disp::kPrunedCap);
        continue;
      }
      if (opts.prune &&
          !frontier.would_admit(opts.objective.cost(areas[i]),
                                opts.objective.value_bound(areas[i], c.config))) {
        disp.push_back(Disp::kPrunedDom);
        continue;
      }
      if (memo.lookup(keys[i]) != nullptr) {
        disp.push_back(Disp::kHit);
        continue;
      }
      // The candidate needs a simulation; both caps count simulations only.
      if (opts.fail_after > 0 &&
          outcome.simulations + queued.size() >= opts.fail_after) {
        abort_pending = true;  // run + cache the allowed prefix, then throw
        break;
      }
      if (opts.budget > 0 && outcome.simulations + queued.size() >= opts.budget) {
        processed_end = i;  // fold the disposed prefix, checkpoint, stop
        outcome.budget_exhausted = true;
        stopped = true;
        break;
      }
      disp.push_back(Disp::kSim);
      queued.push_back(i);
    }

    // --- run: the wave's misses, scenario-parallel x tile-parallel.
    if (!queued.empty()) {
      std::vector<scenario::ScenarioSpec> specs;
      specs.reserve(queued.size());
      for (const std::size_t ci : queued) {
        const scenario::FileScenario& sc = cands[ci];
        scenario::ScenarioSpec s;
        s.name = suite_name + "/" + sc.rel;
        s.config = [cfg = sc.config] { return cfg; };
        s.kernel = [kernel = sc.kernel, cfg = sc.config] {
          return kernel.instantiate(cfg);
        };
        s.opts = sc.opts;
        s.expect_verified = sc.expect_verified;
        // Without this a system point would silently simulate as a bare
        // cluster — its hash and its metrics must both see the block.
        if (sc.system) s.system = [sys = *sc.system] { return sys; };
        specs.push_back(std::move(s));
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

    if (abort_pending) {
      // The allowed simulations are cached (above) but nothing from this
      // wave folds: the checkpoint re-points at the wave start, so a resume
      // replays the wave — its sims become cache hits — and converges on
      // the same frontier an uninterrupted run produces.
      if (!opts.state_path.empty()) {
        write_checkpoint(opts.state_path, suite_name, digest, opts, wave_start,
                         frontier);
        ++outcome.checkpoints;
      }
      throw ExploreAborted("aborted after " + std::to_string(outcome.simulations) +
                           " simulations (--fail-after " +
                           std::to_string(opts.fail_after) + ")");
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
          p.cost = opts.objective.cost(areas[i]);
          p.value = opts.objective.value(areas[i], r->metrics);
          p.metrics = r->metrics;
          p.power = r->power;
          frontier.insert(std::move(p));
          break;
        }
      }
    }

    // --- save: one atomic checkpoint per committed wave.
    if (!opts.state_path.empty()) {
      write_checkpoint(opts.state_path, suite_name, digest, opts, processed_end,
                       frontier);
      ++outcome.checkpoints;
    }
  }

  if (!opts.state_path.empty() && start >= cands.size()) {
    // Resumed past the end: nothing ran, but leave a (fresh) final
    // checkpoint so repeated resumes behave identically.
    write_checkpoint(opts.state_path, suite_name, digest, opts, cands.size(),
                     frontier);
    ++outcome.checkpoints;
  }

  outcome.frontier = frontier.points();

  StatsRegistry stats;
  stats.counter("explore.budget_exhausted").inc(outcome.budget_exhausted ? 1.0 : 0.0);
  stats.counter("explore.cache_hits").inc(static_cast<double>(outcome.cache_hits));
  stats.counter("explore.candidates").inc(static_cast<double>(outcome.candidates));
  stats.counter("explore.checkpoints").inc(static_cast<double>(outcome.checkpoints));
  stats.counter("explore.failures").inc(static_cast<double>(outcome.failures));
  stats.counter("explore.frontier_size").inc(static_cast<double>(outcome.frontier.size()));
  stats.counter("explore.pruned_area_cap")
      .inc(static_cast<double>(outcome.pruned_area_cap));
  stats.counter("explore.pruned_dominated")
      .inc(static_cast<double>(outcome.pruned_dominated));
  stats.counter("explore.resumed_at").inc(static_cast<double>(outcome.resumed_at));
  stats.counter("explore.simulations").inc(static_cast<double>(outcome.simulations));
  outcome.stats_json = stats.to_json();
  return outcome;
}

Json report_json(const scenario::LoadedSuite& suite, const ExploreOptions& opts,
                 const ExploreOutcome& outcome) {
  Json doc;
  doc.set("schema", kReportSchemaName);
  doc.set("schema_version", kReportSchemaVersion);
  doc.set("suite", suite.suite.name);
  doc.set("objective", objective_name(opts.objective.kind));
  doc.set("area_cap_mge", opts.objective.area_cap_mge);
  Json::Array pts;
  pts.reserve(outcome.frontier.size());
  for (const FrontierPoint& p : outcome.frontier) pts.push_back(point_to_json(p));
  doc.set("frontier", Json(std::move(pts)));
  return doc;
}

void print_frontier(std::ostream& os, const ExploreOptions& opts,
                    const ExploreOutcome& outcome) {
  os << "Pareto frontier — objective " << objective_name(opts.objective.kind);
  if (opts.objective.area_cap_mge > 0.0) {
    os << ", area cap " << fmt(opts.objective.area_cap_mge, 2) << " MGE";
  }
  os << " (" << outcome.frontier.size() << " of " << outcome.candidates
     << " candidates)\n";
  TableWriter table({"scenario", "area [MGE]", "BW [B/cyc]", "cycles",
                     "FPU util", "value"});
  for (const FrontierPoint& p : outcome.frontier) {
    table.add_row({p.rel, fmt(p.area_mge, 3), fmt(p.metrics.bw_bytes_per_cycle, 2),
                   std::to_string(p.metrics.cycles), pct(p.metrics.fpu_util),
                   fmt(p.value, 4)});
  }
  table.print(os);
}

}  // namespace tcdm::explore
