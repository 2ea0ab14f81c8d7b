// tcdm_run: one CLI for every paper table, figure, ablation and study —
// builtin or data-driven. Drives the scenario registry, so reproducing any
// artifact (or exploring a brand-new one from a JSON suite file) never
// requires a new binary.
//
//   tcdm_run list [--file F]... [--no-builtin] [glob...]
//                                              list suites and scenarios
//   tcdm_run run [-j N] [--stepping M] [--file F]...
//                [--no-builtin] [glob...]      run a selection; print tables
//   tcdm_run emit [-j N] [--stepping M] [--file F]...
//                 [--no-builtin] --out <dir> (--all | suite|glob...)
//                                              sweep suites, write <dir>/<suite>.json
//   tcdm_run validate [file...|-]              load + expand + validate suite
//                                              files (default: stdin)
//   tcdm_run gen [--seed N] [--count K] [--out F]
//                                              emit a randomized, invariant-
//                                              checked suite file (stdout)
//   tcdm_run explore [-j N] [--stepping M] [--area-cap MGE]
//                    [--budget N] [--cache F] [--no-prune]
//                    [--report F] <suite.json>
//                                              memoized design-space search
//                                              over a suite file; prints the
//                                              area-bandwidth Pareto frontier
//                                              (rerun with the same --cache
//                                              to resume)
//   tcdm_run check <baseline> <current> [<b2> <c2> ...]
//                                              regression gate: judge each
//                                              emitted metrics document
//                                              against its recorded baseline
//
// One grammar for every subcommand, read from its flag table by
// parse_flags: a value flag is `--name V` or `--name=V`, jobs is `-j N`,
// `--file` may repeat, and any other token starting with `-` is a usage
// error, never a glob (a lone `-` is positional: validate's stdin).
// Integers are digits only and must fit their destination; --area-cap is
// finite and above 0.
//
// `--file` registers a tcdm-scenarios JSON suite next to the builtins;
// `--no-builtin` starts from an empty registry instead, which lets a file
// re-express a builtin suite under its own name. With `--file` and no
// globs/suites, the file's suites are selected. Globs match full scenario
// names (`*` crosses `/`). Parallel runs (-j) produce byte-identical
// emissions and stdout tables to serial ones, and each scenario, a
// multi-cluster system included, runs on one thread.
// `--stepping event|cycle|check` selects how each cluster advances time
// (event-driven skipping, the cycle-by-cycle reference loop, or the
// self-verifying cross-check mode — all bit-identical; see
// docs/ARCHITECTURE.md).
// Exit codes: 0 ok, 1 scenario/validation failure, empty selection or a
// metric outside its baseline tolerance, 2 usage/IO errors (including
// unknown subcommands and flags, malformed flag values, unreadable metrics
// documents and corrupt explore cache files).
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

#include "src/analytics/metrics_regression.hpp"
#include "src/analytics/report.hpp"
#include "src/common/json.hpp"
#include "src/explore/explore.hpp"
#include "src/scenario/builtin.hpp"
#include "src/scenario/emit.hpp"
#include "src/scenario/runner.hpp"
#include "src/scenario/scenario_file.hpp"
#include "src/scenario/scenario_gen.hpp"

namespace tcdm::scenario {
namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s list [--file F]... [--no-builtin] [glob...]\n"
      "       %s run [-j N] [--stepping M]\n"
      "            [--file F]... [--no-builtin] [glob...]\n"
      "       %s emit [-j N] [--stepping M]\n"
      "            [--file F]... [--no-builtin] --out <dir> (--all | suite|glob...)\n"
      "       %s validate [file...|-]\n"
      "       %s gen [--seed N] [--count K] [--out <file>]\n"
      "       %s explore [-j N] [--stepping M]\n"
      "            [--area-cap MGE] [--budget N] [--cache F]\n"
      "            [--no-prune] [--report F] <suite.json>\n"
      "       %s check <baseline.json> <current.json> [<b2> <c2> ...]\n"
      "\n"
      "  A value flag is --name V or --name=V; an unknown flag exits 2.\n"
      "  --stepping M   time advance per cluster: event (skip quiet spans,\n"
      "                 default), cycle (reference loop), check (skip decisions\n"
      "                 verified cycle-by-cycle). All modes are bit-identical.\n"
      "  -j N           run N scenarios at once (0 = hardware concurrency);\n"
      "                 bit-identical to serial at any value.\n"
      "\n"
      "  Scenarios may scale out with a \"system\" block (N clusters over a\n"
      "  modeled L2/NoC with inter-cluster DMA bursts); its barrier_kind is\n"
      "  one of: central, tree, butterfly, and its dma_words must fit the\n"
      "  cluster TCDM (banks x bank_words — `validate` names the offending\n"
      "  cluster config and the resolved capacity). `gen` emits such points\n"
      "  too.\n"
      "\n"
      "  check compares each emitted metrics document with its recorded\n"
      "  baseline under the baseline's per-metric tolerances; it exits 1\n"
      "  when a recorded metric drifts, goes missing or is not finite.\n",
      argv0, argv0, argv0, argv0, argv0, argv0, argv0);
  return 2;
}

/// A usage error: `<subcommand>: <problem>`, then the usage text.
int usage_error(const char* argv0, const char* cmd, const std::string& problem) {
  std::fprintf(stderr, "%s: %s\n", cmd, problem.c_str());
  return usage(argv0);
}

/// Every value a flag can set, one member per destination; each
/// subcommand reads the members its table names.
struct Args {
  unsigned jobs = SweepOptions{}.jobs;
  std::optional<SteppingMode> stepping;
  std::vector<std::string> files;  // --file, repeatable
  bool no_builtin = false;
  bool all = false;
  std::string out;  // emit's directory, gen's file
  std::uint64_t seed = GenOptions{}.seed;
  unsigned count = GenOptions{}.count;
  double area_cap = explore::ExploreOptions{}.area_cap_mge;
  std::uint64_t budget = explore::ExploreOptions{}.budget;
  std::string cache;
  std::string report;
  bool no_prune = false;
  std::vector<std::string> positional;

  [[nodiscard]] SweepOptions sweep() const {
    SweepOptions s;
    s.jobs = jobs;
    s.stepping = stepping;
    return s;
  }
};

/// One row of a subcommand's flag table. The value kind is the
/// destination's type: bool is a switch, std::string a string or path (a
/// vector of them a repeatable one), unsigned and std::uint64_t an integer
/// of that range, double a positive finite number, and the optional enum a
/// stepping mode.
struct Flag {
  std::string_view name;
  std::variant<bool Args::*, std::string Args::*, std::vector<std::string> Args::*,
               unsigned Args::*, std::uint64_t Args::*, double Args::*,
               std::optional<SteppingMode> Args::*>
      dest;
};

constexpr Flag kListFlags[] = {
    {"--file", &Args::files},
    {"--no-builtin", &Args::no_builtin},
};
constexpr Flag kRunFlags[] = {
    {"-j", &Args::jobs},
    {"--stepping", &Args::stepping},
    {"--file", &Args::files},
    {"--no-builtin", &Args::no_builtin},
};
constexpr Flag kEmitFlags[] = {
    {"-j", &Args::jobs},
    {"--stepping", &Args::stepping},
    {"--file", &Args::files},
    {"--no-builtin", &Args::no_builtin},
    {"--out", &Args::out},
    {"--all", &Args::all},
};
constexpr Flag kGenFlags[] = {
    {"--seed", &Args::seed},
    {"--count", &Args::count},
    {"--out", &Args::out},
};
constexpr Flag kExploreFlags[] = {
    {"-j", &Args::jobs},
    {"--stepping", &Args::stepping},
    {"--file", &Args::files},
    {"--area-cap", &Args::area_cap},
    {"--budget", &Args::budget},
    {"--cache", &Args::cache},
    {"--no-prune", &Args::no_prune},
    {"--report", &Args::report},
};

/// Stores `value` into `out`, or returns why it is not a value of the
/// destination's kind. The CLI's one number reader: an integer is digits
/// only (no sign, blank or trailing junk) and must fit its destination; a
/// double must be finite and above 0.
template <class T>
std::string read_value(const std::string& value, T& out) {
  if constexpr (std::is_same_v<T, bool>) {
    out = true;  // a switch: given is on
  } else if constexpr (std::is_same_v<T, std::string>) {
    out = value;
  } else if constexpr (std::is_same_v<T, std::vector<std::string>>) {
    out.push_back(value);
  } else if constexpr (std::is_same_v<T, std::optional<SteppingMode>>) {
    if (value == "event") {
      out = SteppingMode::kEventDriven;
    } else if (value == "cycle") {
      out = SteppingMode::kCycleByCycle;
    } else if (value == "check") {
      out = SteppingMode::kCrossCheck;  // the self-verifying mode
    } else {
      return "unknown stepping mode \"" + value + "\" (known: event, cycle, check)";
    }
  } else {
    T parsed{};
    const char* end = value.data() + value.size();
    const auto [stop, ec] = std::from_chars(value.data(), end, parsed);
    if constexpr (std::is_floating_point_v<T>) {
      if (ec != std::errc() || stop != end || !std::isfinite(parsed) || parsed <= 0) {
        return "\"" + value + "\" is not a finite number above 0";
      }
    } else if (ec != std::errc() || stop != end) {
      return "\"" + value + "\" is not an integer from 0 to " +
             std::to_string(std::numeric_limits<T>::max());
    }
    out = parsed;
  }
  return "";
}

/// The one flag-reading loop. A value flag is `--name V` or `--name=V`
/// (`-j N` for jobs) with a non-empty value, a switch takes none, and any
/// other token starting with `-` is an error; the rest, a lone `-` (stdin)
/// included, is positional. Returns the problem, or "" when all is read.
std::string parse_flags(std::span<const Flag> table, const std::vector<std::string>& tokens,
                        Args& args) {
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    if (token.size() < 2 || token[0] != '-') {
      args.positional.push_back(token);
      continue;
    }
    const std::size_t eq = token.rfind("--", 0) == 0 ? token.find('=') : std::string::npos;
    const std::string name = token.substr(0, eq);
    const auto flag = std::find_if(table.begin(), table.end(),
                                   [&](const Flag& f) { return f.name == name; });
    if (flag == table.end()) return "unknown flag " + name;
    std::string value;
    if (std::holds_alternative<bool Args::*>(flag->dest)) {
      if (eq != std::string::npos) return name + " takes no value";
    } else {
      if (eq != std::string::npos) {
        value = token.substr(eq + 1);
      } else if (i + 1 < tokens.size()) {
        value = tokens[++i];
      }
      if (value.empty()) return name + " needs a value";
    }
    const std::string why =
        std::visit([&](auto dest) { return read_value(value, args.*dest); }, flag->dest);
    if (!why.empty()) return name + ": " + why;
  }
  return "";
}

/// Populate the process registry from the builtins (unless --no-builtin)
/// and every --file suite. Returns false after printing the error (a bad
/// scenario file is an IO/usage problem, exit 2). Registered file-suite
/// names land in `file_suites`.
bool setup_registry(const Args& args, std::vector<std::string>& file_suites) {
  if (!args.no_builtin) {
    register_builtin();
  } else if (args.files.empty()) {
    std::fprintf(stderr, "--no-builtin requires at least one --file\n");
    return false;
  }
  for (const std::string& path : args.files) {
    try {
      file_suites.push_back(register_suite_file(ScenarioRegistry::instance(), path));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return false;
    }
  }
  return true;
}

/// Resolve suite names/globs against the registry, appending matches to
/// `suites` in registration order and deduplicating. Returns false after
/// printing the error when a pattern matches no suite.
bool resolve_suite_globs(const ScenarioRegistry& reg,
                         const std::vector<std::string>& wanted,
                         std::vector<std::string>& suites) {
  std::set<std::string> seen;
  for (const SuiteSpec& s : reg.suites()) {
    for (const std::string& w : wanted) {
      if (glob_match(w, s.name) && seen.insert(s.name).second) {
        suites.push_back(s.name);
        break;
      }
    }
  }
  for (const std::string& w : wanted) {
    bool matched = false;
    for (const SuiteSpec& s : reg.suites()) {
      if (glob_match(w, s.name)) matched = true;
    }
    if (!matched) {
      std::fprintf(stderr, "no suite matches '%s'\n", w.c_str());
      return false;
    }
  }
  return true;
}

/// All scenarios of the named suites, in registration order.
std::vector<const ScenarioSpec*> suites_selection(
    const ScenarioRegistry& reg, const std::vector<std::string>& suites) {
  std::vector<const ScenarioSpec*> out;
  for (const std::string& suite : suites) {
    const auto scenarios = reg.suite_scenarios(suite);
    out.insert(out.end(), scenarios.begin(), scenarios.end());
  }
  return out;
}

/// Writes `text` to `path`; false after printing the error.
bool write_file(const char* cmd, const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "%s: cannot open %s for writing\n", cmd, path.c_str());
    return false;
  }
  out << text;
  out.flush();  // surface a full-disk/IO failure before the exit code
  if (!out.good()) {
    std::fprintf(stderr, "%s: write to %s failed\n", cmd, path.c_str());
    return false;
  }
  return true;
}

int cmd_list(const char*, const Args& args) {
  std::vector<std::string> file_suites;
  if (!setup_registry(args, file_suites)) return 2;

  const ScenarioRegistry& reg = ScenarioRegistry::instance();
  const std::vector<const ScenarioSpec*> shown =
      reg.select_all(args.positional.empty() ? std::vector<std::string>{"*"} : args.positional);
  for (const SuiteSpec& suite : reg.suites()) {
    bool header = false;
    for (const ScenarioSpec* s : shown) {
      if (s->suite() != suite.name) continue;
      if (!header) {
        std::printf("%s — %s%s\n", suite.name.c_str(), suite.description.c_str(),
                    suite.emit_by_default ? "" : "  [not in emit --all]");
        header = true;
      }
      std::printf("  %s\n", s->name.c_str());
    }
  }
  return 0;
}

int cmd_run(const char* argv0, const Args& args) {
  std::vector<std::string> file_suites;
  if (!setup_registry(args, file_suites)) return 2;
  if (args.positional.empty() && file_suites.empty()) {
    return usage_error(argv0, "run", "name a scenario glob or a --file suite");
  }

  const ScenarioRegistry& reg = ScenarioRegistry::instance();
  // With --file and no globs, the file's suites are the selection.
  const std::vector<const ScenarioSpec*> selection =
      args.positional.empty() ? suites_selection(reg, file_suites)
                              : reg.select_all(args.positional);
  if (selection.empty()) {
    std::fprintf(stderr, "no scenarios match\n");
    return 1;
  }

  SweepOptions opts = args.sweep();
  unsigned done = 0;
  opts.on_done = [&](const ScenarioResult& r) {
    ++done;
    std::fprintf(stderr, "  [%u/%zu] %s%s\n", done, selection.size(), r.name.c_str(),
                 r.ok() ? "" : ("  FAILED: " + r.error).c_str());
  };
  std::vector<ScenarioResult> results = run_scenarios(selection, opts);

  bool failed = false;
  for (const ScenarioResult& r : results) {
    if (!r.ok()) failed = true;
  }

  // Suites whose every registered scenario ran get their paper table; a
  // partial selection (and every file suite, which has no custom printer)
  // gets a compact per-scenario metrics table instead.
  TableWriter partial({"scenario", "cycles", "skipped", "BW [B/cyc/core]",
                       "GFLOPS@ss", "FPU util", "ok"});
  bool any_partial = false;
  for (auto& [suite_name, set] : group_by_suite(std::move(results))) {
    const SuiteSpec& suite = reg.suite(suite_name);
    if (suite.print && set.size() == reg.suite_scenarios(suite_name).size()) {
      suite.print(set);
      continue;
    }
    for (const ScenarioResult& r : set.all()) {
      partial.add_row({r.name, std::to_string(r.metrics.cycles),
                       std::to_string(static_cast<unsigned long long>(r.sim_cycles_skipped)),
                       fmt(r.metrics.bw_per_core), fmt(r.metrics.gflops_ss),
                       pct(r.metrics.fpu_util), r.ok() ? "OK" : "FAIL: " + r.error});
      any_partial = true;
    }
  }
  if (any_partial) partial.print(std::cout);
  return failed ? 1 : 0;
}

int cmd_emit(const char* argv0, const Args& args) {
  const std::vector<std::string>& wanted = args.positional;
  if (args.out.empty()) return usage_error(argv0, "emit", "--out <dir> is required");
  if (args.all && !wanted.empty()) {
    return usage_error(argv0, "emit", "--all takes no suite names");
  }
  std::vector<std::string> file_suites;
  if (!setup_registry(args, file_suites)) return 2;
  if (!args.all && wanted.empty() && file_suites.empty()) {
    return usage_error(argv0, "emit", "name a suite or glob, --all or a --file suite");
  }

  const ScenarioRegistry& reg = ScenarioRegistry::instance();
  // Resolve suite names/globs against the registry, keeping registration
  // order and deduplicating. With --file and no explicit selection, the
  // file's suites are emitted.
  std::vector<std::string> suites;
  if (args.all) {
    suites = default_emit_suites(reg);
  } else if (wanted.empty()) {
    suites = file_suites;
  } else if (!resolve_suite_globs(reg, wanted, suites)) {
    return 1;
  }
  if (suites.empty()) {
    std::fprintf(stderr, "no suites selected\n");
    return 1;
  }

  EmitOptions opts;
  opts.out_dir = args.out;
  opts.sweep = args.sweep();
  opts.log = &std::cerr;
  try {
    (void)emit_suites(reg, suites, opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "emit: %s\n", e.what());
    return 1;
  }
  return 0;
}

int cmd_validate(const char*, const Args& args) {
  std::vector<std::string> paths = args.positional;
  if (paths.empty()) paths.emplace_back("-");  // gen | validate pipelines
  int rc = 0;  // worst outcome wins: 2 (unreadable, IO) > 1 (invalid content)
  for (const std::string& path : paths) {
    const std::string source = path == "-" ? "<stdin>" : path;
    try {
      const LoadedSuite suite = load_suite_file(path);
      std::printf("%s: suite \"%s\" OK (%zu scenarios)\n", source.c_str(),
                  suite.suite.name.c_str(), suite.scenarios.size());
    } catch (const ScenarioFileIoError& e) {
      std::fprintf(stderr, "%s\n", e.what());
      rc = 2;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      rc = std::max(rc, 1);
    }
  }
  return rc;
}

int cmd_gen(const char* argv0, const Args& args) {
  if (!args.positional.empty()) {
    return usage_error(argv0, "gen", "unexpected argument " + args.positional.front());
  }
  if (args.count == 0) return usage_error(argv0, "gen", "--count must be at least 1");
  if (args.count > kMaxScenariosPerSuite) {
    std::fprintf(stderr, "gen: --count is capped at %zu scenarios per suite\n",
                 kMaxScenariosPerSuite);
    return 2;
  }

  std::string text;
  try {
    text = generate_suite(GenOptions{args.seed, args.count}).dump();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gen: internal error: %s\n", e.what());
    return 2;
  }
  if (args.out.empty()) {
    std::fputs(text.c_str(), stdout);
    return 0;
  }
  return write_file("gen", args.out, text) ? 0 : 2;
}

int cmd_explore(const char* argv0, const Args& args) {
  // The search space is one suite file: either a positional path or --file
  // (but not both, and exactly one — explore does not span suites).
  std::vector<std::string> paths = args.positional;
  paths.insert(paths.end(), args.files.begin(), args.files.end());
  if (paths.size() != 1) {
    return usage_error(argv0, "explore",
                       "expected one suite file, got " + std::to_string(paths.size()));
  }

  explore::ExploreOptions eopts;
  eopts.area_cap_mge = args.area_cap;
  eopts.budget = static_cast<std::size_t>(args.budget);
  eopts.cache_path = args.cache;
  eopts.prune = !args.no_prune;
  eopts.sweep = args.sweep();
  eopts.log = &std::cerr;

  LoadedSuite suite;
  try {
    suite = load_suite_file(paths[0]);
  } catch (const ScenarioFileIoError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }

  explore::ExploreOutcome outcome;
  try {
    outcome = explore::run_explore(suite, eopts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "explore: %s\n", e.what());
    return 2;
  }

  explore::print_frontier(std::cout, eopts, outcome);
  // Fixed-format machine-readable summary (the CI warm-cache smoke leg
  // greps simulations=0 out of this line).
  std::printf(
      "explore: candidates=%zu pruned_area_cap=%zu pruned_dominated=%zu "
      "cache_hits=%zu simulations=%zu failures=%zu frontier=%zu "
      "budget_exhausted=%d\n",
      outcome.candidates, outcome.pruned_area_cap, outcome.pruned_dominated,
      outcome.cache_hits, outcome.simulations, outcome.failures,
      outcome.frontier.size(), outcome.budget_exhausted ? 1 : 0);

  if (!args.report.empty() &&
      !write_file("explore", args.report, explore::report_json(suite, eopts, outcome).dump())) {
    return 2;
  }
  return outcome.failures > 0 ? 1 : 0;
}

int cmd_check(const char* argv0, const Args& args) {
  const std::vector<std::string>& paths = args.positional;
  if (paths.empty() || paths.size() % 2 != 0) {
    return usage_error(argv0, "check",
                       "expected <baseline> <current> pairs, got " +
                           std::to_string(paths.size()) + " files");
  }
  return metrics::check_pairs(paths, std::cout);
}

/// A subcommand: its flag table and what runs on the flags read from it.
struct Subcommand {
  std::string_view name;
  std::span<const Flag> flags;
  int (*run)(const char* argv0, const Args& args);
};

constexpr Subcommand kSubcommands[] = {
    {"list", kListFlags, cmd_list},
    {"run", kRunFlags, cmd_run},
    {"emit", kEmitFlags, cmd_emit},
    {"validate", {}, cmd_validate},
    {"gen", kGenFlags, cmd_gen},
    {"explore", kExploreFlags, cmd_explore},
    {"check", {}, cmd_check},
};

int main_impl(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string_view cmd = argv[1];
  for (const Subcommand& sub : kSubcommands) {
    if (sub.name != cmd) continue;
    Args args;
    const std::string problem = parse_flags(sub.flags, {argv + 2, argv + argc}, args);
    if (!problem.empty()) return usage_error(argv[0], argv[1], problem);
    return sub.run(argv[0], args);
  }
  std::fprintf(stderr, "unknown subcommand '%s'\n", argv[1]);
  return usage(argv[0]);
}

}  // namespace
}  // namespace tcdm::scenario

int main(int argc, char** argv) { return tcdm::scenario::main_impl(argc, argv); }
