// Structured export of simulated paper metrics (Table I / Table II / Fig. 3
// results) to a stable, versioned JSON schema — the wire format between
// `tcdm_run emit`, the recorded baselines/ files, and the `tcdm_run check`
// comparator.
//
// Schema (version 1):
//   {
//     "schema": "tcdm-metrics",
//     "schema_version": 1,
//     "suite": "table1",
//     "description": "free text",
//     "metrics": {
//       "mp4spatz4/gf4/sim/bw_per_core": {"value": 13.9, "rel_tol": 0.02},
//       ...
//     }
//   }
// Metric names are hierarchical `/`-joined paths so the comparator's delta
// table groups naturally. Every metric carries its own relative tolerance;
// a baseline therefore documents how much drift each figure may accumulate
// before the regression gate fails.
#pragma once

#include <map>
#include <stdexcept>
#include <string>

#include "src/analytics/power_model.hpp"
#include "src/cluster/kernel_runner.hpp"
#include "src/common/json.hpp"
#include "src/common/json_fields.hpp"

namespace tcdm {

/// Field lists of the persisted results (src/common/json_fields.hpp),
/// here so that explore's memo entries and frontier points can nest them.
template <MaybeConst<KernelMetrics> S, class V>
void fields(S& m, V& v) {
  v("config", m.config);
  v("kernel", m.kernel);
  v("size", m.size);
  v("cycles", m.cycles);
  v("flops", m.flops);
  v("bytes", m.bytes);
  v("fpu_util", m.fpu_util);
  v("flops_per_cycle", m.flops_per_cycle);
  v("gflops_ss", m.gflops_ss);
  v("gflops_tt", m.gflops_tt);
  v("bw_bytes_per_cycle", m.bw_bytes_per_cycle);
  v("bw_per_core", m.bw_per_core);
  v("arithmetic_intensity", m.arithmetic_intensity);
  v("verified", m.verified);
  v("timed_out", m.timed_out);
  v("clusters", m.clusters);
  v("noc_bytes", m.noc_bytes);
}

template <MaybeConst<PowerBreakdown> S, class V>
void fields(S& p, V& v) {
  v("config", p.config);
  v("fpu_w", p.fpu_w);
  v("vrf_w", p.vrf_w);
  v("vlsu_w", p.vlsu_w);
  v("snitch_w", p.snitch_w);
  v("icn_w", p.icn_w);
  v("banks_w", p.banks_w);
  v("burst_w", p.burst_w);
  v("static_w", p.static_w);
}

}  // namespace tcdm

namespace tcdm::metrics {

inline constexpr const char* kSchemaName = "tcdm-metrics";
inline constexpr unsigned kSchemaVersion = 1;

/// Default relative tolerances by metric provenance. Closed-form model
/// values must reproduce exactly (modulo float noise); simulated values are
/// deterministic too, but get headroom so benign scheduling refactors do not
/// force a re-record; boolean/count metrics must match exactly.
inline constexpr double kModelRelTol = 1e-9;
inline constexpr double kSimRelTol = 0.02;
inline constexpr double kExactTol = 0.0;

using tcdm::SchemaError;

struct Metric {
  double value = 0.0;
  double rel_tol = kSimRelTol;
};

struct MetricsDoc {
  std::string suite;
  std::string description;
  std::map<std::string, Metric> metrics;  // sorted: stable dumps, clean diffs

  void add(const std::string& name, double value, double rel_tol);

  /// Record the regression-relevant fields of one kernel run under
  /// `prefix/`: cycles, bw_per_core, fpu_util, gflops_ss,
  /// arithmetic_intensity (all at `sim_tol`) and verified (exact).
  void add_kernel_metrics(const std::string& prefix, const KernelMetrics& m,
                          double sim_tol = kSimRelTol);

  [[nodiscard]] Json to_json() const;
  /// Validates schema name/version; throws SchemaError on mismatch or
  /// structurally invalid documents, naming the key's `/`-joined path
  /// (`metrics/<name>/value`). Every key is required, null reads as NaN.
  static MetricsDoc from_json(const Json& j);

  void write_file(const std::string& path) const;
  /// Throws std::runtime_error when unreadable, SchemaError/JsonError when
  /// malformed; every message names `path`.
  static MetricsDoc read_file(const std::string& path);
};

}  // namespace tcdm::metrics
