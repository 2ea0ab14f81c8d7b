// Regression gate over exported metrics documents: diff a freshly emitted
// MetricsDoc against a recorded baseline, judge every metric against its
// per-metric relative tolerance, and render a human-readable delta table.
// `tcdm_run check` forwards its file arguments to check_pairs, so the
// gate's output and exit codes are unit-testable in-process.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "src/analytics/metrics_export.hpp"

namespace tcdm::metrics {

enum class DiffStatus {
  kOk,              // within tolerance
  kOutOfTolerance,  // |delta| exceeds the baseline's rel_tol
  kNotFinite,       // current value is NaN/Inf — always a failure
  kMissing,         // in the baseline but absent from the current export
  kNew,             // emitted but not recorded — a warning
};

struct MetricDiff {
  std::string name;
  double baseline = 0.0;
  double current = 0.0;
  double rel_delta = 0.0;  // (current - baseline) / |baseline|
  double rel_tol = 0.0;
  DiffStatus status = DiffStatus::kOk;
};

struct CompareResult {
  std::vector<MetricDiff> diffs;  // baseline order, then new metrics
  unsigned num_ok = 0;
  unsigned num_out_of_tolerance = 0;
  unsigned num_not_finite = 0;
  unsigned num_missing = 0;
  unsigned num_new = 0;

  /// Unrecorded metrics warn; only a recorded metric can fail the gate.
  [[nodiscard]] bool passed() const {
    return num_out_of_tolerance == 0 && num_not_finite == 0 && num_missing == 0;
  }
};

/// Judges every metric of `current` against `baseline`'s own rel_tol.
[[nodiscard]] CompareResult compare(const MetricsDoc& baseline, const MetricsDoc& current);

/// Delta table (TableWriter format) of every non-OK metric plus summary
/// counts.
[[nodiscard]] std::string render_delta_table(const CompareResult& result);

/// The gate over `paths` = baseline, current[, baseline, current ...] (a
/// non-empty, even-length list): prints each pair's delta table and verdict
/// to `out`. Returns 0 when every pair passes, 1 on a regression, and 2
/// after naming an unreadable or malformed file on stderr.
[[nodiscard]] int check_pairs(const std::vector<std::string>& paths, std::ostream& out);

}  // namespace tcdm::metrics
