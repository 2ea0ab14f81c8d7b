#include "src/analytics/metrics_regression.hpp"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "src/analytics/report.hpp"

namespace tcdm::metrics {

namespace {

const char* status_label(DiffStatus s) {
  switch (s) {
    case DiffStatus::kOk: return "ok";
    case DiffStatus::kOutOfTolerance: return "OUT OF TOLERANCE";
    case DiffStatus::kNotFinite: return "NOT FINITE";
    case DiffStatus::kMissing: return "MISSING";
    case DiffStatus::kNew: return "new (unrecorded)";
  }
  return "?";
}

}  // namespace

CompareResult compare(const MetricsDoc& baseline, const MetricsDoc& current) {
  CompareResult result;
  for (const auto& [name, base] : baseline.metrics) {
    MetricDiff d;
    d.name = name;
    d.baseline = base.value;
    d.rel_tol = base.rel_tol;
    const auto it = current.metrics.find(name);
    if (it == current.metrics.end()) {
      d.status = DiffStatus::kMissing;
      d.current = std::nan("");
      ++result.num_missing;
    } else {
      d.current = it->second.value;
      const double denom = std::fabs(base.value);
      const double abs_delta = d.current - base.value;
      d.rel_delta = denom > 0.0 ? abs_delta / denom
                                : (abs_delta == 0.0 ? 0.0 : INFINITY);
      if (!std::isfinite(d.current)) {
        d.status = DiffStatus::kNotFinite;
        ++result.num_not_finite;
      } else if (!std::isfinite(d.rel_tol) || std::fabs(d.rel_delta) > d.rel_tol) {
        // A NaN/inf tolerance (a hand-edited baseline) would otherwise make
        // every comparison pass vacuously; fail instead.
        d.status = DiffStatus::kOutOfTolerance;
        ++result.num_out_of_tolerance;
      } else {
        d.status = DiffStatus::kOk;
        ++result.num_ok;
      }
    }
    result.diffs.push_back(std::move(d));
  }
  for (const auto& [name, cur] : current.metrics) {
    if (baseline.metrics.count(name) != 0) continue;
    MetricDiff d;
    d.name = name;
    d.baseline = std::nan("");
    d.current = cur.value;
    d.rel_tol = cur.rel_tol;
    // A poisoned value is a failure even before the metric is recorded —
    // kNew's warning-only default must not let NaN slip into a baseline.
    if (!std::isfinite(cur.value)) {
      d.status = DiffStatus::kNotFinite;
      ++result.num_not_finite;
    } else {
      d.status = DiffStatus::kNew;
      ++result.num_new;
    }
    result.diffs.push_back(std::move(d));
  }
  return result;
}

std::string render_delta_table(const CompareResult& result) {
  TableWriter tw({"metric", "baseline", "current", "delta", "tol", "status"});
  unsigned shown = 0;
  for (const MetricDiff& d : result.diffs) {
    if (d.status == DiffStatus::kOk) continue;
    const bool has_base = std::isfinite(d.baseline);
    const bool has_cur = std::isfinite(d.current);
    tw.add_row({d.name, has_base ? fmt(d.baseline, 6) : "-",
                has_cur ? fmt(d.current, 6) : (d.status == DiffStatus::kMissing ? "-" : "non-finite"),
                has_base && has_cur ? delta(d.rel_delta) : "-", pct(d.rel_tol),
                status_label(d.status)});
    ++shown;
  }
  std::ostringstream os;
  if (shown > 0) os << tw.str();
  os << result.num_ok << " ok, " << result.num_out_of_tolerance << " out of tolerance, "
     << result.num_not_finite << " non-finite, " << result.num_missing << " missing, "
     << result.num_new << " new\n";
  return os.str();
}

int check_pairs(const std::vector<std::string>& paths, std::ostream& out) {
  assert(!paths.empty() && paths.size() % 2 == 0);
  bool all_passed = true;
  for (std::size_t i = 0; i + 1 < paths.size(); i += 2) {
    MetricsDoc baseline, current;
    try {
      baseline = MetricsDoc::read_file(paths[i]);
      current = MetricsDoc::read_file(paths[i + 1]);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "check: %s\n", e.what());
      return 2;
    }
    const CompareResult result = compare(baseline, current);
    out << "=== " << (baseline.suite.empty() ? "(unnamed suite)" : baseline.suite) << ": "
        << paths[i] << " vs " << paths[i + 1] << " ===\n"
        << render_delta_table(result) << (result.passed() ? "PASS" : "FAIL") << "\n";
    all_passed = all_passed && result.passed();
  }
  return all_passed ? 0 : 1;
}

}  // namespace tcdm::metrics
