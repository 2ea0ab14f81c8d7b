#include "src/analytics/metrics_export.hpp"

#include <fstream>
#include <sstream>

namespace tcdm::metrics {

void MetricsDoc::add(const std::string& name, double value, double rel_tol) {
  metrics[name] = Metric{value, rel_tol};
}

void MetricsDoc::add_kernel_metrics(const std::string& prefix, const KernelMetrics& m,
                                    double sim_tol) {
  add(prefix + "/cycles", static_cast<double>(m.cycles), sim_tol);
  add(prefix + "/bw_per_core", m.bw_per_core, sim_tol);
  add(prefix + "/fpu_util", m.fpu_util, sim_tol);
  add(prefix + "/gflops_ss", m.gflops_ss, sim_tol);
  add(prefix + "/arithmetic_intensity", m.arithmetic_intensity, sim_tol);
  add(prefix + "/verified", m.verified ? 1.0 : 0.0, kExactTol);
}

template <MaybeConst<Metric> S, class V>
void fields(S& m, V& v) {
  v("value", m.value);
  v("rel_tol", m.rel_tol);
}

/// The document's own keys, after the schema header.
template <MaybeConst<MetricsDoc> S, class V>
void fields(S& d, V& v) {
  v("suite", d.suite);
  v("description", d.description);
  v("metrics", d.metrics);
}

Json MetricsDoc::to_json() const { return write_document(kSchemaName, kSchemaVersion, *this); }

MetricsDoc MetricsDoc::from_json(const Json& j) {
  // Every entry is read through Metric's list at `metrics/<name>`, so an
  // error names the key, and a null value reads back as NaN.
  MetricsDoc doc;
  read_document(j, "", ReadPolicy::kPersisted, kSchemaName, kSchemaVersion, doc);
  return doc;
}

void MetricsDoc::write_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path + " for writing");
  out << to_json().dump();
  if (!out) throw std::runtime_error("write to " + path + " failed");
}

MetricsDoc MetricsDoc::read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  // Rethrown as the same type, so callers' catches still tell a bad key
  // from bad JSON, but naming the file.
  try {
    return from_json(Json::parse(buf.str()));
  } catch (const SchemaError& e) {
    throw SchemaError(path + ": " + e.what());
  } catch (const JsonError& e) {
    throw JsonError(path + ": " + e.what());
  }
}

}  // namespace tcdm::metrics
