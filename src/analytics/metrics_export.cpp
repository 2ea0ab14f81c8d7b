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

Json MetricsDoc::to_json() const {
  Json::Object metric_objs;
  for (const auto& [name, m] : metrics) {
    Json entry;
    entry.set("value", m.value);
    entry.set("rel_tol", m.rel_tol);
    metric_objs[name] = std::move(entry);
  }
  Json doc;
  doc.set("schema", kSchemaName);
  doc.set("schema_version", kSchemaVersion);
  doc.set("suite", suite);
  doc.set("description", description);
  doc.set("metrics", Json(std::move(metric_objs)));
  return doc;
}

MetricsDoc MetricsDoc::from_json(const Json& j) {
  if (!j.is_object()) throw SchemaError("metrics document is not a JSON object");
  const std::string schema = j.get("schema", std::string());
  if (schema != kSchemaName) {
    throw SchemaError("unknown schema \"" + schema + "\" (expected \"" + kSchemaName +
                      "\")");
  }
  const double version = j.get("schema_version", 0.0);
  if (version != kSchemaVersion) {
    std::ostringstream msg;
    msg << "unsupported schema_version " << version << " (expected " << kSchemaVersion
        << ")";
    throw SchemaError(msg.str());
  }
  MetricsDoc doc;
  doc.suite = j.get("suite", std::string());
  doc.description = j.get("description", std::string());
  for (const auto& [name, entry] : j.at("metrics").as_object()) {
    if (!entry.is_object() || !entry.contains("value")) {
      throw SchemaError("metric \"" + name + "\" has no value field");
    }
    // The writer always emits rel_tol; silently defaulting a hand-edited
    // baseline to the loose sim tolerance would quietly widen the gate.
    if (!entry.contains("rel_tol")) {
      throw SchemaError("metric \"" + name + "\" has no rel_tol field");
    }
    doc.metrics[name] = Metric{entry.at("value").as_double(),
                               entry.at("rel_tol").as_double()};
  }
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
  return from_json(Json::parse(buf.str()));
}

// ------------------------------------------- full-result serialization ----

Json kernel_metrics_to_json(const KernelMetrics& m) { return write_fields(m); }

KernelMetrics kernel_metrics_from_json(const Json& j, const std::string& path) {
  KernelMetrics m;
  read_fields(j, path, ReadPolicy::kPersisted, m);
  return m;
}

Json power_to_json(const PowerBreakdown& p) { return write_fields(p); }

PowerBreakdown power_from_json(const Json& j, const std::string& path) {
  PowerBreakdown p;
  read_fields(j, path, ReadPolicy::kPersisted, p);
  return p;
}

}  // namespace tcdm::metrics
