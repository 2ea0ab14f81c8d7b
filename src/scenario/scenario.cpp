// KernelSpec and RunnerOptions serialization: the data-driven half of the
// scenario layer. Every kernel the simulator ships is constructible from a
// {"kind": ..., params...} object, so scenario files (scenario_file.hpp)
// and the randomized generator (scenario_gen.hpp) can describe workloads
// without C++ factories. Parameter names and defaults mirror the kernel
// constructors exactly; a builtin suite re-expressed as JSON therefore
// simulates bit-identically.
#include "src/scenario/scenario.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/common/json_fields.hpp"
#include "src/kernels/axpy.hpp"
#include "src/kernels/conv2d.hpp"
#include "src/kernels/dotp.hpp"
#include "src/kernels/fft.hpp"
#include "src/kernels/gemv.hpp"
#include "src/kernels/matmul.hpp"
#include "src/kernels/maxpool.hpp"
#include "src/kernels/probes.hpp"
#include "src/kernels/relu.hpp"
#include "src/kernels/stencil.hpp"
#include "src/kernels/trace_replay.hpp"
#include "src/kernels/transpose.hpp"
#include "src/scenario/builtin.hpp"

namespace tcdm {

/// The field list of RunnerOptions (src/common/json_fields.hpp). The
/// host-side `sim` options are not scenario data and stay unlisted.
template <MaybeConst<RunnerOptions> S, class V>
void fields(S& o, V& v) {
  v("verify", o.verify);
  v("max_cycles", o.max_cycles);
  v("watchdog_window", o.watchdog_window);
}

}  // namespace tcdm

namespace tcdm::scenario {

namespace {

[[noreturn]] void spec_error(const std::string& path, const std::string& what) {
  throw std::invalid_argument(path + ": " + what);
}

/// kind -> parameter names it accepts (construction-time checks enforce
/// which of them are required and their ranges).
struct KindInfo {
  const char* kind;
  std::vector<const char*> params;
};

const std::vector<KindInfo>& kind_table() {
  static const std::vector<KindInfo> table = {
      {"dotp", {"n", "seed"}},
      {"axpy", {"n", "alpha", "seed"}},
      {"fft", {"instances", "n", "seed"}},
      {"matmul", {"n", "row_block", "seed"}},
      {"gemv", {"m", "n", "row_block", "seed"}},
      {"conv2d", {"h", "w", "seed"}},
      {"jacobi2d", {"h", "w", "seed"}},
      {"relu", {"n", "seed"}},
      {"maxpool2x2", {"h", "w", "seed"}},
      {"transpose", {"n", "seed"}},
      {"random_probe", {"iters", "pattern", "seed"}},
      {"local_stream", {"iters"}},
      {"memcpy", {"n", "seed"}},
      {"strided_copy", {"n", "stride_words", "seed"}},
      {"trace_replay",
       {"pattern", "entries_per_hart", "access_len", "hotspot_fraction",
        "hotspot_tile", "write_fraction", "seed"}},
  };
  return table;
}

const KindInfo* find_kind(const std::string& kind) {
  for (const KindInfo& k : kind_table()) {
    if (kind == k.kind) return &k;
  }
  return nullptr;
}

std::string known_kinds_list() {
  std::string out;
  for (const std::string& k : KernelSpec::kinds()) {
    if (!out.empty()) out += ", ";
    out += k;
  }
  return out;
}

/// Typed parameter accessors over KernelSpec::params, with the config
/// readers' type and range rules (ReadPolicy::kUserInput).
class Params {
 public:
  Params(const Json::Object& params, const std::string& path)
      : params_(params), path_(path), reader_(params, path, ReadPolicy::kUserInput) {}

  /// `fallback` when absent, else the value checked like a config field
  /// of type T.
  template <class T>
  [[nodiscard]] T get(const char* name, T fallback) {
    reader_(name, fallback);
    return fallback;
  }
  /// Required positive dimension.
  [[nodiscard]] unsigned dim(const char* name) {
    if (params_.count(name) == 0) {
      spec_error(path_ + "/" + name, "required parameter missing");
    }
    const unsigned v = get(name, 0u);
    if (v == 0) spec_error(path_ + "/" + name, "must be positive");
    return v;
  }
  /// Seeds are 64-bit in every kernel constructor; read as std::uint64_t
  /// they reach 2^53, where JSON integers stay exact.
  [[nodiscard]] std::uint64_t seed_or(std::uint64_t fallback) {
    return get("seed", fallback);
  }

 private:
  const Json::Object& params_;
  const std::string& path_;
  FieldReader reader_;
};

RandomProbeKernel::Pattern probe_pattern(const std::string& s, const std::string& path) {
  if (s == "uniform") return RandomProbeKernel::Pattern::kUniform;
  if (s == "remote") return RandomProbeKernel::Pattern::kRemoteOnly;
  if (s == "local") return RandomProbeKernel::Pattern::kLocalOnly;
  spec_error(path + "/pattern", "unknown probe pattern \"" + s +
                                    "\" (known: uniform, remote, local)");
}

TracePattern trace_pattern(const std::string& s, const std::string& path) {
  if (s == "uniform") return TracePattern::kUniform;
  if (s == "hotspot") return TracePattern::kHotspot;
  if (s == "local") return TracePattern::kLocal;
  if (s == "neighbor") return TracePattern::kNeighbor;
  spec_error(path + "/pattern", "unknown trace pattern \"" + s +
                                    "\" (known: uniform, hotspot, local, neighbor)");
}

}  // namespace

const std::vector<std::string>& KernelSpec::kinds() {
  static const std::vector<std::string> kinds = [] {
    std::vector<std::string> out;
    for (const KindInfo& k : kind_table()) out.emplace_back(k.kind);
    return out;
  }();
  return kinds;
}

Json KernelSpec::to_json() const {
  Json j;
  j.set("kind", kind);
  for (const auto& [key, val] : params) j.set(key, val);
  return j;
}

KernelSpec KernelSpec::from_json(const Json& j, const std::string& path) {
  if (!j.is_object()) spec_error(path, "expected a kernel object");
  if (!j.contains("kind")) spec_error(path + "/kind", "required");
  const Json& kind_v = j.at("kind");
  if (!kind_v.is_string()) spec_error(path + "/kind", "expected a string");

  KernelSpec spec;
  spec.kind = kind_v.as_string();
  const KindInfo* info = find_kind(spec.kind);
  if (info == nullptr) {
    spec_error(path + "/kind", "unknown kernel kind \"" + spec.kind +
                                   "\" (known: " + known_kinds_list() + ")");
  }
  for (const auto& [key, val] : j.as_object()) {
    if (key == "kind") continue;
    bool known = false;
    for (const char* p : info->params) known = known || key == p;
    if (!known) {
      spec_error(path + "/" + key,
                 "unknown parameter for kernel kind \"" + spec.kind + "\"");
    }
    spec.params[key] = val;
  }
  return spec;
}

std::unique_ptr<Kernel> KernelSpec::instantiate(const ClusterConfig& cfg,
                                                const std::string& path) const {
  if (find_kind(kind) == nullptr) {
    spec_error(path + "/kind", "unknown kernel kind \"" + kind +
                                   "\" (known: " + known_kinds_list() + ")");
  }
  Params p(params, path);
  if (kind == "dotp") {
    return std::make_unique<DotpKernel>(p.dim("n"), p.seed_or(1));
  }
  if (kind == "axpy") {
    const double alpha = p.get("alpha", 1.5);
    if (std::fabs(alpha) > std::numeric_limits<float>::max()) {
      spec_error(path + "/alpha", "outside the range of a float");
    }
    return std::make_unique<AxpyKernel>(p.dim("n"), static_cast<float>(alpha), p.seed_or(2));
  }
  if (kind == "fft") {
    return std::make_unique<FftKernel>(p.dim("instances"), p.dim("n"), p.seed_or(4));
  }
  if (kind == "matmul") {
    return std::make_unique<MatmulKernel>(p.dim("n"), p.get("row_block", 4u),
                                          p.seed_or(3));
  }
  if (kind == "gemv") {
    return std::make_unique<GemvKernel>(p.dim("m"), p.dim("n"),
                                        p.get("row_block", 4u), p.seed_or(11));
  }
  if (kind == "conv2d") {
    return std::make_unique<Conv2dKernel>(p.dim("h"), p.dim("w"), p.seed_or(12));
  }
  if (kind == "jacobi2d") {
    return std::make_unique<Jacobi2dKernel>(p.dim("h"), p.dim("w"), p.seed_or(13));
  }
  if (kind == "relu") {
    return std::make_unique<ReluKernel>(p.dim("n"), p.seed_or(15));
  }
  if (kind == "maxpool2x2") {
    return std::make_unique<MaxPoolKernel>(p.dim("h"), p.dim("w"), p.seed_or(16));
  }
  if (kind == "transpose") {
    return std::make_unique<TransposeKernel>(p.dim("n"), p.seed_or(14));
  }
  if (kind == "random_probe") {
    // iters 0 / omitted -> the shared auto-scaled count, so file-defined
    // probes stay in lockstep with the builtin suites and their baselines.
    unsigned iters = p.get("iters", 0u);
    if (iters == 0) iters = builtin::probe_iters(cfg);
    return std::make_unique<RandomProbeKernel>(
        iters, probe_pattern(p.get("pattern", std::string("uniform")), path), p.seed_or(5));
  }
  if (kind == "local_stream") {
    return std::make_unique<LocalStreamKernel>(p.dim("iters"));
  }
  if (kind == "memcpy") {
    return std::make_unique<MemcpyKernel>(p.dim("n"), p.seed_or(6));
  }
  if (kind == "strided_copy") {
    return std::make_unique<StridedCopyKernel>(p.dim("n"), p.dim("stride_words"),
                                               p.seed_or(7));
  }
  // trace_replay: the trace is generated for the concrete cluster config,
  // exactly as the builtin trace_patterns registrations do.
  TraceConfig tc;
  tc.pattern = trace_pattern(p.get("pattern", std::string("uniform")), path);
  tc.entries_per_hart = p.get("entries_per_hart", tc.entries_per_hart);
  if (tc.entries_per_hart > kMaxTraceEntriesPerHart) {
    spec_error(path + "/entries_per_hart",
               std::to_string(tc.entries_per_hart) + " exceeds the limit of " +
                   std::to_string(kMaxTraceEntriesPerHart) + " entries per hart");
  }
  tc.access_len = p.get("access_len", tc.access_len);
  tc.hotspot_fraction = p.get("hotspot_fraction", tc.hotspot_fraction);
  tc.hotspot_tile = p.get("hotspot_tile", tc.hotspot_tile);
  tc.write_fraction = p.get("write_fraction", tc.write_fraction);
  tc.seed = p.seed_or(tc.seed);
  return std::make_unique<TraceReplayKernel>(synthetic_trace(cfg, tc));
}

Json runner_options_to_json(const RunnerOptions& o) { return write_fields(o); }

RunnerOptions runner_options_from_json(const Json& j, const std::string& path) {
  RunnerOptions o;
  read_fields(j, path, ReadPolicy::kUserInput, o);
  return o;
}

}  // namespace tcdm::scenario
