// KernelSpec and RunnerOptions serialization: the data-driven half of the
// scenario layer. Every kernel the simulator ships is constructible from a
// {"kind": ..., params...} object, so scenario files (scenario_file.hpp)
// and the randomized generator (scenario_gen.hpp) can describe workloads
// without C++ factories. Parameter names and defaults mirror the kernel
// constructors exactly; a builtin suite re-expressed as JSON therefore
// simulates bit-identically.
#include "src/scenario/scenario.hpp"

#include <cmath>
#include <stdexcept>

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

/// Typed parameter accessors over KernelSpec::params.
class Params {
 public:
  Params(const Json::Object& params, const std::string& path)
      : params_(params), path_(path) {}

  [[nodiscard]] unsigned uint(const std::string& name) const {
    const Json* v = find(name);
    if (v == nullptr) spec_error(path_ + "/" + name, "required parameter missing");
    return uint_of(*v, name);
  }
  [[nodiscard]] unsigned uint_or(const std::string& name, unsigned fallback) const {
    const Json* v = find(name);
    return v == nullptr ? fallback : uint_of(*v, name);
  }
  [[nodiscard]] double num_or(const std::string& name, double fallback) const {
    const Json* v = find(name);
    if (v == nullptr) return fallback;
    if (!v->is_number()) spec_error(path_ + "/" + name, "expected a number");
    return v->as_double();
  }
  [[nodiscard]] std::string str_or(const std::string& name,
                                   const std::string& fallback) const {
    const Json* v = find(name);
    if (v == nullptr) return fallback;
    if (!v->is_string()) spec_error(path_ + "/" + name, "expected a string");
    return v->as_string();
  }
  /// Seeds are 64-bit in every kernel constructor; JSON numbers carry
  /// integers exactly up to 2^53, which is the accepted range here.
  [[nodiscard]] std::uint64_t seed_or(std::uint64_t fallback) const {
    const Json* v = find("seed");
    if (v == nullptr) return fallback;
    if (!v->is_uint(9007199254740992.0)) {
      spec_error(path_ + "/seed", "expected a non-negative integer");
    }
    return static_cast<std::uint64_t>(v->as_double());
  }
  /// Required positive dimension.
  [[nodiscard]] unsigned dim(const std::string& name) const {
    const unsigned v = uint(name);
    if (v == 0) spec_error(path_ + "/" + name, "must be positive");
    return v;
  }

 private:
  [[nodiscard]] const Json* find(const std::string& name) const {
    const auto it = params_.find(name);
    return it == params_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] unsigned uint_of(const Json& v, const std::string& name) const {
    if (!v.is_uint()) spec_error(path_ + "/" + name, "expected a non-negative integer");
    return static_cast<unsigned>(v.as_double());
  }

  const Json::Object& params_;
  const std::string& path_;
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
  const Params p(params, path);
  if (kind == "dotp") {
    return std::make_unique<DotpKernel>(p.dim("n"), p.seed_or(1));
  }
  if (kind == "axpy") {
    return std::make_unique<AxpyKernel>(
        p.dim("n"), static_cast<float>(p.num_or("alpha", 1.5)), p.seed_or(2));
  }
  if (kind == "fft") {
    return std::make_unique<FftKernel>(p.dim("instances"), p.dim("n"), p.seed_or(4));
  }
  if (kind == "matmul") {
    return std::make_unique<MatmulKernel>(p.dim("n"), p.uint_or("row_block", 4),
                                          p.seed_or(3));
  }
  if (kind == "gemv") {
    return std::make_unique<GemvKernel>(p.dim("m"), p.dim("n"),
                                        p.uint_or("row_block", 4), p.seed_or(11));
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
    unsigned iters = p.uint_or("iters", 0);
    if (iters == 0) iters = builtin::probe_iters(cfg);
    return std::make_unique<RandomProbeKernel>(
        iters, probe_pattern(p.str_or("pattern", "uniform"), path), p.seed_or(5));
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
  tc.pattern = trace_pattern(p.str_or("pattern", "uniform"), path);
  tc.entries_per_hart = p.uint_or("entries_per_hart", tc.entries_per_hart);
  tc.access_len = p.uint_or("access_len", tc.access_len);
  tc.hotspot_fraction = p.num_or("hotspot_fraction", tc.hotspot_fraction);
  tc.hotspot_tile = p.uint_or("hotspot_tile", tc.hotspot_tile);
  tc.write_fraction = p.num_or("write_fraction", tc.write_fraction);
  tc.seed = p.seed_or(tc.seed);
  return std::make_unique<TraceReplayKernel>(synthetic_trace(cfg, tc));
}

Json runner_options_to_json(const RunnerOptions& o) {
  Json j;
  j.set("verify", o.verify);
  j.set("max_cycles", static_cast<unsigned long long>(o.max_cycles));
  j.set("watchdog_window", static_cast<unsigned long long>(o.watchdog_window));
  return j;
}

RunnerOptions runner_options_from_json(const Json& j, const std::string& path) {
  if (!j.is_object()) spec_error(path, "expected an options object");
  RunnerOptions o;
  for (const auto& [key, val] : j.as_object()) {
    const std::string p = path + "/" + key;
    if (key == "verify") {
      if (!val.is_bool()) spec_error(p, "expected true or false");
      o.verify = val.as_bool();
    } else if (key == "max_cycles" || key == "watchdog_window") {
      if (!val.is_uint(9007199254740992.0)) {  // 2^53: exact-integer range
        spec_error(p, "expected a non-negative integer");
      }
      (key == "max_cycles" ? o.max_cycles : o.watchdog_window) =
          static_cast<Cycle>(val.as_double());
    } else {
      spec_error(p, "unknown key (options take verify, max_cycles, "
                    "watchdog_window)");
    }
  }
  return o;
}

}  // namespace tcdm::scenario
