// KernelSpec and RunnerOptions serialization: the data-driven half of the
// scenario layer. Every kernel the simulator ships is constructible from a
// {"kind": ..., params...} object, so scenario files (scenario_file.hpp)
// and the randomized generator (scenario_gen.hpp) can describe workloads
// without C++ factories. Parameter names and defaults mirror the kernel
// constructors exactly. The builtin suites (builtin.hpp) are built from the
// same specs, so a builtin point written out as JSON simulates
// bit-identically.
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

/// Typed parameter accessors over KernelSpec::params, with the config
/// readers' type and range rules (ReadPolicy::kUserInput). Each name a
/// kind reads is recorded, so finish() refuses every other parameter.
class Params {
 public:
  Params(const Json::Object& params, const std::string& path)
      : path_(path), reader_(params, path, ReadPolicy::kUserInput) {}

  /// `fallback` when absent, else the value checked like a config field
  /// of type T.
  template <class T>
  [[nodiscard]] T get(const char* name, T fallback) {
    reader_(name, fallback);
    return fallback;
  }
  /// Required positive dimension.
  [[nodiscard]] unsigned dim(const char* name) {
    unsigned v = 0;
    reader_(name, v, kRequired);
    if (v == 0) fail(name, "must be positive");
    return v;
  }
  /// Seeds are 64-bit in every kernel constructor; read as std::uint64_t
  /// they reach 2^53, where JSON integers stay exact.
  [[nodiscard]] std::uint64_t seed_or(std::uint64_t fallback) {
    return get("seed", fallback);
  }

  [[noreturn]] void fail(const char* name, const std::string& what) const {
    spec_error(path_ + "/" + name, what);
  }
  /// Refuses a parameter the kind did not read.
  void finish() const { reader_.finish(); }

 private:
  const std::string& path_;
  FieldReader reader_;
};

RandomProbeKernel::Pattern probe_pattern(const Params& p, const std::string& s) {
  if (s == "uniform") return RandomProbeKernel::Pattern::kUniform;
  if (s == "remote") return RandomProbeKernel::Pattern::kRemoteOnly;
  if (s == "local") return RandomProbeKernel::Pattern::kLocalOnly;
  p.fail("pattern", "unknown probe pattern \"" + s + "\" (known: uniform, remote, local)");
}

TracePattern trace_pattern(const Params& p, const std::string& s) {
  if (s == "uniform") return TracePattern::kUniform;
  if (s == "hotspot") return TracePattern::kHotspot;
  if (s == "local") return TracePattern::kLocal;
  if (s == "neighbor") return TracePattern::kNeighbor;
  p.fail("pattern",
         "unknown trace pattern \"" + s + "\" (known: uniform, hotspot, local, neighbor)");
}

/// The auto-scaled random-probe iteration count of a random_probe kernel
/// without "iters": scaled down on the 1024-FPU preset to bound sweep
/// wall-clock. The Table I, Fig. 3, Pareto and explorer probes and their
/// recorded baselines rest on it.
unsigned probe_iters(const ClusterConfig& cfg) { return cfg.num_cores() >= 128 ? 64 : 128; }

/// Each kind and its construction: the parameters a kind takes are the ones
/// its `build` function reads.
struct KindInfo {
  const char* kind;
  std::unique_ptr<Kernel> (*build)(Params& p, const ClusterConfig& cfg);
};

const std::vector<KindInfo>& kind_table() {
  static const std::vector<KindInfo> table = {
      {"dotp",
       [](Params& p, const ClusterConfig&) -> std::unique_ptr<Kernel> {
         return std::make_unique<DotpKernel>(p.dim("n"), p.seed_or(1));
       }},
      {"axpy",
       [](Params& p, const ClusterConfig&) -> std::unique_ptr<Kernel> {
         const double alpha = p.get("alpha", 1.5);
         if (std::fabs(alpha) > std::numeric_limits<float>::max()) {
           p.fail("alpha", "outside the range of a float");
         }
         return std::make_unique<AxpyKernel>(p.dim("n"), static_cast<float>(alpha),
                                             p.seed_or(2));
       }},
      {"fft",
       [](Params& p, const ClusterConfig&) -> std::unique_ptr<Kernel> {
         return std::make_unique<FftKernel>(p.dim("instances"), p.dim("n"), p.seed_or(4));
       }},
      {"matmul",
       [](Params& p, const ClusterConfig&) -> std::unique_ptr<Kernel> {
         return std::make_unique<MatmulKernel>(p.dim("n"), p.get("row_block", 4u),
                                               p.seed_or(3));
       }},
      {"gemv",
       [](Params& p, const ClusterConfig&) -> std::unique_ptr<Kernel> {
         return std::make_unique<GemvKernel>(p.dim("m"), p.dim("n"), p.get("row_block", 4u),
                                             p.seed_or(11));
       }},
      {"conv2d",
       [](Params& p, const ClusterConfig&) -> std::unique_ptr<Kernel> {
         return std::make_unique<Conv2dKernel>(p.dim("h"), p.dim("w"), p.seed_or(12));
       }},
      {"jacobi2d",
       [](Params& p, const ClusterConfig&) -> std::unique_ptr<Kernel> {
         return std::make_unique<Jacobi2dKernel>(p.dim("h"), p.dim("w"), p.seed_or(13));
       }},
      {"relu",
       [](Params& p, const ClusterConfig&) -> std::unique_ptr<Kernel> {
         return std::make_unique<ReluKernel>(p.dim("n"), p.seed_or(15));
       }},
      {"maxpool2x2",
       [](Params& p, const ClusterConfig&) -> std::unique_ptr<Kernel> {
         return std::make_unique<MaxPoolKernel>(p.dim("h"), p.dim("w"), p.seed_or(16));
       }},
      {"transpose",
       [](Params& p, const ClusterConfig&) -> std::unique_ptr<Kernel> {
         return std::make_unique<TransposeKernel>(p.dim("n"), p.seed_or(14));
       }},
      {"random_probe",
       [](Params& p, const ClusterConfig& cfg) -> std::unique_ptr<Kernel> {
         // iters 0 / omitted -> the auto-scaled count.
         unsigned iters = p.get("iters", 0u);
         if (iters == 0) iters = probe_iters(cfg);
         return std::make_unique<RandomProbeKernel>(
             iters, probe_pattern(p, p.get("pattern", std::string("uniform"))),
             p.seed_or(5));
       }},
      {"local_stream",
       [](Params& p, const ClusterConfig&) -> std::unique_ptr<Kernel> {
         return std::make_unique<LocalStreamKernel>(p.dim("iters"));
       }},
      {"memcpy",
       [](Params& p, const ClusterConfig&) -> std::unique_ptr<Kernel> {
         return std::make_unique<MemcpyKernel>(p.dim("n"), p.seed_or(6));
       }},
      {"strided_copy",
       [](Params& p, const ClusterConfig&) -> std::unique_ptr<Kernel> {
         return std::make_unique<StridedCopyKernel>(p.dim("n"), p.dim("stride_words"),
                                                    p.seed_or(7));
       }},
      {"trace_replay",
       [](Params& p, const ClusterConfig& cfg) -> std::unique_ptr<Kernel> {
         // The trace is generated for the concrete cluster config.
         TraceConfig tc;
         tc.pattern = trace_pattern(p, p.get("pattern", std::string("uniform")));
         tc.entries_per_hart = p.get("entries_per_hart", tc.entries_per_hart);
         if (tc.entries_per_hart > kMaxTraceEntriesPerHart) {
           p.fail("entries_per_hart",
                  std::to_string(tc.entries_per_hart) + " exceeds the limit of " +
                      std::to_string(kMaxTraceEntriesPerHart) + " entries per hart");
         }
         tc.access_len = p.get("access_len", tc.access_len);
         tc.hotspot_fraction = p.get("hotspot_fraction", tc.hotspot_fraction);
         tc.hotspot_tile = p.get("hotspot_tile", tc.hotspot_tile);
         tc.write_fraction = p.get("write_fraction", tc.write_fraction);
         tc.seed = p.seed_or(tc.seed);
         return std::make_unique<TraceReplayKernel>(synthetic_trace(cfg, tc));
       }},
  };
  return table;
}

/// The kind's table entry; refuses an unknown kind at `path`/kind.
const KindInfo& find_kind(const std::string& kind, const std::string& path) {
  for (const KindInfo& k : kind_table()) {
    if (kind == k.kind) return k;
  }
  std::string known;
  for (const std::string& k : KernelSpec::kinds()) {
    known += known.empty() ? "" : ", ";
    known += k;
  }
  spec_error(path + "/kind", "unknown kernel kind \"" + kind + "\" (known: " + known + ")");
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
  KernelSpec spec;
  spec.params = j.as_object();
  const auto kind = spec.params.find("kind");
  if (kind == spec.params.end()) spec_error(path + "/kind", "required");
  if (!kind->second.is_string()) spec_error(path + "/kind", "expected a string");
  spec.kind = kind->second.as_string();
  spec.params.erase(kind);
  (void)find_kind(spec.kind, path);
  return spec;
}

std::unique_ptr<Kernel> KernelSpec::instantiate(const ClusterConfig& cfg,
                                                const std::string& path) const {
  const KindInfo& info = find_kind(kind, path);
  Params p(params, path);
  std::unique_ptr<Kernel> kernel = info.build(p, cfg);
  p.finish();
  return kernel;
}

Json runner_options_to_json(const RunnerOptions& o) { return write_fields(o); }

RunnerOptions runner_options_from_json(const Json& j, const std::string& path) {
  RunnerOptions o;
  read_fields(j, path, ReadPolicy::kUserInput, o);
  // A zero cycle budget times out, and a zero watchdog window fires, before
  // the run's first cycle.
  if (o.max_cycles == 0) spec_error(path + "/max_cycles", "must be at least 1");
  if (o.watchdog_window == 0) spec_error(path + "/watchdog_window", "must be at least 1");
  return o;
}

}  // namespace tcdm::scenario
