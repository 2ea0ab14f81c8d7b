// Builtin ablation suites: burst-length/pattern sensitivity, grouping-
// factor sweep, ROB depth, store bursts and the strided-burst extension.
// All sweeps and sizes match the recorded baselines/ documents.
#include <cstdio>
#include <iostream>
#include <memory>
#include <utility>
#include <vector>

#include "src/analytics/bandwidth_model.hpp"
#include "src/analytics/report.hpp"
#include "src/kernels/dotp.hpp"
#include "src/kernels/probes.hpp"
#include "src/kernels/transpose.hpp"
#include "src/scenario/builtin.hpp"

namespace tcdm::scenario {
namespace builtin {
namespace {

// ------------------------------------------------------ ablation_burst ----

void print_ablation_burst(const ResultSet& rs) {
  std::printf("\n=== Ablation: burst length cap (MP4Spatz4-GF4 random probe) ===\n");
  TableWriter tw({"max burst len", "BW [B/cyc/core]", "vs full-K bursts"});
  const double full = rs.metrics("maxlen4").bw_per_core;
  for (unsigned cap : {2u, 3u, 4u}) {
    const KernelMetrics& r = rs.metrics("maxlen" + std::to_string(cap));
    tw.add_row({std::to_string(cap), fmt(r.bw_per_core), delta(r.bw_per_core / full - 1.0)});
  }
  tw.print(std::cout);

  std::printf("\n=== Ablation: burst-eligible pattern (memcpy: unit loads, narrow stores) ===\n");
  TableWriter tm({"config", "BW [B/cyc/core]", "cycles"});
  const KernelMetrics& mb = rs.metrics("memcpy/baseline");
  const KernelMetrics& mg = rs.metrics("memcpy/gf4");
  tm.add_row({"baseline", fmt(mb.bw_per_core), std::to_string(mb.cycles)});
  tm.add_row({"gf4", fmt(mg.bw_per_core), std::to_string(mg.cycles)});
  tm.print(std::cout);
  std::printf("memcpy gains come only from the load half: stores never burst\n"
              "(paper bursts loads only), capping the end-to-end speedup at ~2x\n"
              "even with GF4 (measured %s).\n",
              delta(static_cast<double>(mb.cycles) / mg.cycles - 1.0).c_str());
}

void register_ablation_burst(ScenarioRegistry& reg) {
  SuiteSpec suite;
  suite.name = "ablation_burst";
  suite.description =
      "Ablation: max burst length cap (MP4Spatz4-GF4 random probe) and "
      "burst-eligible vs ineligible access patterns (memcpy baseline vs GF4)";
  suite.print = print_ablation_burst;
  reg.add_suite(std::move(suite));

  for (unsigned cap : {2u, 3u, 4u}) {
    ScenarioSpec s;
    s.name = "ablation_burst/maxlen" + std::to_string(cap);
    s.config = [cap] {
      ClusterConfig cfg = ClusterConfig::mp4spatz4().with_burst(4);
      cfg.max_burst_len = cap;
      return cfg;
    };
    s.kernel = [] { return std::make_unique<RandomProbeKernel>(256); };
    s.opts.verify = false;
    s.opts.max_cycles = 10'000'000;
    reg.add(std::move(s));
  }
  for (unsigned gf : {0u, 4u}) {
    ScenarioSpec s;
    s.name = std::string("ablation_burst/memcpy/") + (gf ? "gf4" : "baseline");
    s.config = [gf] {
      ClusterConfig cfg = ClusterConfig::mp4spatz4();
      return gf ? cfg.with_burst(gf) : cfg;
    };
    s.kernel = [] { return std::make_unique<MemcpyKernel>(4096); };
    s.opts.max_cycles = 10'000'000;
    reg.add(std::move(s));
  }
}

// --------------------------------------------------------- ablation_gf ----

void print_ablation_gf(const ResultSet& rs) {
  std::printf("\n=== Ablation: grouping factor sweep on MP64Spatz4 (K = 4) ===\n");
  TableWriter tw({"GF", "model BW [B/cyc]", "probe BW [B/cyc]", "probe util",
                  "dotp GFLOPS@ss", "dotp speedup"});
  const ClusterConfig cfg = ClusterConfig::mp64spatz4();
  const double dotp0 = rs.metrics("dotp/gf0").gflops_ss;
  for (unsigned gf : {0u, 2u, 4u, 8u}) {
    const unsigned eff = gf == 0 ? 1 : gf;
    const KernelMetrics& p = rs.metrics("probe/gf" + std::to_string(gf));
    const KernelMetrics& d = rs.metrics("dotp/gf" + std::to_string(gf));
    tw.add_row({gf == 0 ? "base" : std::to_string(gf),
                fmt(model::hier_avg_bw(cfg.num_cores(), cfg.vlsu_ports, eff)),
                fmt(p.bw_per_core), pct(p.bw_per_core / cfg.vlsu_peak_bw()),
                fmt(d.gflops_ss), delta(d.gflops_ss / dotp0 - 1.0)});
  }
  tw.print(std::cout);
  std::printf("GF8 == GF4 by eq. (3): a burst never exceeds K = 4 words, so wider\n"
              "response channels cannot carry more than one burst's words per beat.\n");
}

void register_ablation_gf(ScenarioRegistry& reg) {
  SuiteSpec suite;
  suite.name = "ablation_gf";
  suite.description =
      "Ablation: grouping-factor sweep beyond the paper's GF2/GF4 on "
      "MP64Spatz4 — analytical saturation at GF == K and its simulated track";
  suite.print = print_ablation_gf;
  reg.add_suite(std::move(suite));

  for (const bool dotp : {false, true}) {
    for (unsigned gf : {0u, 2u, 4u, 8u}) {
      ScenarioSpec s;
      s.name = std::string("ablation_gf/") + (dotp ? "dotp" : "probe") + "/gf" +
               std::to_string(gf);
      s.config = [gf] {
        ClusterConfig cfg = ClusterConfig::mp64spatz4();
        return gf > 0 ? cfg.with_burst(gf) : cfg;
      };
      s.opts.max_cycles = 10'000'000;
      if (dotp) {
        s.kernel = [] { return std::make_unique<DotpKernel>(65536); };
      } else {
        s.kernel = [] { return std::make_unique<RandomProbeKernel>(128); };
        s.opts.verify = false;
      }
      reg.add(std::move(s));
    }
  }
}

// -------------------------------------------------------- ablation_rob ----

void print_ablation_rob(const ResultSet& rs) {
  std::printf("\n=== Ablation: ROB depth per VLSU port (MP64Spatz4 random probe) ===\n");
  TableWriter tw({"ROB depth/port", "baseline BW [B/cyc]", "GF4 BW [B/cyc]"});
  for (unsigned rob : {4u, 8u, 16u, 32u}) {
    tw.add_row({std::to_string(rob),
                fmt(rs.metrics("rob" + std::to_string(rob) + "/gf0").bw_per_core),
                fmt(rs.metrics("rob" + std::to_string(rob) + "/gf4").bw_per_core)});
  }
  tw.print(std::cout);
  std::printf("The GF4 configuration needs more outstanding words to keep its 4x\n"
              "response bandwidth busy — the reason the paper doubles the ROB.\n");
}

void register_ablation_rob(ScenarioRegistry& reg) {
  SuiteSpec suite;
  suite.name = "ablation_rob";
  suite.description =
      "Ablation: per-port ROB depth sweep (latency tolerance) for baseline "
      "and GF4 on MP64Spatz4";
  suite.print = print_ablation_rob;
  reg.add_suite(std::move(suite));

  for (unsigned rob : {4u, 8u, 16u, 32u}) {
    for (unsigned gf : {0u, 4u}) {
      ScenarioSpec s;
      s.name = "ablation_rob/rob" + std::to_string(rob) + "/gf" + std::to_string(gf);
      s.config = [rob, gf] {
        ClusterConfig cfg = ClusterConfig::mp64spatz4();
        if (gf > 0) cfg = cfg.with_burst(gf);
        cfg.rob_depth = rob;  // override (with_burst already doubled the default)
        return cfg;
      };
      s.kernel = [] { return std::make_unique<RandomProbeKernel>(128); };
      s.opts.verify = false;
      s.opts.max_cycles = 10'000'000;
      reg.add(std::move(s));
    }
  }
}

// ------------------------------------------------------ ablation_store ----

constexpr unsigned kStoreCopyElems = 16384;
constexpr unsigned kStoreTransposeN = 128;

void print_ablation_store(const ResultSet& rs) {
  std::printf(
      "\n=== Ablation: store bursts on MP64Spatz4 (memcpy n=%u, transpose %ux%u) ===\n",
      kStoreCopyElems, kStoreTransposeN, kStoreTransposeN);
  TableWriter tw({"config", "memcpy [cyc]", "vs GF4", "transpose [cyc]", "vs GF4"});
  const double m0 = static_cast<double>(rs.metrics("memcpy/st0").cycles);
  const double t0 = static_cast<double>(rs.metrics("transpose/st0").cycles);
  const char* label[] = {"GF4 (paper, loads only)", "GF4 + store bursts, 1-word req ch.",
                         "GF4 + store bursts, 2-word req ch.",
                         "GF4 + store bursts, 4-word req ch."};
  const unsigned cfgs[] = {0u, 1u, 2u, 4u};
  for (unsigned i = 0; i < 4; ++i) {
    const KernelMetrics& m = rs.metrics("memcpy/st" + std::to_string(cfgs[i]));
    const KernelMetrics& t = rs.metrics("transpose/st" + std::to_string(cfgs[i]));
    tw.add_row({label[i], std::to_string(m.cycles), delta(m0 / m.cycles - 1.0),
                std::to_string(t.cycles), delta(t0 / t.cycles - 1.0)});
  }
  tw.print(std::cout);
  std::printf(
      "Over the unmodified request channel a store burst's payload still\n"
      "streams word by word; the residual gain comes from occupying one\n"
      "request-FIFO entry per burst instead of per word (RTL with per-word\n"
      "buffering would see close to 0%%). The full win requires widening\n"
      "the request data field — the same routing cost the paper spent on\n"
      "the response side instead, where loads benefit every kernel and no\n"
      "extra payload buffering is needed.\n"
      "Transpose's strided stores never coalesce in any configuration.\n");
}

void register_ablation_store(ScenarioRegistry& reg) {
  SuiteSpec suite;
  suite.name = "ablation_store";
  suite.description =
      "Ablation: store-burst extension on MP64Spatz4-GF4 — narrow vs "
      "widened request channel, unit-stride (memcpy) vs strided (transpose) "
      "stores";
  suite.print = print_ablation_store;
  reg.add_suite(std::move(suite));

  for (const bool transpose : {false, true}) {
    for (unsigned req_gf : {0u, 1u, 2u, 4u}) {
      ScenarioSpec s;
      s.name = std::string("ablation_store/") + (transpose ? "transpose" : "memcpy") +
               "/st" + std::to_string(req_gf);
      s.config = [req_gf] {
        ClusterConfig cfg = ClusterConfig::mp64spatz4().with_burst(4);
        return req_gf > 0 ? cfg.with_store_bursts(req_gf) : cfg;
      };
      if (transpose) {
        s.kernel = [] { return std::make_unique<TransposeKernel>(kStoreTransposeN); };
      } else {
        s.kernel = [] { return std::make_unique<MemcpyKernel>(kStoreCopyElems); };
      }
      s.opts.max_cycles = 20'000'000;
      reg.add(std::move(s));
    }
  }
}

// ----------------------------------------------------- ablation_stride ----

constexpr unsigned kStrideElems = 8192;

void print_ablation_stride(const ResultSet& rs) {
  std::printf(
      "\n=== Ablation: strided-burst extension on MP64Spatz4 "
      "(strided copy, %u elements, banks/tile = 4) ===\n",
      kStrideElems);
  TableWriter tw({"stride [words]", "baseline [cyc]", "GF4 [cyc]", "GF4+strided [cyc]",
                  "ext vs GF4", "ext vs baseline"});
  for (unsigned stride : {1u, 2u, 3u, 4u, 8u}) {
    // Split concatenation sidesteps a GCC-12 -Wrestrict false positive on
    // chained operator+ over std::to_string temporaries.
    std::string prefix = "s";
    prefix += std::to_string(stride);
    const KernelMetrics& b = rs.metrics(prefix + "/base");
    const KernelMetrics& g = rs.metrics(prefix + "/gf4");
    const KernelMetrics& e = rs.metrics(prefix + "/gf4sb");
    tw.add_row({std::to_string(stride), std::to_string(b.cycles),
                std::to_string(g.cycles), std::to_string(e.cycles),
                delta(static_cast<double>(g.cycles) / e.cycles - 1.0),
                delta(static_cast<double>(b.cycles) / e.cycles - 1.0)});
  }
  tw.print(std::cout);
  std::printf(
      "The paper's design keys on the VLE opcode, so vlse32 traffic never\n"
      "bursts in plain GF4 (baseline == GF4 here). The extension coalesces\n"
      "stride 1 (a vle32 in disguise) fully and strides 2..3 into shorter\n"
      "runs; at stride >= banks/tile = 4 every element maps to a different\n"
      "tile and the extension correctly degrades to narrow behaviour.\n");
}

void register_ablation_stride(ScenarioRegistry& reg) {
  SuiteSpec suite;
  suite.name = "ablation_stride";
  suite.description =
      "Ablation: strided-burst extension (future work beyond paper §II-C) — "
      "strided-copy stride sweep on MP64Spatz4, baseline / GF4 / GF4+strided";
  suite.print = print_ablation_stride;
  reg.add_suite(std::move(suite));

  for (unsigned stride : {1u, 2u, 3u, 4u, 8u}) {
    for (int mode : {0, 1, 2}) {
      ScenarioSpec s;
      const char* tag = mode == 0 ? "base" : (mode == 1 ? "gf4" : "gf4sb");
      s.name = "ablation_stride/s" + std::to_string(stride) + "/" + tag;
      s.config = [mode] {
        ClusterConfig cfg = ClusterConfig::mp64spatz4();
        if (mode >= 1) cfg = cfg.with_burst(4);
        if (mode == 2) cfg = cfg.with_strided_bursts();
        return cfg;
      };
      s.kernel = [stride] { return std::make_unique<StridedCopyKernel>(kStrideElems, stride); };
      s.opts.max_cycles = 20'000'000;
      reg.add(std::move(s));
    }
  }
}

}  // namespace

void register_ablations(ScenarioRegistry& reg) {
  register_ablation_burst(reg);
  register_ablation_gf(reg);
  register_ablation_rob(reg);
  register_ablation_store(reg);
  register_ablation_stride(reg);
}

}  // namespace builtin
}  // namespace tcdm::scenario
