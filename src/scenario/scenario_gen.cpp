#include "src/scenario/scenario_gen.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "src/cluster/cluster_config.hpp"
#include "src/common/json_fields.hpp"
#include "src/common/rng.hpp"
#include "src/scenario/scenario_file.hpp"
#include "src/system/system_config.hpp"

namespace tcdm::scenario {

namespace {

/// Pick one element of a small candidate list.
template <typename T>
T pick(Xoshiro128& rng, const std::vector<T>& values) {
  return values[rng.next_below(static_cast<std::uint32_t>(values.size()))];
}

bool coin(Xoshiro128& rng, unsigned num, unsigned den) {
  return rng.next_below(den) < num;
}

/// One random-but-valid cluster configuration. Invariants enforced by
/// construction (the caller still runs validate() as a belt-and-braces
/// check): power-of-two tiles/banks, level sizes multiplying to the tile
/// count, banks_per_tile >= vlsu_ports, VLEN >= one word per lane, burst
/// lengths within the bank fan-out and kMaxBurstWords, GF within
/// kMaxGroupingFactor, strided/store bursts only on top of with_burst.
ClusterConfig random_config(Xoshiro128& rng, unsigned index) {
  ClusterConfig cfg;
  // Built via a local sidesteps a GCC-12 -Wrestrict false positive on
  // concatenating std::to_string temporaries into the member string.
  std::string name = "c";
  name += std::to_string(index);
  cfg.name = name;
  cfg.num_tiles = 2u << rng.next_below(4);  // 2, 4, 8 or 16 tiles
  cfg.vlsu_ports = pick(rng, std::vector<unsigned>{2, 4, 8});
  std::vector<unsigned> vlens;
  for (unsigned v : {128u, 256u, 512u}) {
    if (v >= 32 * cfg.vlsu_ports) vlens.push_back(v);
  }
  cfg.vlen_bits = pick(rng, vlens);
  cfg.banks_per_tile = cfg.vlsu_ports << rng.next_below(2);
  cfg.bank_words = 1024;

  if (coin(rng, 1, 2) || cfg.num_tiles < 4) {
    cfg.level_sizes = {1, cfg.num_tiles};
    cfg.level_latency = {{1, 1}, {1, 1}};
  } else {
    const unsigned group = pick(rng, std::vector<unsigned>{2, 4});
    const unsigned lat = 2 + rng.next_below(2);
    cfg.level_sizes = {cfg.num_tiles / group, group};
    cfg.level_latency = {{1, 1}, {lat, lat}};
  }

  cfg.rob_depth = 4u << rng.next_below(3);  // 4, 8 or 16 (doubled by bursts)
  cfg.viq_depth = pick(rng, std::vector<unsigned>{2, 4, 8});
  cfg.fpu_latency = 2 + rng.next_below(3);
  cfg.start_stagger_cycles = rng.next_below(4);

  if (coin(rng, 2, 3)) {
    const unsigned gf = pick(rng, std::vector<unsigned>{2, 4, 8});
    cfg = cfg.with_burst(gf);
    if (coin(rng, 1, 3)) {
      // An explicit burst-length cap below the default K.
      cfg.max_burst_len = std::max(1u, cfg.vlsu_ports / 2);
    }
    if (coin(rng, 1, 4)) cfg = cfg.with_strided_bursts();
    if (coin(rng, 1, 4)) {
      cfg = cfg.with_store_bursts(pick(rng, std::vector<unsigned>{1, 2, 4}));
    }
  }
  return cfg;
}

struct KernelChoice {
  Json spec;
  bool verify = true;
};

/// A random workload sized to the configuration: element counts scale with
/// the hart count and stay well inside the TCDM capacity.
KernelChoice random_kernel(Xoshiro128& rng, const ClusterConfig& cfg) {
  const unsigned base = 256 * cfg.num_cores();
  KernelChoice out;
  switch (rng.next_below(7)) {
    case 0:
      out.spec.set("kind", "dotp");
      out.spec.set("n", base << rng.next_below(2));
      break;
    case 1:
      out.spec.set("kind", "axpy");
      out.spec.set("n", base);
      out.spec.set("alpha", 0.25 + 0.5 * rng.next_below(4));
      break;
    case 2:
      out.spec.set("kind", "memcpy");
      out.spec.set("n", base / 2);
      break;
    case 3:
      out.spec.set("kind", "relu");
      out.spec.set("n", base);
      break;
    case 4:
      out.spec.set("kind", "strided_copy");
      out.spec.set("n", base / 4);
      out.spec.set("stride_words", 2u + rng.next_below(3));
      break;
    case 5:
      out.spec.set("kind", "random_probe");
      out.spec.set("iters", 32u << rng.next_below(2));
      out.spec.set("pattern",
                   pick(rng, std::vector<std::string>{"uniform", "remote", "local"}));
      out.verify = false;
      break;
    default:
      out.spec.set("kind", "local_stream");
      out.spec.set("iters", 32u << rng.next_below(2));
      out.verify = false;
      break;
  }
  if (out.spec.at("kind").as_string() != "local_stream") {  // takes no seed
    out.spec.set("seed", rng.next_below(1u << 16));
  }
  return out;
}

/// A random-but-valid system block: power-of-two cluster count, a legal
/// barrier kind (radix only drawn for the tree, which is the only kind
/// that uses it), and a DMA exchange that always fits the cluster TCDM —
/// dma_words stays far below the smallest generatable capacity (2 tiles x
/// 2 banks x 1024 words), and validate() re-checks by construction.
Json random_system(Xoshiro128& rng, const ClusterConfig& cfg, unsigned index) {
  SystemConfig sys;
  std::string name = "sys";  // split concatenation: GCC-12 -Wrestrict
  name += std::to_string(index);
  sys.name = name;
  sys.num_clusters = 2u << rng.next_below(3);  // 2, 4 or 8 clusters
  sys.barrier_kind = pick(rng, std::vector<BarrierKind>{BarrierKind::kCentral,
                                                        BarrierKind::kTree,
                                                        BarrierKind::kButterfly});
  if (sys.barrier_kind == BarrierKind::kTree) {
    sys.barrier_radix = pick(rng, std::vector<unsigned>{2, 4});
  }
  sys.dma_burst_len = 4u << rng.next_below(4);  // 4, 8, 16 or 32 words
  sys.dma_words = 64u << rng.next_below(3);     // 64, 128 or 256 words
  sys.validate(cfg, sys.name);  // generator bug, not user error, if this ever throws
  return sys.to_json();
}

}  // namespace

Json generate_suite(const GenOptions& opts) {
  Xoshiro128 rng(opts.seed);

  Json::Array scenarios;
  for (unsigned i = 0; i < opts.count; ++i) {
    const ClusterConfig cfg = random_config(rng, i);
    cfg.validate();  // generator bug, not user error, if this ever throws
    const KernelChoice kernel = random_kernel(rng, cfg);

    Json options;
    options.set("verify", kernel.verify);
    options.set("max_cycles", 10'000'000);

    std::string rel = "c";  // split concatenation: GCC-12 -Wrestrict
    rel += std::to_string(i);
    rel += '/';
    rel += kernel.spec.at("kind").as_string();

    Json sc;
    sc.set("name", std::move(rel));
    sc.set("config", cfg.to_json());
    sc.set("kernel", kernel.spec);
    sc.set("options", std::move(options));
    // A quarter of the points scale out through the system layer: small
    // cluster counts keep the fuzz sweep's wall-clock bounded while still
    // exercising every barrier kind and the DMA burst range.
    if (coin(rng, 1, 4)) sc.set("system", random_system(rng, cfg, i));
    scenarios.push_back(std::move(sc));
  }

  FieldWriter header;
  header.schema(kScenarioSchemaName, kScenarioSchemaVersion);
  Json doc = header.take();
  doc.set("suite", "gen_seed" + std::to_string(opts.seed));
  doc.set("description",
          "Randomized scenario suite (seed " + std::to_string(opts.seed) + ", " +
              std::to_string(opts.count) +
              " cases): invariant-checked power-of-two topologies with legal "
              "burst/ROB combinations, generated by `tcdm_run gen`");
  doc.set("scenarios", std::move(scenarios));

  // Self-check: the generator's output must always load cleanly, so a
  // `gen | validate` pipeline can only fail on a generator bug — and fails
  // here first, with the full loader diagnostics.
  (void)parse_suite(doc, "generate_suite(seed=" + std::to_string(opts.seed) + ")");
  return doc;
}

}  // namespace tcdm::scenario
