#include "src/cluster/cluster_config.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

#include "src/common/bitutil.hpp"
#include "src/common/json_fields.hpp"

namespace tcdm {

SpatzConfig ClusterConfig::spatz_config() const {
  SpatzConfig sc;
  sc.vlen_bits = vlen_bits;
  sc.lanes = vlsu_ports;
  sc.rob_depth = rob_depth;
  sc.fpu_latency = fpu_latency;
  sc.viq_depth = viq_depth;
  sc.sender.enable_bursts = burst_enabled;
  sc.sender.enable_strided_bursts = strided_bursts;
  sc.sender.enable_store_bursts = store_bursts;
  sc.sender.max_burst_len = effective_max_burst_len();
  return sc;
}

void ClusterConfig::validate() const {
  if (level_sizes.empty() ||
      std::find(level_sizes.begin(), level_sizes.end(), 0u) != level_sizes.end()) {
    throw std::invalid_argument(name + ": level_sizes must be a non-empty list of sizes >= 1");
  }
  // In 64 bits, saturating past any unsigned: a 32-bit product can wrap
  // back onto num_tiles ([4, 1073741825] would "multiply" to 4).
  std::uint64_t prod = 1;
  for (unsigned s : level_sizes) prod = std::min(prod * s, std::uint64_t{1} << 32);
  if (prod != num_tiles) {
    throw std::invalid_argument(name + ": level_sizes do not multiply to num_tiles " +
                                std::to_string(num_tiles));
  }
  if (level_latency.size() != level_sizes.size()) {
    throw std::invalid_argument(name + ": level latency list size mismatch");
  }
  // One master port per destination class (src/interconnect/topology.hpp),
  // counted before Topology allocates per-class state.
  std::uint64_t classes = 1;
  for (std::size_t i = 1; i < level_sizes.size(); ++i) classes += level_sizes[i] - 1;
  if (classes > kMaxClasses) {
    throw std::invalid_argument(name + ": level_sizes give " + std::to_string(classes) +
                                " destination classes per tile, more than the " +
                                std::to_string(kMaxClasses) + " master ports a tile has");
  }
  if (vlsu_ports == 0 || vlsu_ports > kMaxPorts) {
    throw std::invalid_argument(name + ": vlsu_ports out of range");
  }
  if (banks_per_tile < vlsu_ports) {
    throw std::invalid_argument(
        name + ": banks_per_tile must be >= vlsu_ports for full local bandwidth");
  }
  if (vlen_bits % 32 != 0 || vlen_bits < 32) {
    throw std::invalid_argument(name + ": vlen_bits must be a multiple of 32");
  }
  if (burst_enabled) {
    if (grouping_factor < 1 || grouping_factor > kMaxGroupingFactor) {
      throw std::invalid_argument(name + ": grouping factor out of range");
    }
    if (effective_max_burst_len() > banks_per_tile) {
      throw std::invalid_argument(name + ": burst length exceeds banks per tile");
    }
    if (effective_max_burst_len() > kMaxBurstLen) {
      throw std::invalid_argument(name + ": burst length exceeds kMaxBurstLen");
    }
  } else if (grouping_factor != 1) {
    throw std::invalid_argument(name + ": GF > 1 requires burst_enabled");
  }
  if ((strided_bursts || store_bursts) && !burst_enabled) {
    throw std::invalid_argument(name +
                                ": strided/store bursts require burst_enabled");
  }
  if (req_grouping_factor < 1 || req_grouping_factor > kMaxGroupingFactor) {
    throw std::invalid_argument(name + ": request grouping factor out of range");
  }
  if (req_grouping_factor > 1 && !store_bursts) {
    throw std::invalid_argument(
        name + ": a widened request channel is only used by store bursts");
  }
  if (!is_pow2(num_tiles) || !is_pow2(banks_per_tile)) {
    throw std::invalid_argument(name + ": tile/bank counts must be powers of two");
  }
  // Addr is 32-bit: past 2^32 bytes of TCDM, AddressMap::valid can no
  // longer tell addresses apart. Compared in 64 bits without forming the
  // (possibly wrapping) product: banks x bank_words x 4 > 2^32 exactly when
  // bank_words > 2^30 / banks, rounded down.
  const std::uint64_t banks = std::uint64_t{num_tiles} * banks_per_tile;
  if (bank_words > (std::uint64_t{1} << 30) / banks) {
    throw std::invalid_argument(name + ": bank_words " + std::to_string(bank_words) +
                                " puts the " + std::to_string(banks) +
                                "-bank TCDM past the 2^32-byte address space of a 32-bit Addr");
  }
  // ROB slot ids are std::uint16_t in TcdmReq, BankRoute and PendingItem.
  if (rob_depth > 65536) {
    throw std::invalid_argument(name + ": rob_depth " + std::to_string(rob_depth) +
                                " exceeds the 65536 slots a 16-bit ROB slot id can name");
  }
}

ClusterConfig ClusterConfig::mp4spatz4() {
  ClusterConfig c;
  c.name = "mp4spatz4";
  c.num_tiles = 4;
  c.vlsu_ports = 4;
  c.vlen_bits = 256;
  c.banks_per_tile = 4;
  c.bank_words = 1024;
  // One flat level: every tile reaches its 3 peers through a dedicated
  // remote port with a 3-cycle round-trip (paper §II-A config 1).
  c.level_sizes = {1, 4};
  c.level_latency = {{1, 1}, {1, 1}};
  c.freq_ss_mhz = 770.0;
  c.freq_tt_mhz = 910.0;
  return c;
}

ClusterConfig ClusterConfig::mp64spatz4() {
  ClusterConfig c;
  c.name = "mp64spatz4";
  c.num_tiles = 64;
  c.vlsu_ports = 4;
  c.vlen_bits = 256;
  c.banks_per_tile = 4;
  c.bank_words = 1024;
  // 4 groups x 16 tiles: intra-group RT 3 cycles, inter-group RT 5 cycles
  // (paper §II-A config 2). Port count per tile: 1 + 3 = 4.
  c.level_sizes = {16, 4};
  c.level_latency = {{1, 1}, {2, 2}};
  c.freq_ss_mhz = 770.0;
  c.freq_tt_mhz = 910.0;
  return c;
}

ClusterConfig ClusterConfig::mp128spatz8() {
  ClusterConfig c;
  c.name = "mp128spatz8";
  c.num_tiles = 128;
  c.vlsu_ports = 8;
  c.vlen_bits = 512;
  c.banks_per_tile = 8;
  c.bank_words = 1024;
  // 4 groups x 4 subgroups x 8 tiles: RT 3 / 5 / 9 cycles (paper §II-A
  // config 3). Port count per tile: 1 + 3 + 3 = 7.
  c.level_sizes = {8, 4, 4};
  c.level_latency = {{1, 1}, {2, 2}, {4, 4}};
  c.freq_ss_mhz = 634.0;
  c.freq_tt_mhz = 875.0;
  return c;
}

ClusterConfig ClusterConfig::by_name(const std::string& name) {
  if (name == "mp4spatz4") return mp4spatz4();
  if (name == "mp64spatz4") return mp64spatz4();
  if (name == "mp128spatz8") return mp128spatz8();
  throw std::invalid_argument("unknown cluster preset: " + name);
}

ClusterConfig ClusterConfig::with_burst(unsigned gf) const {
  ClusterConfig c = *this;
  c.burst_enabled = true;
  c.grouping_factor = gf;
  c.rob_depth = rob_depth * 2;  // paper §III-A: ROB depth doubled
  c.name = name + "-gf" + std::to_string(gf);
  return c;
}

ClusterConfig ClusterConfig::with_strided_bursts() const {
  if (!burst_enabled) {
    throw std::invalid_argument(name + ": apply with_burst before with_strided_bursts");
  }
  ClusterConfig c = *this;
  c.strided_bursts = true;
  c.name = name + "-sb";
  return c;
}

// ------------------------------------------------------ JSON round trip ----

// The field lists (src/common/json_fields.hpp): to_json and from_json both
// run them, so each key is spelled here once.

template <MaybeConst<LevelLatency> S, class V>
void fields(S& l, V& v) {
  v("request", l.request);
  v("response", l.response);
}

template <MaybeConst<ClusterConfig> S, class V>
void fields(S& c, V& v) {
  v("name", c.name);
  v("num_tiles", c.num_tiles);
  v("vlsu_ports", c.vlsu_ports);
  v("vlen_bits", c.vlen_bits);
  v("banks_per_tile", c.banks_per_tile);
  v("bank_words", c.bank_words);
  v("level_sizes", c.level_sizes);
  v("level_latency", c.level_latency);
  v("rob_depth", c.rob_depth);
  v("viq_depth", c.viq_depth);
  v("fpu_latency", c.fpu_latency);
  v("burst_enabled", c.burst_enabled);
  v("grouping_factor", c.grouping_factor);
  v("max_burst_len", c.max_burst_len);
  v("strided_bursts", c.strided_bursts);
  v("store_bursts", c.store_bursts);
  v("req_grouping_factor", c.req_grouping_factor);
  v("start_stagger_cycles", c.start_stagger_cycles);
  v("freq_ss_mhz", c.freq_ss_mhz);
  v("freq_tt_mhz", c.freq_tt_mhz);
}

namespace {

/// The `"burst": {"gf": G, ...}` sugar block of from_json.
struct BurstSugar {
  unsigned gf = 0;
  unsigned max_burst_len = 0;
  bool strided = false;
  unsigned store_req_gf = 1;
};

template <MaybeConst<BurstSugar> S, class V>
void fields(S& b, V& v) {
  v("gf", b.gf, kRequired);
  v("max_burst_len", b.max_burst_len);
  v("strided", b.strided);
  v("store_req_gf", b.store_req_gf);
}

}  // namespace

Json ClusterConfig::to_json() const { return write_fields(*this); }

ClusterConfig ClusterConfig::from_json(const Json& j, const std::string& path) {
  FieldReader r(j, path, ReadPolicy::kUserInput);

  ClusterConfig cfg;
  std::optional<std::string> preset;
  r("preset", preset);
  if (preset) {
    try {
      cfg = by_name(*preset);
    } catch (const std::invalid_argument&) {
      r.fail(path + "/preset", "unknown preset \"" + *preset +
                                   "\" (known: mp4spatz4, mp64spatz4, mp128spatz8)");
    }
  }

  // The burst sugar block reruns the with_burst transforms, so combining it
  // with the resolved burst fields would apply the extension twice.
  // (rob_depth stays combinable on purpose: the block doubles the swept
  // pre-burst depth, exactly like the C++ with_burst call.)
  const Json* burst = nullptr;
  r("burst", burst);
  if (burst) {
    for (const char* direct : {"burst_enabled", "grouping_factor", "max_burst_len",
                               "strided_bursts", "store_bursts", "req_grouping_factor"}) {
      if (j.contains(direct)) {
        r.fail(path + "/" + direct,
               "cannot combine the \"burst\" block with resolved burst fields");
      }
    }
  }

  fields(cfg, r);
  r.finish();

  if (burst) {
    const std::string bp = path + "/burst";
    BurstSugar b;
    b.max_burst_len = cfg.max_burst_len;
    read_fields(*burst, bp, ReadPolicy::kUserInput, b);
    for (const auto& [key, val] : burst->as_object()) {
      (void)val;
      if (b.gf == 0 && key != "gf") {
        r.fail(bp + "/" + key, "a baseline burst block (gf 0) takes no further parameters");
      }
    }
    if (b.gf > 0) {
      cfg = cfg.with_burst(b.gf);
      cfg.max_burst_len = b.max_burst_len;
      if (b.strided) cfg = cfg.with_strided_bursts();
      if (burst->contains("store_req_gf")) cfg = cfg.with_store_bursts(b.store_req_gf);
    }
  }

  try {
    cfg.validate();
  } catch (const std::invalid_argument& e) {
    r.fail(path, std::string("invalid configuration: ") + e.what());
  }
  return cfg;
}

ClusterConfig ClusterConfig::with_store_bursts(unsigned req_gf) const {
  if (!burst_enabled) {
    throw std::invalid_argument(name + ": apply with_burst before with_store_bursts");
  }
  ClusterConfig c = *this;
  c.store_bursts = true;
  c.req_grouping_factor = req_gf;
  c.name = name + "-st" + std::to_string(req_gf);
  return c;
}

}  // namespace tcdm
