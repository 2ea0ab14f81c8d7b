#include "src/cluster/cluster_config.hpp"

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "src/common/bitutil.hpp"

namespace tcdm {

CoreConfig ClusterConfig::core_config() const {
  CoreConfig cc;
  cc.snitch = snitch;
  cc.spatz.vlen_bits = vlen_bits;
  cc.spatz.lanes = vlsu_ports;
  cc.spatz.rob_depth = rob_depth;
  cc.spatz.fpu_latency = fpu_latency;
  cc.spatz.viq_depth = viq_depth;
  cc.spatz.sender.enable_bursts = burst_enabled;
  cc.spatz.sender.enable_strided_bursts = strided_bursts;
  cc.spatz.sender.enable_store_bursts = store_bursts;
  cc.spatz.sender.max_burst_len = effective_max_burst_len();
  return cc;
}

void ClusterConfig::validate() const {
  unsigned prod = 1;
  for (unsigned s : level_sizes) prod *= s;
  if (prod != num_tiles) {
    throw std::invalid_argument(name + ": level sizes product != num_tiles");
  }
  if (level_latency.size() != level_sizes.size()) {
    throw std::invalid_argument(name + ": level latency list size mismatch");
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
  if (net.req_grouping_factor < 1 || net.req_grouping_factor > kMaxGroupingFactor) {
    throw std::invalid_argument(name + ": request grouping factor out of range");
  }
  if (net.req_grouping_factor > 1 && !store_bursts) {
    throw std::invalid_argument(
        name + ": a widened request channel is only used by store bursts");
  }
  if (!is_pow2(num_tiles) || !is_pow2(banks_per_tile)) {
    throw std::invalid_argument(name + ": tile/bank counts must be powers of two");
  }
  if (barrier_radix < 2) {
    throw std::invalid_argument(name + ": barrier_radix must be >= 2");
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
  c.net.grouping_factor = gf;
  c.bm.grouping_factor = gf;
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

namespace {

[[noreturn]] void cfg_error(const std::string& path, const std::string& what) {
  throw std::invalid_argument(path + ": " + what);
}

unsigned json_uint(const Json& v, const std::string& path) {
  if (!v.is_uint()) cfg_error(path, "expected a non-negative integer");
  return static_cast<unsigned>(v.as_double());
}

double json_num(const Json& v, const std::string& path) {
  if (!v.is_number()) cfg_error(path, "expected a number");
  return v.as_double();
}

bool json_flag(const Json& v, const std::string& path) {
  if (!v.is_bool()) cfg_error(path, "expected true or false");
  return v.as_bool();
}

const std::string& json_str(const Json& v, const std::string& path) {
  if (!v.is_string()) cfg_error(path, "expected a string");
  return v.as_string();
}

const Json::Object& json_obj(const Json& v, const std::string& path) {
  if (!v.is_object()) cfg_error(path, "expected an object");
  return v.as_object();
}

Json latency_to_json(const LevelLatency& l) {
  Json j;
  j.set("request", l.request);
  j.set("response", l.response);
  return j;
}

SnitchConfig snitch_from_json(const Json& v, const std::string& path) {
  SnitchConfig s;
  for (const auto& [key, val] : json_obj(v, path)) {
    const std::string p = path + "/" + key;
    if (key == "max_scalar_loads") {
      s.max_scalar_loads = json_uint(val, p);
    } else if (key == "mul_latency") {
      s.mul_latency = json_uint(val, p);
    } else if (key == "fpu_latency") {
      s.fpu_latency = json_uint(val, p);
    } else if (key == "taken_branch_penalty") {
      s.taken_branch_penalty = json_uint(val, p);
    } else {
      cfg_error(p, "unknown key");
    }
  }
  return s;
}

NetworkConfig net_from_json(const Json& v, NetworkConfig n, const std::string& path) {
  for (const auto& [key, val] : json_obj(v, path)) {
    const std::string p = path + "/" + key;
    if (key == "grouping_factor") {
      n.grouping_factor = json_uint(val, p);
    } else if (key == "req_grouping_factor") {
      n.req_grouping_factor = json_uint(val, p);
    } else if (key == "master_extra_slots") {
      n.master_extra_slots = json_uint(val, p);
    } else if (key == "slave_depth") {
      n.slave_depth = json_uint(val, p);
    } else {
      cfg_error(p, "unknown key");
    }
  }
  return n;
}

BurstManagerConfig bm_from_json(const Json& v, BurstManagerConfig b,
                                const std::string& path) {
  for (const auto& [key, val] : json_obj(v, path)) {
    const std::string p = path + "/" + key;
    if (key == "grouping_factor") {
      b.grouping_factor = json_uint(val, p);
    } else if (key == "fifo_depth") {
      b.fifo_depth = json_uint(val, p);
    } else if (key == "merge_slots") {
      b.merge_slots = json_uint(val, p);
    } else if (key == "write_words_per_cycle") {
      b.write_words_per_cycle = json_uint(val, p);
    } else {
      cfg_error(p, "unknown key");
    }
  }
  return b;
}

}  // namespace

Json ClusterConfig::to_json() const {
  Json j;
  j.set("name", name);
  j.set("num_tiles", num_tiles);
  j.set("vlsu_ports", vlsu_ports);
  j.set("vlen_bits", vlen_bits);
  j.set("banks_per_tile", banks_per_tile);
  j.set("bank_words", bank_words);
  Json::Array sizes;
  for (unsigned s : level_sizes) sizes.emplace_back(s);
  j.set("level_sizes", std::move(sizes));
  Json::Array lats;
  for (const LevelLatency& l : level_latency) lats.push_back(latency_to_json(l));
  j.set("level_latency", std::move(lats));
  j.set("rob_depth", rob_depth);
  j.set("viq_depth", viq_depth);
  j.set("fpu_latency", fpu_latency);
  Json sn;
  sn.set("max_scalar_loads", snitch.max_scalar_loads);
  sn.set("mul_latency", snitch.mul_latency);
  sn.set("fpu_latency", snitch.fpu_latency);
  sn.set("taken_branch_penalty", snitch.taken_branch_penalty);
  j.set("snitch", std::move(sn));
  j.set("bank_in_depth", bank_in_depth);
  j.set("bank_out_depth", bank_out_depth);
  Json nt;
  nt.set("grouping_factor", net.grouping_factor);
  nt.set("req_grouping_factor", net.req_grouping_factor);
  nt.set("master_extra_slots", net.master_extra_slots);
  nt.set("slave_depth", net.slave_depth);
  j.set("net", std::move(nt));
  j.set("burst_enabled", burst_enabled);
  j.set("grouping_factor", grouping_factor);
  j.set("max_burst_len", max_burst_len);
  j.set("strided_bursts", strided_bursts);
  j.set("store_bursts", store_bursts);
  Json b;
  b.set("grouping_factor", bm.grouping_factor);
  b.set("fifo_depth", bm.fifo_depth);
  b.set("merge_slots", bm.merge_slots);
  b.set("write_words_per_cycle", bm.write_words_per_cycle);
  j.set("bm", std::move(b));
  j.set("barrier_release_latency", barrier_release_latency);
  // Emitted only off-default: pre-existing configs keep their byte-exact
  // serialization (ClusterCache keys, explore config hashes, baselines).
  if (barrier_kind != BarrierKind::kCentral) {
    j.set("barrier_kind", std::string(barrier_kind_name(barrier_kind)));
  }
  if (barrier_radix != 2) j.set("barrier_radix", barrier_radix);
  j.set("start_stagger_cycles", start_stagger_cycles);
  j.set("freq_ss_mhz", freq_ss_mhz);
  j.set("freq_tt_mhz", freq_tt_mhz);
  return j;
}

ClusterConfig ClusterConfig::from_json(const Json& j, const std::string& path) {
  const Json::Object& obj = json_obj(j, path);

  ClusterConfig cfg;
  if (j.contains("preset")) {
    const std::string& preset = json_str(j.at("preset"), path + "/preset");
    try {
      cfg = by_name(preset);
    } catch (const std::invalid_argument&) {
      cfg_error(path + "/preset",
                "unknown preset \"" + preset +
                    "\" (known: mp4spatz4, mp64spatz4, mp128spatz8)");
    }
  }

  // The burst sugar block reruns the with_burst transforms, so combining it
  // with the resolved burst fields would apply the extension twice — and it
  // overwrites the net/bm grouping factors, so an explicitly spelled value
  // there must be rejected rather than silently clobbered. (rob_depth stays
  // combinable on purpose: the block doubles the swept pre-burst depth,
  // exactly like the C++ with_burst call.)
  if (j.contains("burst")) {
    for (const char* direct : {"burst_enabled", "grouping_factor", "max_burst_len",
                               "strided_bursts", "store_bursts"}) {
      if (j.contains(direct)) {
        cfg_error(path + "/" + direct,
                  "cannot combine the \"burst\" block with resolved burst fields");
      }
    }
    for (const char* nested : {"net", "bm"}) {
      if (j.contains(nested) && j.at(nested).is_object() &&
          j.at(nested).contains("grouping_factor")) {
        cfg_error(path + "/" + nested + "/grouping_factor",
                  "cannot combine the \"burst\" block with an explicit "
                  "grouping factor (the block sets it from \"gf\")");
      }
    }
  }

  for (const auto& [key, val] : obj) {
    const std::string p = path + "/" + key;
    if (key == "preset" || key == "burst") {
      continue;  // handled out of band
    } else if (key == "name") {
      cfg.name = json_str(val, p);
    } else if (key == "num_tiles") {
      cfg.num_tiles = json_uint(val, p);
    } else if (key == "vlsu_ports") {
      cfg.vlsu_ports = json_uint(val, p);
    } else if (key == "vlen_bits") {
      cfg.vlen_bits = json_uint(val, p);
    } else if (key == "banks_per_tile") {
      cfg.banks_per_tile = json_uint(val, p);
    } else if (key == "bank_words") {
      cfg.bank_words = json_uint(val, p);
    } else if (key == "level_sizes") {
      if (!val.is_array()) cfg_error(p, "expected an array of level sizes");
      cfg.level_sizes.clear();
      for (std::size_t i = 0; i < val.as_array().size(); ++i) {
        cfg.level_sizes.push_back(
            json_uint(val.as_array()[i], p + "[" + std::to_string(i) + "]"));
      }
    } else if (key == "level_latency") {
      if (!val.is_array()) cfg_error(p, "expected an array of {request, response}");
      cfg.level_latency.clear();
      for (std::size_t i = 0; i < val.as_array().size(); ++i) {
        const std::string lp = p + "[" + std::to_string(i) + "]";
        LevelLatency lat;
        for (const auto& [lkey, lval] : json_obj(val.as_array()[i], lp)) {
          if (lkey == "request") {
            lat.request = json_uint(lval, lp + "/request");
          } else if (lkey == "response") {
            lat.response = json_uint(lval, lp + "/response");
          } else {
            cfg_error(lp + "/" + lkey, "unknown key");
          }
        }
        cfg.level_latency.push_back(lat);
      }
    } else if (key == "rob_depth") {
      cfg.rob_depth = json_uint(val, p);
    } else if (key == "viq_depth") {
      cfg.viq_depth = json_uint(val, p);
    } else if (key == "fpu_latency") {
      cfg.fpu_latency = json_uint(val, p);
    } else if (key == "snitch") {
      cfg.snitch = snitch_from_json(val, p);
    } else if (key == "bank_in_depth") {
      cfg.bank_in_depth = json_uint(val, p);
    } else if (key == "bank_out_depth") {
      cfg.bank_out_depth = json_uint(val, p);
    } else if (key == "net") {
      cfg.net = net_from_json(val, cfg.net, p);
    } else if (key == "burst_enabled") {
      cfg.burst_enabled = json_flag(val, p);
    } else if (key == "grouping_factor") {
      cfg.grouping_factor = json_uint(val, p);
    } else if (key == "max_burst_len") {
      cfg.max_burst_len = json_uint(val, p);
    } else if (key == "strided_bursts") {
      cfg.strided_bursts = json_flag(val, p);
    } else if (key == "store_bursts") {
      cfg.store_bursts = json_flag(val, p);
    } else if (key == "bm") {
      cfg.bm = bm_from_json(val, cfg.bm, p);
    } else if (key == "barrier_release_latency") {
      cfg.barrier_release_latency = json_uint(val, p);
    } else if (key == "barrier_kind") {
      try {
        cfg.barrier_kind = barrier_kind_from_name(json_str(val, p));
      } catch (const std::invalid_argument& e) {
        cfg_error(p, e.what());
      }
    } else if (key == "barrier_radix") {
      cfg.barrier_radix = json_uint(val, p);
    } else if (key == "start_stagger_cycles") {
      cfg.start_stagger_cycles = json_uint(val, p);
    } else if (key == "freq_ss_mhz") {
      cfg.freq_ss_mhz = json_num(val, p);
    } else if (key == "freq_tt_mhz") {
      cfg.freq_tt_mhz = json_num(val, p);
    } else {
      cfg_error(p, "unknown key");
    }
  }

  if (j.contains("burst")) {
    const std::string bp = path + "/burst";
    const Json& b = j.at("burst");
    (void)json_obj(b, bp);
    if (!b.contains("gf")) cfg_error(bp + "/gf", "required (0 keeps the baseline)");
    const unsigned gf = json_uint(b.at("gf"), bp + "/gf");
    for (const auto& [bkey, bval] : b.as_object()) {
      const std::string p = bp + "/" + bkey;
      if (bkey != "gf" && bkey != "max_burst_len" && bkey != "strided" &&
          bkey != "store_req_gf") {
        cfg_error(p, "unknown key (burst block takes gf, max_burst_len, "
                     "strided, store_req_gf)");
      }
      if (gf == 0 && bkey != "gf") {
        cfg_error(p, "a baseline burst block (gf 0) takes no further parameters");
      }
      (void)bval;
    }
    if (gf > 0) {
      cfg = cfg.with_burst(gf);
      if (b.contains("max_burst_len")) {
        cfg.max_burst_len = json_uint(b.at("max_burst_len"), bp + "/max_burst_len");
      }
      if (b.contains("strided") && json_flag(b.at("strided"), bp + "/strided")) {
        cfg = cfg.with_strided_bursts();
      }
      if (b.contains("store_req_gf")) {
        cfg = cfg.with_store_bursts(json_uint(b.at("store_req_gf"), bp + "/store_req_gf"));
      }
    }
  }

  try {
    cfg.validate();
  } catch (const std::invalid_argument& e) {
    cfg_error(path, std::string("invalid configuration: ") + e.what());
  }
  return cfg;
}

ClusterConfig ClusterConfig::with_store_bursts(unsigned req_gf) const {
  if (!burst_enabled) {
    throw std::invalid_argument(name + ": apply with_burst before with_store_bursts");
  }
  ClusterConfig c = *this;
  c.store_bursts = true;
  c.net.req_grouping_factor = req_gf;
  c.name = name + "-st" + std::to_string(req_gf);
  return c;
}

}  // namespace tcdm
