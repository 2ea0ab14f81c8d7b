#include "src/system/system_config.hpp"

#include <stdexcept>

#include "src/common/bitutil.hpp"
#include "src/common/sim_time.hpp"

namespace tcdm {

namespace {

[[noreturn]] void cfg_error(const std::string& path, const std::string& what) {
  throw std::invalid_argument(path + ": " + what);
}

unsigned json_uint(const Json& v, const std::string& path) {
  if (!v.is_uint()) cfg_error(path, "expected a non-negative integer");
  return static_cast<unsigned>(v.as_double());
}

}  // namespace

void SystemConfig::validate() const {
  if (num_clusters == 0 || num_clusters > 64 || !is_pow2(num_clusters)) {
    throw std::invalid_argument(name +
                                ": num_clusters must be a power of two in [1, 64]");
  }
  if (barrier_radix < 2) {
    throw std::invalid_argument(name + ": barrier_radix must be >= 2");
  }
  if (barrier_link_latency == 0) {
    throw std::invalid_argument(name + ": barrier_link_latency must be >= 1");
  }
  if (noc_hop_latency == 0 || noc_link_words == 0) {
    throw std::invalid_argument(name + ": NoC hop latency and link width must be >= 1");
  }
  if (l2_latency == 0 || l2_bandwidth_words == 0) {
    throw std::invalid_argument(name + ": L2 latency and bandwidth must be >= 1");
  }
  if (dma_burst_len == 0) {
    throw std::invalid_argument(name + ": dma_burst_len must be >= 1");
  }
  if (num_clusters == 1) return;  // no DMA phase, no global barrier
  const auto within_window = [this](Cycle latency, const std::string& what) {
    if (latency >= kDefaultWatchdogWindow) {
      throw std::invalid_argument(name + ": " + what + " of " + std::to_string(latency) +
                                  " cycles reaches the " +
                                  std::to_string(kDefaultWatchdogWindow) +
                                  "-cycle watchdog window");
    }
  };
  if (dma_words != 0) {
    within_window(burst_header_latency(),
                  "DMA header latency (2 * noc_hops * noc_hop_latency + l2_latency)");
  }
  within_window(
      make_barrier(barrier_kind, num_clusters, barrier_link_latency, barrier_radix)
          ->release_delay(),
      "global barrier release delay (barrier_link_latency)");
}

Json SystemConfig::to_json() const {
  Json j;
  j.set("name", name);
  j.set("num_clusters", num_clusters);
  // Same convention as ClusterConfig: default-valued barrier fields are
  // omitted so canonical spellings stay minimal.
  if (barrier_kind != BarrierKind::kCentral) {
    j.set("barrier_kind", std::string(barrier_kind_name(barrier_kind)));
  }
  if (barrier_radix != 2) j.set("barrier_radix", barrier_radix);
  j.set("barrier_link_latency", barrier_link_latency);
  j.set("noc_hop_latency", noc_hop_latency);
  j.set("noc_link_words", noc_link_words);
  j.set("l2_latency", l2_latency);
  j.set("l2_bandwidth_words", l2_bandwidth_words);
  j.set("dma_burst_len", dma_burst_len);
  j.set("dma_words", dma_words);
  return j;
}

SystemConfig SystemConfig::from_json(const Json& j, const std::string& path) {
  if (!j.is_object()) cfg_error(path, "expected an object");
  SystemConfig cfg;
  for (const auto& [key, val] : j.as_object()) {
    const std::string p = path + "/" + key;
    if (key == "name") {
      if (!val.is_string()) cfg_error(p, "expected a string");
      cfg.name = val.as_string();
    } else if (key == "num_clusters") {
      cfg.num_clusters = json_uint(val, p);
    } else if (key == "barrier_kind") {
      if (!val.is_string()) cfg_error(p, "expected a string");
      try {
        cfg.barrier_kind = barrier_kind_from_name(val.as_string());
      } catch (const std::invalid_argument& e) {
        cfg_error(p, e.what());
      }
    } else if (key == "barrier_radix") {
      cfg.barrier_radix = json_uint(val, p);
    } else if (key == "barrier_link_latency") {
      cfg.barrier_link_latency = json_uint(val, p);
    } else if (key == "noc_hop_latency") {
      cfg.noc_hop_latency = json_uint(val, p);
    } else if (key == "noc_link_words") {
      cfg.noc_link_words = json_uint(val, p);
    } else if (key == "l2_latency") {
      cfg.l2_latency = json_uint(val, p);
    } else if (key == "l2_bandwidth_words") {
      cfg.l2_bandwidth_words = json_uint(val, p);
    } else if (key == "dma_burst_len") {
      cfg.dma_burst_len = json_uint(val, p);
    } else if (key == "dma_words") {
      cfg.dma_words = json_uint(val, p);
    } else {
      cfg_error(p, "unknown key");
    }
  }
  try {
    cfg.validate();
  } catch (const std::invalid_argument& e) {
    cfg_error(path, std::string("invalid configuration: ") + e.what());
  }
  return cfg;
}

}  // namespace tcdm
