#include "src/system/system_config.hpp"

#include <stdexcept>

#include "src/common/bitutil.hpp"
#include "src/common/json_fields.hpp"
#include "src/common/sim_time.hpp"

namespace tcdm {

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

template <MaybeConst<SystemConfig> S, class V>
void fields(S& s, V& v) {
  v("name", s.name);
  v("num_clusters", s.num_clusters);
  // Same convention as ClusterConfig: default-valued barrier fields are
  // omitted so canonical spellings stay minimal.
  v.off_default("barrier_kind", s.barrier_kind, BarrierKind::kCentral);
  v.off_default("barrier_radix", s.barrier_radix, 2u);
  v("barrier_link_latency", s.barrier_link_latency);
  v("noc_hop_latency", s.noc_hop_latency);
  v("noc_link_words", s.noc_link_words);
  v("l2_latency", s.l2_latency);
  v("l2_bandwidth_words", s.l2_bandwidth_words);
  v("dma_burst_len", s.dma_burst_len);
  v("dma_words", s.dma_words);
}

Json SystemConfig::to_json() const { return write_fields(*this); }

SystemConfig SystemConfig::from_json(const Json& j, const std::string& path) {
  SystemConfig cfg;
  read_fields(j, path, ReadPolicy::kUserInput, cfg);
  try {
    cfg.validate();
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(path + ": invalid configuration: " + e.what());
  }
  return cfg;
}

}  // namespace tcdm
