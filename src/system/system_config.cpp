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
  if (noc_hop_latency == 0) {
    throw std::invalid_argument(name + ": noc_hop_latency must be >= 1");
  }
  if (l2_latency == 0) {
    throw std::invalid_argument(name + ": l2_latency must be >= 1");
  }
  if (dma_burst_len == 0) {
    throw std::invalid_argument(name + ": dma_burst_len must be >= 1");
  }
  if (num_clusters == 1 || dma_words == 0) return;  // no DMA phase
  const Cycle header = burst_header_latency();
  if (header >= kDefaultWatchdogWindow) {
    throw std::invalid_argument(
        name + ": DMA header latency (2 * noc_hops * noc_hop_latency + l2_latency) of " +
        std::to_string(header) + " cycles reaches the " +
        std::to_string(kDefaultWatchdogWindow) + "-cycle watchdog window");
  }
}

void SystemConfig::validate(const ClusterConfig& cluster, const std::string& path) const {
  validate();
  const unsigned tcdm_words = cluster.num_banks() * cluster.bank_words;
  if (dma_words > tcdm_words) {
    throw std::invalid_argument(
        path + "/dma_words: " + std::to_string(dma_words) +
        " exceeds the TCDM capacity of cluster config \"" + cluster.name + "\" (" +
        std::to_string(cluster.num_banks()) + " banks x " +
        std::to_string(cluster.bank_words) + " words = " + std::to_string(tcdm_words) +
        " words)");
  }
}

template <MaybeConst<SystemConfig> S, class V>
void fields(S& s, V& v) {
  v("name", s.name);
  v("num_clusters", s.num_clusters);
  v("barrier_kind", s.barrier_kind);
  v("barrier_radix", s.barrier_radix);
  v("noc_hop_latency", s.noc_hop_latency);
  v("l2_latency", s.l2_latency);
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
