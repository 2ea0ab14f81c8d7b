// System configuration: the scale-out parameters layered above one
// ClusterConfig — how many clusters, the global barrier that synchronizes
// them, and the modeled NoC/L2 the inter-cluster DMA phase crosses. The
// per-cluster architecture stays a plain ClusterConfig; a System is always
// N identical clusters (MemPool's homogeneous group recipe).
#pragma once

#include <string>

#include "src/cluster/barrier.hpp"
#include "src/cluster/cluster_config.hpp"
#include "src/common/json.hpp"

namespace tcdm {

/// BarrierKind fields serialize by name (src/common/json_fields.hpp).
inline const char* enum_name(BarrierKind kind) noexcept { return barrier_kind_name(kind); }
inline void enum_from_name(const std::string& name, BarrierKind& out) {
  out = barrier_kind_from_name(name);
}

/// Latency unit of the global barrier: the central kind's release latency,
/// the per-link latency of the tree/butterfly kinds.
inline constexpr unsigned kBarrierLinkLatency = 8;
/// Payload words per cycle one cluster's NoC link can stream.
inline constexpr unsigned kNocLinkWords = 4;
/// Global L2 words/cycle budget shared by all concurrently streaming
/// clusters (per-cycle grants rotate with the cycle number).
inline constexpr unsigned kL2BandwidthWords = 32;

struct SystemConfig {
  std::string name = "system";

  /// Cluster count (power of two, 1..64). 1 degenerates to the plain
  /// single-cluster simulation: no NoC, no DMA phase, no global barrier.
  unsigned num_clusters = 2;

  // ---- global barrier (inter-cluster synchronization) ----
  BarrierKind barrier_kind = BarrierKind::kCentral;
  unsigned barrier_radix = 2;        // tree kind only (>= 2)

  // ---- NoC / L2 model ----
  /// Cycles per NoC hop; a DMA burst header pays a round trip through the
  /// radix tree to the L2 (2 * hops * this) before data flows.
  unsigned noc_hop_latency = 4;
  /// L2 access latency added to every DMA burst header.
  unsigned l2_latency = 16;

  // ---- inter-cluster DMA phase ----
  /// Words per DMA burst (each burst pays one header).
  unsigned dma_burst_len = 16;
  /// Words each cluster gathers from its ring neighbor's TCDM after the
  /// kernel phase; 0 disables the DMA phase (pure kernel + global sync).
  unsigned dma_words = 0;

  /// NoC depth of the radix tree between a cluster and the L2.
  [[nodiscard]] unsigned noc_hops() const noexcept {
    unsigned hops = 1;
    unsigned reach = 2;
    while (reach < num_clusters) {
      reach *= 2;
      ++hops;
    }
    return hops;
  }
  /// Cycles between issuing a DMA burst and its first payload word: one
  /// request round trip through the NoC plus the L2 access.
  /// Computed in 64 bits: scenario files accept any `unsigned` latency.
  [[nodiscard]] Cycle burst_header_latency() const noexcept {
    return 2 * static_cast<Cycle>(noc_hops()) * noc_hop_latency + l2_latency;
  }

  /// The one-cluster System a plain cluster scenario runs as, named after
  /// the cluster config so power breakdowns keep the cluster's name.
  [[nodiscard]] static SystemConfig single(const ClusterConfig& cluster) {
    SystemConfig sys;
    sys.name = cluster.name;
    sys.num_clusters = 1;
    return sys;
  }

  /// Throws std::invalid_argument when parameters are inconsistent, or when
  /// the DMA header latency (with the DMA phase on) reaches
  /// kDefaultWatchdogWindow: nothing moves while a header is pending, so the
  /// system watchdog would fire before it ends. (The global barrier's
  /// release takes at most 2 * 6 * kBarrierLinkLatency = 96 cycles.)
  void validate() const;
  /// validate(), and the DMA exchange fits the TCDM of one `cluster`. The
  /// capacity error names `path` + "/dma_words" and the cluster config.
  void validate(const ClusterConfig& cluster, const std::string& path) const;

  /// Full serialization through the field list in system_config.cpp;
  /// from_json(to_json()) is the identity for any valid config.
  [[nodiscard]] Json to_json() const;

  /// Strict deserialization (ReadPolicy::kUserInput): unknown keys, wrong
  /// types and inconsistent values throw std::invalid_argument naming the
  /// `/`-joined path (rooted at `path`). The returned config has been
  /// validate()d.
  static SystemConfig from_json(const Json& j, const std::string& path = "system");
};

}  // namespace tcdm
