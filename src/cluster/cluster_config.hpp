// Cluster configuration: the architectural parameters of a MemPool-Spatz
// instance that the paper varies (scale, hierarchy, vector core queues,
// the TCDM Burst extension), plus the three preset scales evaluated in the
// paper and the `with_burst(GF)` transform that applies the extension
// (burst-enabled Sender, GF-wide response channel, doubled ROBs — §III).
// Bank queues, network slots, burst-manager buffers and the scalar core
// stay at their component defaults (MemPool's fixed microarchitecture).
#pragma once

#include <string>
#include <vector>

#include "src/burst/burst_sender.hpp"
#include "src/common/json.hpp"
#include "src/interconnect/topology.hpp"
#include "src/memory/address_map.hpp"
#include "src/spatz/spatz.hpp"

namespace tcdm {

struct ClusterConfig {
  std::string name = "custom";

  // ---- scale ----
  unsigned num_tiles = 4;       // one Core Complex per tile (see DESIGN.md)
  unsigned vlsu_ports = 4;      // K: FPUs per Spatz == VLSU request ports
  unsigned vlen_bits = 256;     // maximum vector length
  unsigned banks_per_tile = 4;  // SPM banks per tile (>= K for full local BW)
  unsigned bank_words = 1024;   // words per bank (4 KiB)

  // ---- hierarchy (bottom-up level sizes; product == num_tiles) ----
  std::vector<unsigned> level_sizes{1, 4};
  std::vector<LevelLatency> level_latency{{1, 1}, {1, 1}};

  // ---- core microarchitecture ----
  unsigned rob_depth = 8;  // per VLSU port (doubled by with_burst)
  unsigned viq_depth = 4;
  unsigned fpu_latency = 3;

  // ---- TCDM Burst extension ----
  bool burst_enabled = false;
  unsigned grouping_factor = 1;  // GF: response-channel width multiplier
  unsigned max_burst_len = 0;    // 0 -> defaults to K
  /// Extension (paper future work): coalesce constant-stride vector loads
  /// into strided bursts. Requires burst_enabled.
  bool strided_bursts = false;
  /// Extension (design-space ablation): coalesce unit-stride vector stores
  /// into write bursts whose payload crosses the request channel at
  /// req_grouping_factor words/cycle. Requires burst_enabled.
  bool store_bursts = false;
  /// Request-channel data width in words; above 1 only with store_bursts.
  unsigned req_grouping_factor = 1;

  // ---- synchronization ----
  /// Per-hart start skew in cycles, modeling MemPool's sequential wake-up
  /// loop (core 0 pokes each core's wake-up register in turn). Decorrelates
  /// the harts' memory sweeps, as in the RTL.
  unsigned start_stagger_cycles = 2;

  // ---- physical (reporting only) ----
  double freq_ss_mhz = 770.0;  // worst-case corner (performance tables)
  double freq_tt_mhz = 910.0;  // nominal corner (power tables)

  // ---- derived helpers ----
  [[nodiscard]] unsigned num_cores() const noexcept { return num_tiles; }
  [[nodiscard]] unsigned num_fpus() const noexcept { return num_tiles * vlsu_ports; }
  [[nodiscard]] unsigned num_banks() const noexcept { return num_tiles * banks_per_tile; }
  /// Peak FLOP/cycle (every FPU retiring one FMA = 2 FLOP per cycle).
  [[nodiscard]] double peak_flops_per_cycle() const noexcept { return 2.0 * num_fpus(); }
  /// Theoretical per-VLSU peak bandwidth, eq. (1): K * 4 B/cycle.
  [[nodiscard]] double vlsu_peak_bw() const noexcept { return vlsu_ports * 4.0; }
  /// Cluster-aggregate peak bandwidth in B/cycle.
  [[nodiscard]] double cluster_peak_bw() const noexcept {
    return vlsu_peak_bw() * num_cores();
  }
  [[nodiscard]] Topology topology() const { return Topology(level_sizes, level_latency); }
  [[nodiscard]] AddressMap address_map() const {
    return AddressMap(num_banks(), banks_per_tile, bank_words);
  }
  [[nodiscard]] SpatzConfig spatz_config() const;
  [[nodiscard]] unsigned effective_max_burst_len() const noexcept {
    return max_burst_len == 0 ? vlsu_ports : max_burst_len;
  }

  /// Throws std::invalid_argument when parameters are inconsistent.
  void validate() const;

  /// Full serialization through the field list in cluster_config.cpp:
  /// every architectural field, level latencies as {request, response}
  /// pairs.
  /// from_json(to_json()) is the identity for any valid config.
  [[nodiscard]] Json to_json() const;

  /// Strict deserialization (ReadPolicy::kUserInput). The object may either
  /// spell out fields over the defaults, or start from `"preset": "<name>"`
  /// and override.
  /// The sugar block `"burst": {"gf": G, ...}` applies the same transforms
  /// as with_burst / with_strided_bursts / with_store_bursts (G == 0 leaves
  /// the baseline untouched) and is mutually exclusive with the resolved
  /// burst fields. Unknown keys, wrong types and inconsistent values all
  /// throw std::invalid_argument naming the offending `/`-joined path
  /// (rooted at `path`). The returned config has been validate()d.
  static ClusterConfig from_json(const Json& j, const std::string& path = "config");

  // ---- paper presets (baseline, no burst) ----
  static ClusterConfig mp4spatz4();    // 16-FPU cluster
  static ClusterConfig mp64spatz4();   // 256-FPU cluster
  static ClusterConfig mp128spatz8();  // 1024-FPU cluster

  /// Preset by name ("mp4spatz4", "mp64spatz4", "mp128spatz8").
  static ClusterConfig by_name(const std::string& name);

  /// Apply the TCDM Burst Access extension with the given grouping factor:
  /// enables the Burst Sender, widens the response channel to GF words and
  /// doubles the per-port ROB depth (paper §III-A).
  [[nodiscard]] ClusterConfig with_burst(unsigned gf) const;

  /// Enable the strided-burst extension (requires with_burst first).
  [[nodiscard]] ClusterConfig with_strided_bursts() const;

  /// Enable the store-burst extension with a request-channel data width of
  /// `req_gf` words (requires with_burst first). req_gf == 1 models burst
  /// stores over the unmodified narrow request channel.
  [[nodiscard]] ClusterConfig with_store_bursts(unsigned req_gf) const;
};

}  // namespace tcdm
