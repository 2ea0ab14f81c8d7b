// Trace replay: drive the cluster with an explicit per-hart sequence of
// vector memory accesses instead of a computed kernel. This is the
// synthetic-traffic methodology of interconnect studies: the access pattern
// is the independent variable, so bandwidth effects (paper Fig. 1's
// serialization, hotspot contention, locality) can be isolated from
// compute and synchronization behaviour.
//
// Traces are plain data: build them programmatically or generate them with
// `synthetic_trace`.
#pragma once

#include <string>
#include <vector>

#include "src/kernels/kernel.hpp"

namespace tcdm {

/// One vector access: `len` consecutive words starting at `addr`
/// (word-aligned), issued by `hart`. Loads are burst-eligible; stores
/// follow the configured store path.
struct TraceEntry {
  CoreId hart = 0;
  bool write = false;
  Addr addr = 0;
  unsigned len = 1;
};

/// Synthetic trace patterns (one access stream per hart).
enum class TracePattern {
  kUniform,     // bases uniform over all of TCDM
  kHotspot,     // a fraction of accesses concentrate on one tile
  kLocal,       // every hart stays in its own tile
  kNeighbor,    // every hart streams from the next tile (ring)
};

/// Upper bound on TraceConfig::entries_per_hart accepted from scenario
/// files. synthetic_trace reserves harts x entries up front and the replay
/// program grows with it, so an unchecked value is an allocation of
/// unbounded size. The builtin trace suites use 64.
inline constexpr unsigned kMaxTraceEntriesPerHart = 4096;

struct TraceConfig {
  TracePattern pattern = TracePattern::kUniform;
  unsigned entries_per_hart = 64;  // at most kMaxTraceEntriesPerHart in files
  unsigned access_len = 0;        // words per access; 0 -> VLSU port count
  double hotspot_fraction = 0.8;  // kHotspot: share of accesses to the hot tile
  TileId hotspot_tile = 0;
  double write_fraction = 0.0;    // fraction of accesses that are stores
  std::uint64_t seed = 17;
};

/// Generate a synthetic trace for `cfg` harts/addresses of `cluster_cfg`.
[[nodiscard]] std::vector<TraceEntry> synthetic_trace(const ClusterConfig& cluster_cfg,
                                                      const TraceConfig& cfg);

/// Kernel that replays a trace. Each hart executes its own accesses in
/// trace order (loads may overlap through the ROBs, as a real VLSU would);
/// a final barrier closes the run.
class TraceReplayKernel final : public Kernel {
 public:
  explicit TraceReplayKernel(std::vector<TraceEntry> trace);

  [[nodiscard]] std::string name() const override { return "trace_replay"; }
  [[nodiscard]] std::string size_desc() const override {
    return std::to_string(trace_.size()) + "acc";
  }
  void setup(Cluster& cluster) override;
  [[nodiscard]] bool verify(const Cluster&) const override { return true; }
  /// Only the replayed vector traffic counts toward bandwidth.
  [[nodiscard]] double traffic_bytes(const Cluster& cluster) const override;

 private:
  std::vector<TraceEntry> trace_;
};

}  // namespace tcdm
