#include "src/kernels/trace_replay.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/common/rng.hpp"

namespace tcdm {

std::vector<TraceEntry> synthetic_trace(const ClusterConfig& cluster_cfg,
                                        const TraceConfig& cfg) {
  const AddressMap map = cluster_cfg.address_map();
  const unsigned nharts = cluster_cfg.num_cores();
  const unsigned num_tiles = map.num_tiles();
  const unsigned len = cfg.access_len == 0 ? cluster_cfg.vlsu_ports : cfg.access_len;
  const unsigned max_vl = cluster_cfg.vlen_bits / 32 * 8;  // LMUL m8 ceiling
  if (len == 0 || len > max_vl) {
    throw std::invalid_argument("synthetic_trace: access_len out of range");
  }
  if (cfg.hotspot_tile >= num_tiles) {
    throw std::invalid_argument("synthetic_trace: hotspot tile out of range");
  }
  const std::uint64_t total_words = map.total_bytes() / kWordBytes;
  if (total_words < len) {
    throw std::invalid_argument("synthetic_trace: access longer than TCDM");
  }
  const auto max_base_word = static_cast<std::uint32_t>(total_words - len);

  Xoshiro128 rng(cfg.seed);
  // Random word base within one tile: row r, bank b of that tile.
  const auto base_in_tile = [&](TileId tile) {
    const unsigned row = rng.next_below(map.bank_words());
    const unsigned bank = rng.next_below(map.banks_per_tile());
    const std::uint64_t word = static_cast<std::uint64_t>(row) * map.num_banks() +
                               tile * map.banks_per_tile() + bank;
    return static_cast<std::uint32_t>(std::min<std::uint64_t>(word, max_base_word));
  };

  std::vector<TraceEntry> trace;
  trace.reserve(static_cast<std::size_t>(nharts) * cfg.entries_per_hart);
  for (CoreId h = 0; h < nharts; ++h) {
    for (unsigned i = 0; i < cfg.entries_per_hart; ++i) {
      TraceEntry e;
      e.hart = h;
      e.len = len;
      e.write = rng.next_f32(0.0f, 1.0f) < cfg.write_fraction;
      std::uint32_t base_word = 0;
      switch (cfg.pattern) {
        case TracePattern::kUniform:
          base_word = rng.next_below(max_base_word + 1);
          break;
        case TracePattern::kHotspot:
          base_word = rng.next_f32(0.0f, 1.0f) < cfg.hotspot_fraction
                          ? base_in_tile(cfg.hotspot_tile)
                          : rng.next_below(max_base_word + 1);
          break;
        case TracePattern::kLocal:
          base_word = base_in_tile(static_cast<TileId>(h % num_tiles));
          break;
        case TracePattern::kNeighbor:
          base_word = base_in_tile(static_cast<TileId>((h + 1) % num_tiles));
          break;
      }
      e.addr = static_cast<Addr>(base_word) * kWordBytes;
      trace.push_back(e);
    }
  }
  return trace;
}

TraceReplayKernel::TraceReplayKernel(std::vector<TraceEntry> trace)
    : trace_(std::move(trace)) {}

void TraceReplayKernel::setup(Cluster& cluster) {
  const ClusterConfig& cfg = cluster.config();
  const unsigned nharts = cfg.num_cores();
  const unsigned max_vl = cfg.vlen_bits / 32 * 8;  // LMUL m8
  const AddressMap& map = cluster.map();

  // Validate up front: a malformed trace should fail at setup, not deep in
  // the run.
  for (const TraceEntry& e : trace_) {
    if (e.hart >= nharts) {
      throw std::invalid_argument("trace: hart id out of range");
    }
    if (e.len == 0 || e.len > max_vl) {
      throw std::invalid_argument("trace: access length out of range");
    }
    if (e.addr % kWordBytes != 0 ||
        e.addr + static_cast<std::uint64_t>(e.len) * kWordBytes > map.total_bytes()) {
      throw std::invalid_argument("trace: access outside TCDM");
    }
  }

  std::vector<Program> programs;
  programs.reserve(nharts);
  for (CoreId h = 0; h < nharts; ++h) {
    ProgramBuilder pb("trace_h" + std::to_string(h));
    // v0 holds the store payload (hart id splat across the full register
    // group); rotating load destinations let independent loads overlap in
    // the ROBs.
    pb.li(t0, static_cast<std::int32_t>(h));
    pb.fmv_w_x(ft0, t0);
    pb.li(t1, static_cast<std::int32_t>(max_vl));
    pb.vsetvli(t2, t1, Lmul::m8);
    pb.vfmv_v_f(VReg{0}, ft0);
    unsigned current_vl = max_vl;
    unsigned rot = 0;
    for (const TraceEntry& e : trace_) {
      if (e.hart != h) continue;
      if (e.len != current_vl) {
        pb.li(t1, static_cast<std::int32_t>(e.len));
        pb.vsetvli(t2, t1, Lmul::m8);
        current_vl = e.len;
      }
      pb.li(t3, static_cast<std::int32_t>(e.addr));
      if (e.write) {
        pb.vse32(VReg{0}, t3);
      } else {
        pb.vle32(VReg{static_cast<std::uint8_t>(8 + 8 * rot)}, t3);  // v8/v16/v24
        rot = (rot + 1) % 3;
      }
    }
    pb.barrier();
    pb.halt();
    programs.push_back(pb.build());
  }
  cluster.load_programs(std::move(programs));
}

double TraceReplayKernel::traffic_bytes(const Cluster& cluster) const {
  return kWordBytes * (cluster.stats().sum_suffix(".vlsu.words_loaded") +
                       cluster.stats().sum_suffix(".vlsu.words_stored"));
}

}  // namespace tcdm
