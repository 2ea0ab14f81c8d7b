#include "src/interconnect/topology.hpp"

#include <cassert>
#include <sstream>
#include <stdexcept>

namespace tcdm {

Topology::Topology(std::vector<unsigned> level_sizes, std::vector<LevelLatency> latency)
    : level_sizes_(std::move(level_sizes)), level_latency_(std::move(latency)) {
  if (level_sizes_.empty()) throw std::invalid_argument("topology: no levels");
  if (level_latency_.size() != level_sizes_.size()) {
    throw std::invalid_argument("topology: latency list must match level count");
  }
  num_tiles_ = 1;
  for (unsigned s : level_sizes_) {
    if (s == 0) throw std::invalid_argument("topology: zero level size");
    num_tiles_ *= s;
  }

  // Class layout: class 0 = intra-lowest-node; for each level i >= 1, one
  // class per sibling node index (level_sizes_[i] - 1 usable per tile, but we
  // enumerate all sibling slots so the class of a destination only depends on
  // *which* sibling it is, giving a tile-relative, symmetric-latency id).
  //
  // class id = 1 + sum_{j=1..i-1}(level_sizes_[j] - 1) + sibling_rank, where
  // sibling_rank numbers the (level_sizes_[i] - 1) siblings other than one's
  // own node at level i, in increasing node-id order.
  num_classes_ = 1;
  class_req_lat_ = {level_latency_[0].request};
  class_rsp_lat_ = {level_latency_[0].response};
  for (unsigned lvl = 1; lvl < level_sizes_.size(); ++lvl) {
    for (unsigned sib = 0; sib + 1 < level_sizes_[lvl]; ++sib) {
      class_req_lat_.push_back(level_latency_[lvl].request);
      class_rsp_lat_.push_back(level_latency_[lvl].response);
      ++num_classes_;
    }
  }
  if (num_classes_ > kMaxClasses) throw std::invalid_argument("topology: too many classes");

  // Precompute the src x dst class table.
  class_table_.assign(static_cast<std::size_t>(num_tiles_) * num_tiles_, 0);
  for (TileId s = 0; s < num_tiles_; ++s) {
    for (TileId d = 0; d < num_tiles_; ++d) {
      if (s == d) continue;  // local accesses never enter the network
      const unsigned lvl = divergence_level(s, d);
      std::uint8_t cls = 0;
      if (lvl > 0) {
        // Node ids of s and d at level `lvl` within their common parent.
        unsigned stride = 1;
        for (unsigned j = 0; j < lvl; ++j) stride *= level_sizes_[j];
        const unsigned s_node = (s / stride) % level_sizes_[lvl];
        const unsigned d_node = (d / stride) % level_sizes_[lvl];
        const unsigned sib_rank = d_node - (d_node > s_node ? 1 : 0);
        unsigned base = 1;
        for (unsigned j = 1; j < lvl; ++j) base += level_sizes_[j] - 1;
        cls = static_cast<std::uint8_t>(base + sib_rank);
      }
      class_table_[static_cast<std::size_t>(s) * num_tiles_ + d] = cls;
    }
  }
}

unsigned Topology::divergence_level(TileId src, TileId dst) const {
  assert(src != dst);
  unsigned stride = 1;
  for (unsigned lvl = 0; lvl < level_sizes_.size(); ++lvl) {
    stride *= level_sizes_[lvl];
    if (src / stride == dst / stride) return lvl;
  }
  // Different at the top level too: the top level is the divergence point.
  return static_cast<unsigned>(level_sizes_.size()) - 1;
}

std::string Topology::class_name(std::uint8_t cls) const {
  std::ostringstream oss;
  if (cls == 0) {
    oss << "intra-L0";
  } else {
    unsigned base = 1;
    for (unsigned lvl = 1; lvl < level_sizes_.size(); ++lvl) {
      const unsigned span = level_sizes_[lvl] - 1;
      if (cls < base + span) {
        oss << "L" << lvl << "-sib" << (cls - base);
        return oss.str();
      }
      base += span;
    }
    oss << "cls" << static_cast<unsigned>(cls);
  }
  return oss.str();
}

}  // namespace tcdm
