#include "src/cluster/barrier.hpp"

namespace tcdm {
namespace {

// ceil(log_radix(n)) for n >= 1: the number of tree levels (or butterfly
// stages for radix 2) needed to cover n members.
unsigned ceil_log(unsigned n, unsigned radix) {
  unsigned levels = 0;
  unsigned reach = 1;
  while (reach < n) {
    reach *= radix;
    ++levels;
  }
  return levels;
}

}  // namespace

const char* barrier_kind_name(BarrierKind kind) noexcept {
  switch (kind) {
    case BarrierKind::kCentral:
      return "central";
    case BarrierKind::kTree:
      return "tree";
    case BarrierKind::kButterfly:
      return "butterfly";
  }
  return "central";
}

BarrierKind barrier_kind_from_name(const std::string& name) {
  if (name == "central") return BarrierKind::kCentral;
  if (name == "tree") return BarrierKind::kTree;
  if (name == "butterfly") return BarrierKind::kButterfly;
  throw std::invalid_argument("unknown barrier kind '" + name +
                              "' (expected central, tree, or butterfly)");
}

Cycle barrier_release_delay(BarrierKind kind, unsigned num_cores, unsigned latency,
                            unsigned radix) {
  switch (kind) {
    case BarrierKind::kCentral:
      return latency;
    case BarrierKind::kTree:
      if (radix < 2) {
        throw std::invalid_argument("tree barrier radix must be >= 2, got " +
                                    std::to_string(radix));
      }
      return 2 * static_cast<Cycle>(ceil_log(num_cores, radix)) * latency;
    case BarrierKind::kButterfly:
      return static_cast<Cycle>(ceil_log(num_cores, 2)) * latency;
  }
  return latency;
}

}  // namespace tcdm
