#include "src/memory/spm_bank.hpp"

#include <cassert>

namespace tcdm {

SpmBank::SpmBank(unsigned words) : data_(words, 0), in_(kInDepth), out_(kOutDepth) {}

void SpmBank::attach_stats(StatsRegistry& reg, const std::string& prefix) {
  static constexpr std::string_view kStats[] = {".reads", ".writes", ".conflict_cycles",
                                                ".stall_cycles"};
  reg.block(prefix, kStats, {&reads_, &writes_, &conflict_cycles_, &stall_cycles_});
}

}  // namespace tcdm
