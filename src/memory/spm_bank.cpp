#include "src/memory/spm_bank.hpp"

#include <cassert>

namespace tcdm {

SpmBank::SpmBank(unsigned words, unsigned in_depth, unsigned out_depth)
    : data_(words, 0), in_(in_depth), out_(out_depth) {}

void SpmBank::attach_stats(StatsRegistry& reg, const std::string& prefix) {
  static constexpr std::string_view kStats[] = {".reads", ".writes", ".conflict_cycles",
                                                ".stall_cycles"};
  reg.block(prefix, kStats, {&reads_, &writes_, &conflict_cycles_, &stall_cycles_});
}

}  // namespace tcdm
