// Pass bookkeeping shared by the untraced and the traced pass.
#pragma once

#include <string>

#include "benchmark/src/bench.hpp"

namespace tcdm::bench {

/// build_doc + dump of one suite; on failure returns "" and records the
/// first error into `error`.
[[nodiscard]] std::string emit_suite(const Workload& w, const std::string& suite,
                                     const scenario::ResultSet& set, std::string& error);

/// Fill digest, fingerprint, attempted/failed and core_cycles from the
/// pass's result sets and documents (untimed).
void tally(const Workload& w, PassResult& pass);

}  // namespace tcdm::bench
