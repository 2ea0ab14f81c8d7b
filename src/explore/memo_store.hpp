// Result memo store for design-space exploration: an append-only JSON-lines
// file keyed by the canonical config hash (config_hash.hpp). Line 1 is a
// version header; every further line is one complete simulation result
// (metrics + power + error string). Repeated design points — across waves,
// across reruns of a stopped search (the store is the only state a search
// persists), across entirely different suite files that reach the same
// corner — are answered from the store without simulating.
//
// File format (tcdm-explore-cache, version 2):
//   {"schema":"tcdm-explore-cache","schema_version":2}
//   {"key":"<32 hex>","rel":"c3/dotp","error":"","metrics":{...},"power":{...}}
//   ...
//
// Every insert is appended and flushed immediately, so a killed run loses at
// most the entry being written; a truncated final line is tolerated on load
// (it is the expected crash artifact) but any other malformed line, a bad
// header, or a version mismatch throws ExploreFileError naming the path and
// line — never a crash, never a silently wrong result.
#pragma once

#include <cstddef>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>

#include "src/analytics/power_model.hpp"
#include "src/cluster/kernel_runner.hpp"

namespace tcdm::explore {

inline constexpr const char* kCacheSchemaName = "tcdm-explore-cache";
/// Bumped whenever the canonical key spelling (config_hash.hpp) or the
/// entry fields change: an older store would otherwise never hit, or fail
/// on its first entry.
inline constexpr unsigned kCacheSchemaVersion = 2;

/// A corrupt or version-mismatched memo store file.
/// The CLI maps this to exit 2, like other unusable-input errors.
class ExploreFileError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One memoized simulation outcome — everything run_scenario produces that
/// downstream consumers (frontier, reports) need. `error` is nonempty for
/// runs that failed; failures are cached too, so a warm rerun does not
/// re-simulate known-bad points.
struct CachedResult {
  std::string rel;  // scenario name at first evaluation (diagnostic only)
  KernelMetrics metrics;
  PowerBreakdown power;
  std::string error;

  [[nodiscard]] bool ok() const { return error.empty(); }
};

class MemoStore {
 public:
  /// In-memory only: memoizes within one run, persists nothing.
  MemoStore() = default;

  /// Backed by `path`: loads every existing entry (creating the file with
  /// its header if absent) and appends each insert. Throws ExploreFileError
  /// on corrupt or version-mismatched content, std::runtime_error on IO
  /// failures (unopenable path).
  explicit MemoStore(const std::string& path);

  /// nullptr on miss. The pointer is stable until the next insert.
  [[nodiscard]] const CachedResult* lookup(const std::string& key) const;

  /// Records (and persists, when file-backed) one result. Re-inserting an
  /// existing key overwrites in memory and appends a superseding line —
  /// on reload the last line for a key wins.
  void insert(const std::string& key, CachedResult result);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;  // empty: in-memory only
  std::ofstream append_;
  std::map<std::string, CachedResult> entries_;
};

}  // namespace tcdm::explore
