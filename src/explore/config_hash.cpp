#include "src/explore/config_hash.hpp"

#include <cstdio>

#include "src/scenario/scenario.hpp"

namespace tcdm::explore {

std::uint64_t fnv1a64(std::string_view s, std::uint64_t basis) {
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  std::uint64_t h = basis;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= kPrime;
  }
  return h;
}

namespace {

/// splitmix64 finalizer: decorrelates the two FNV lanes so the halves of
/// the digest do not share avalanche weaknesses.
std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

}  // namespace

Json canonical_point_json(const scenario::FileScenario& point) {
  // ClusterConfig::to_json serializes the fully resolved struct — presets
  // and burst sugar were already expanded by from_json — and Json objects
  // keep their keys sorted, so the dump below is the canonical spelling.
  Json doc;
  doc.set("config", point.config.to_json());
  doc.set("kernel", point.kernel.to_json());
  // Host thread counts never reach the key. The literal keeps the spelling
  // of keys written while options still carried a sim_threads field, so
  // memo stores recorded then still hit.
  Json opts = scenario::runner_options_to_json(point.opts);
  opts.set("sim_threads", 0);
  doc.set("options", std::move(opts));
  doc.set("expect_verified", point.expect_verified);
  // Only when present: cluster-only points keep their pre-system-layer
  // canonical spelling, so existing explore caches stay valid.
  if (point.system) doc.set("system", point.system->to_json());
  return doc;
}

std::string digest128(std::string_view text) {
  // Two independent offset bases give two 64-bit lanes; 128 bits makes
  // accidental collisions implausible at any realistic DSE scale (~1e-20
  // at 1e9 points), without pulling in a cryptographic hash.
  const std::uint64_t h1 = mix(fnv1a64(text, 14695981039346656037ULL));
  const std::uint64_t h2 = mix(fnv1a64(text, 0x9e3779b97f4a7c15ULL));
  char buf[33];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(h1),
                static_cast<unsigned long long>(h2));
  return buf;
}

std::string canonical_key(const scenario::FileScenario& point) {
  return digest128(canonical_point_json(point).dump());
}

}  // namespace tcdm::explore
