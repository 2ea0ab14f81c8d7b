// Canonical design-point digest: (ClusterConfig, KernelSpec, RunnerOptions,
// expect_verified) -> a stable 128-bit hex key. The digest is taken over the
// sorted-key JSON dump of the *resolved* configuration, so every spelling of
// the same point — a preset plus burst sugar, an explicit field-by-field
// object, a generated suite — hashes identically, and any change to a field
// that can affect the simulation changes the key. Host-side options that are
// proven not to affect results (the stepping mode) are excluded, so a
// cache warmed under one setting answers queries under any other.
//
// The key is what the explore memo store (memo_store.hpp) is keyed by; its
// stability across spellings is what makes "repeated points are free" true
// for data-driven sweeps that reach the same corner through different suite
// files.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "src/scenario/scenario_file.hpp"

namespace tcdm::explore {

/// 64-bit FNV-1a with a caller-chosen offset basis (the canonical key uses
/// two bases for a 128-bit digest; tests use it directly).
[[nodiscard]] std::uint64_t fnv1a64(std::string_view s, std::uint64_t basis);

/// 32 lowercase hex characters over two splitmix-finalized FNV-1a lanes —
/// the digest the per-point key is built from.
[[nodiscard]] std::string digest128(std::string_view text);

/// The canonical JSON document the key hashes — exposed for tests and for
/// debugging cache mismatches ("why did these two points not collide?").
[[nodiscard]] Json canonical_point_json(const scenario::FileScenario& point);

/// 32 lowercase hex characters. Equal for every spelling of the same design
/// point; different when any simulation-relevant field differs.
[[nodiscard]] std::string canonical_key(const scenario::FileScenario& point);

}  // namespace tcdm::explore
