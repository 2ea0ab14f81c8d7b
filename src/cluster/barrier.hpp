// Hardware barriers, as used by MemPool's fork-join runtime. Cores (or, at
// the system layer, whole clusters) arrive once their memory traffic has
// drained; when the last member arrives the release is broadcast after a
// kind-specific latency, and the global generation counter advances.
// Members wait for the generation they targeted.
//
// The kinds differ only in that latency — the modeled delay between the
// last arrival and the release broadcast — which barrier_release_delay()
// computes once, at construction:
//
//   central    flat broadcast over the interconnect: delay = the given
//              latency (a cluster's barrier: the topology's worst-case
//              round-trip), regardless of member count.
//   tree       radix-r reduction tree + broadcast back down (Bertuletti et
//              al.): delay = 2 * ceil(log_r(n)) * link latency.
//   butterfly  ceil(log2(n)) pairwise dissemination stages, no separate
//              broadcast: delay = ceil(log2(n)) * link latency.
//
// Members arrive during the core phase; generation() only changes in
// cycle(), which runs after it, so members read a stable value all phase.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "src/common/types.hpp"

namespace tcdm {

/// Thrown when a member violates the barrier protocol — today, arriving a
/// second time before the release (the Snitch enforces arrive-once per
/// generation, so this indicates a harness or runtime bug). The message
/// names the offending member in the same `hart=N` attribution style as
/// the VLSU/Snitch memory faults.
class BarrierContractError : public std::logic_error {
 public:
  explicit BarrierContractError(const std::string& what) : std::logic_error(what) {}
};

enum class BarrierKind : std::uint8_t { kCentral, kTree, kButterfly };

/// Canonical spellings: "central", "tree", "butterfly".
[[nodiscard]] const char* barrier_kind_name(BarrierKind kind) noexcept;
/// Throws std::invalid_argument naming the known kinds.
[[nodiscard]] BarrierKind barrier_kind_from_name(const std::string& name);

/// Modeled latency between the last of `num_cores` arrivals and the release
/// broadcast. `latency` is the central kind's release latency and the
/// per-link latency of the tree and butterfly kinds; `radix` only applies
/// to the tree, which throws std::invalid_argument for a radix below 2.
/// 64-bit, so a product of large per-link latencies cannot wrap.
[[nodiscard]] Cycle barrier_release_delay(BarrierKind kind, unsigned num_cores,
                                          unsigned latency, unsigned radix = 2);

class Barrier {
 public:
  Barrier(BarrierKind kind, unsigned num_cores, Cycle release_delay)
      : kind_(kind), num_cores_(num_cores), release_delay_(release_delay) {}
  Barrier(const Barrier&) = delete;
  Barrier& operator=(const Barrier&) = delete;

  /// A member arrives (at most once per generation). `hart` is the member's
  /// index — a hart id inside a cluster, a cluster id at the system layer —
  /// and is only consulted on a protocol violation, where it names the
  /// over-arriving member in the thrown BarrierContractError.
  void arrive(unsigned hart, Cycle now) {
    const unsigned count = ++arrived_;
    if (count > num_cores_) {
      throw BarrierContractError(
          std::string(barrier_kind_name(kind_)) +
          " barrier over-arrival: hart=" + std::to_string(hart) +
          " arrived with all " + std::to_string(num_cores_) +
          " members already present in generation " + std::to_string(generation_) +
          " (arrive-once per generation violated)");
    }
    if (count == num_cores_) {
      release_at_ = now + release_delay_;
      release_pending_ = true;
    }
  }

  /// Advance the barrier state; call once per cycle (serial phase).
  void cycle(Cycle now) {
    if (release_pending_ && now >= release_at_) {
      release_pending_ = false;
      arrived_ = 0;
      ++generation_;
    }
  }

  [[nodiscard]] BarrierKind kind() const noexcept { return kind_; }
  [[nodiscard]] unsigned generation() const noexcept { return generation_; }
  [[nodiscard]] unsigned arrived() const noexcept { return arrived_; }
  [[nodiscard]] unsigned num_cores() const noexcept { return num_cores_; }

  /// Event-driven stepping: a pending release is the barrier's only timed
  /// event; release_at() is its exact cycle (docs/ARCHITECTURE.md, EV1).
  [[nodiscard]] bool release_pending() const noexcept { return release_pending_; }
  [[nodiscard]] Cycle release_at() const noexcept { return release_at_; }

  /// Back to the just-constructed state (generation 0, nobody arrived);
  /// cluster reuse only (docs/ARCHITECTURE.md, P2), serial context.
  void reset() {
    arrived_ = 0;
    generation_ = 0;
    release_pending_ = false;
    release_at_ = 0;
  }

 private:
  BarrierKind kind_;
  unsigned num_cores_;
  Cycle release_delay_;
  unsigned arrived_ = 0;
  unsigned generation_ = 0;
  bool release_pending_ = false;
  Cycle release_at_ = 0;
};

}  // namespace tcdm
