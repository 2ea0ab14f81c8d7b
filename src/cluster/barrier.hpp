// Hardware barriers, as used by MemPool's fork-join runtime. Cores (or, at
// the system layer, whole clusters) arrive once their memory traffic has
// drained; when the last member arrives the release is broadcast after a
// kind-specific latency, and the global generation counter advances.
// Members wait for the generation they targeted.
//
// The abstract Barrier owns all synchronization state and the (non-virtual)
// hot-path entry points; a concrete kind only supplies release_delay() —
// the modeled latency between the last arrival and the release broadcast:
//
//   CentralBarrier    flat broadcast over the interconnect: delay = the
//                     configured release latency (defaults to the
//                     topology's worst-case round-trip).
//   TreeBarrier       radix-r reduction tree + broadcast (Bertuletti et
//                     al.): delay = 2 * ceil(log_r(n)) * link latency.
//   ButterflyBarrier  log2(n) all-to-all dissemination stages, no separate
//                     broadcast: delay = ceil(log2(n)) * link latency.
//
// Members arrive during the core phase; generation() only changes in
// cycle(), which runs after it, so members read a stable value all phase.
#pragma once

#include <cstdint>
#include <memory>
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

class Barrier {
 public:
  explicit Barrier(unsigned num_cores) : num_cores_(num_cores) {}
  virtual ~Barrier() = default;
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
          std::string(barrier_kind_name(kind())) +
          " barrier over-arrival: hart=" + std::to_string(hart) +
          " arrived with all " + std::to_string(num_cores_) +
          " members already present in generation " + std::to_string(generation_) +
          " (arrive-once per generation violated)");
    }
    if (count == num_cores_) {
      release_at_ = now + release_delay();
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

  [[nodiscard]] virtual BarrierKind kind() const noexcept = 0;
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

  /// Modeled latency between the last arrival and the release broadcast.
  /// Called once per generation (never on the per-arrival hot path beyond
  /// the completing arrival), so virtual dispatch costs nothing measurable.
  /// 64-bit, so a product of large per-link latencies cannot wrap.
  [[nodiscard]] virtual Cycle release_delay() const noexcept = 0;

 private:
  unsigned num_cores_;
  unsigned arrived_ = 0;
  unsigned generation_ = 0;
  bool release_pending_ = false;
  Cycle release_at_ = 0;
};

/// The single shared barrier register of the original design: every member
/// polls one location and the release is broadcast flat, so the delay is
/// one worst-case interconnect round-trip regardless of member count.
class CentralBarrier final : public Barrier {
 public:
  CentralBarrier(unsigned num_cores, unsigned release_latency)
      : Barrier(num_cores), release_latency_(release_latency) {}

  [[nodiscard]] BarrierKind kind() const noexcept override {
    return BarrierKind::kCentral;
  }
  [[nodiscard]] unsigned release_latency() const noexcept { return release_latency_; }

 protected:
  [[nodiscard]] Cycle release_delay() const noexcept override {
    return release_latency_;
  }

 private:
  unsigned release_latency_;
};

/// Radix-r reduction tree: arrivals combine up ceil(log_r(n)) levels, then
/// the release broadcasts back down the same tree — two traversals at one
/// link latency per level.
class TreeBarrier final : public Barrier {
 public:
  TreeBarrier(unsigned num_cores, unsigned link_latency, unsigned radix = 2);

  [[nodiscard]] BarrierKind kind() const noexcept override { return BarrierKind::kTree; }
  [[nodiscard]] unsigned radix() const noexcept { return radix_; }
  [[nodiscard]] unsigned levels() const noexcept { return levels_; }

 protected:
  [[nodiscard]] Cycle release_delay() const noexcept override {
    return 2 * static_cast<Cycle>(levels_) * link_latency_;
  }

 private:
  unsigned link_latency_;
  unsigned radix_;
  unsigned levels_;
};

/// Butterfly (dissemination) barrier: ceil(log2(n)) pairwise exchange
/// stages after which every member has seen every arrival — no separate
/// broadcast pass, so half the tree's traversal count.
class ButterflyBarrier final : public Barrier {
 public:
  ButterflyBarrier(unsigned num_cores, unsigned link_latency);

  [[nodiscard]] BarrierKind kind() const noexcept override {
    return BarrierKind::kButterfly;
  }
  [[nodiscard]] unsigned stages() const noexcept { return stages_; }

 protected:
  [[nodiscard]] Cycle release_delay() const noexcept override {
    return static_cast<Cycle>(stages_) * link_latency_;
  }

 private:
  unsigned link_latency_;
  unsigned stages_;
};

/// Build a barrier of the requested kind. `latency` is the central kind's
/// release latency and the per-link latency of the tree/butterfly kinds;
/// `radix` only applies to the tree (and must be >= 2 there).
[[nodiscard]] std::unique_ptr<Barrier> make_barrier(BarrierKind kind,
                                                    unsigned num_cores,
                                                    unsigned latency,
                                                    unsigned radix = 2);

}  // namespace tcdm
