// Global simulated clock plus a deadlock watchdog.
//
// The cluster advances one cycle at a time; every component that makes
// forward progress (accepts a request, retires a response, completes an
// instruction) notifies the watchdog. If no progress happens for a
// configurable window while cores are still running, the simulation aborts
// with a diagnostic instead of spinning forever — essential when testing
// arbitration/backpressure corner cases.
#pragma once

#include <stdexcept>
#include <string>

#include "src/common/types.hpp"

namespace tcdm {

class SimClock {
 public:
  [[nodiscard]] Cycle now() const noexcept { return now_; }
  void advance() noexcept { ++now_; }
  /// Event-driven stepping: jump over a span of provably-quiet cycles.
  void advance_by(Cycle cycles) noexcept { now_ += cycles; }
  void reset() noexcept { now_ = 0; }

 private:
  Cycle now_ = 0;
};

/// Thrown when the watchdog detects a hang (or a program runs past its
/// cycle budget). Tests assert on this for deadlock-freedom properties.
class DeadlockError : public std::runtime_error {
 public:
  explicit DeadlockError(const std::string& what) : std::runtime_error(what) {}
};

/// No-progress window every Cluster and System starts with (and that
/// RunnerOptions passes by default).
inline constexpr Cycle kDefaultWatchdogWindow = 100'000;

class Watchdog {
 public:
  explicit Watchdog(Cycle window = kDefaultWatchdogWindow) : window_(window) {}

  void note_progress(Cycle now) noexcept { last_progress_ = now; }

  /// Call once per cycle; throws DeadlockError if the progress window expired.
  void check(Cycle now) const;

  /// First cycle at which check() would throw if no further progress is
  /// noted. Event-driven stepping must never jump past this cycle so the
  /// deadlock diagnostic fires at the exact same cycle as the reference
  /// cycle-by-cycle loop.
  [[nodiscard]] Cycle deadline() const noexcept {
    const Cycle headroom = kNoCycle - last_progress_;
    if (window_ >= headroom) return kNoCycle;  // saturate, no overflow
    return last_progress_ + window_ + 1;
  }

  [[nodiscard]] Cycle window() const noexcept { return window_; }
  void set_window(Cycle window) noexcept { window_ = window; }

 private:
  Cycle window_;
  Cycle last_progress_ = 0;
};

/// Thrown by the cross-check stepping mode (SteppingMode::kCrossCheck) when a
/// component's earliest_wakeup() violates the event-driven contract of
/// docs/ARCHITECTURE.md: EV1 (quiet-span soundness — stepping a claimed-quiet
/// cycle changed simulation state) or EV2 (declared-rate exactness — a stats
/// counter moved differently than its declared per-cycle rate).
class WakeupContractError : public std::logic_error {
 public:
  explicit WakeupContractError(const std::string& what) : std::logic_error(what) {}
};

}  // namespace tcdm
