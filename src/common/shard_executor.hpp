// ShardExecutor: fork-join execution of per-shard work between global
// synchronization points — the System layer's per-cluster concurrency
// (docs/CONCURRENCY.md, invariants S1-S3).
//
// A shard span runs `fn(shard)` once for every shard in [0, n) across the
// executor's threads and joins before returning, so the caller's serial
// phases never observe a shard mid-flight (S1, shard rendezvous soundness).
// The threading machinery is WorkerPool's — the same spin-then-park epoch
// handshake the tile-parallel stepping engine dispatches phases on — so a
// saturated System loop pays no per-cycle futex round trips and composed
// pools (shards each driving a cluster's own tile pool) park under
// oversubscription instead of spinning.
//
// An exception escaping a shard propagates as from WorkerPool: after the
// join, on the calling thread. Fault attribution by simulated time (S3) is
// the caller's; System::run_kernels catches every cluster's fault itself.
#pragma once

#include <atomic>
#include <cstdint>
#include <type_traits>

#include "src/common/worker_pool.hpp"

namespace tcdm {

class ShardExecutor {
 public:
  /// `threads` is the TOTAL shard-thread count including the calling
  /// thread, exactly like WorkerPool. Must be >= 1.
  explicit ShardExecutor(unsigned threads) : pool_(threads) {}
  ShardExecutor(const ShardExecutor&) = delete;
  ShardExecutor& operator=(const ShardExecutor&) = delete;

  [[nodiscard]] unsigned threads() const noexcept { return pool_.threads(); }

  /// True while a span is executing. Serial phases assert this is false
  /// before touching cross-shard state (S2, serial-phase ordering).
  [[nodiscard]] bool in_span() const noexcept {
    return in_span_.load(std::memory_order_relaxed);
  }

  /// Worker epochs dispatched so far; spans that take WorkerPool's inline
  /// path (n <= 1, or a single-thread executor) do not bump this.
  [[nodiscard]] std::uint64_t spans_dispatched() const noexcept {
    return pool_.epochs_dispatched();
  }

  /// Run `fn(ctx, shard)` for every shard in [0, n) and join. Not
  /// reentrant (a nested span would let serial phases interleave with
  /// shard work — an S1 violation, reported as std::logic_error).
  void run_raw(unsigned n, void (*fn)(void*, unsigned), void* ctx);

  /// Type-safe wrapper over run_raw for any callable `fn(unsigned)`.
  template <typename Fn>
  void run(unsigned n, Fn&& fn) {
    using Decayed = std::remove_reference_t<Fn>;
    run_raw(n, [](void* ctx, unsigned i) { (*static_cast<Decayed*>(ctx))(i); },
            const_cast<void*>(static_cast<const void*>(&fn)));
  }

 private:
  WorkerPool pool_;
  std::atomic<bool> in_span_{false};
};

}  // namespace tcdm
