#include "src/common/shard_executor.hpp"

#include <stdexcept>

namespace tcdm {

void ShardExecutor::run_raw(unsigned n, void (*fn)(void*, unsigned), void* ctx) {
  if (in_span_.load(std::memory_order_relaxed)) {
    throw std::logic_error(
        "S1 violation (shard rendezvous soundness, docs/CONCURRENCY.md): "
        "ShardExecutor::run re-entered before the previous span joined");
  }
  // Cleared on every exit: parallel_for_raw joins before it rethrows.
  struct SpanEnd {
    std::atomic<bool>& in_span;
    ~SpanEnd() { in_span.store(false, std::memory_order_relaxed); }
  } span_end{in_span_};
  in_span_.store(true, std::memory_order_relaxed);
  pool_.parallel_for_raw(n, fn, ctx);
}

}  // namespace tcdm
