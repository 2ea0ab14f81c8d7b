#include "src/system/system.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <string>

namespace tcdm {

namespace {

/// FNV-1a over delivered words; order-sensitive, so duplicated, dropped or
/// reordered DMA words all change the digest.
void fnv_word(std::uint64_t& h, Word w) {
  for (unsigned b = 0; b < kWordBytes; ++b) {
    h ^= (w >> (8 * b)) & 0xffU;
    h *= 1099511628211ULL;
  }
}

/// Validated before any member is built from it: the global barrier's
/// delay needs a legal radix.
const SystemConfig& validated(const SystemConfig& sys, const ClusterConfig& cluster_cfg) {
  sys.validate(cluster_cfg, sys.name);
  return sys;
}

}  // namespace

System::System(const SystemConfig& sys, const ClusterConfig& cluster_cfg,
               const SimOptions& sim)
    : cfg_(validated(sys, cluster_cfg)),
      stepping_(sim.stepping),
      global_barrier_(cfg_.barrier_kind, cfg_.num_clusters,
                      barrier_release_delay(cfg_.barrier_kind, cfg_.num_clusters,
                                            kBarrierLinkLatency, cfg_.barrier_radix)),
      watchdog_(kDefaultWatchdogWindow) {
  clusters_.reserve(cfg_.num_clusters);
  for (unsigned c = 0; c < cfg_.num_clusters; ++c) {
    clusters_.push_back(std::make_unique<Cluster>(cluster_cfg, sim));
  }
  dma_.resize(cfg_.num_clusters);
  halt_at_.assign(cfg_.num_clusters, kNoCycle);
}

void System::run_kernels(Cycle budget_end) {
  // A fault stops a cluster's clock at the faulting cycle. Stepping every
  // cluster each cycle in index order would have surfaced the earliest
  // such cycle first, and the lowest index among ties (S3), so every
  // cluster still runs and only that fault is kept.
  std::exception_ptr fault;
  Cycle fault_at = kNoCycle;
  for (unsigned c = 0; c < num_clusters(); ++c) {
    if (halt_at_[c] != kNoCycle) continue;  // parked by an earlier run() call
    Cluster& cluster = *clusters_[c];
    try {
      if (cluster.run(budget_end - cluster.now()).all_halted) halt_at_[c] = cluster.now() - 1;
    } catch (...) {
      if (cluster.now() < fault_at) {
        fault = std::current_exception();
        fault_at = cluster.now();
      }
      continue;
    }
    check_kernel_span(c, budget_end);
  }
  if (fault) {
    now_ = fault_at;  // the system clock stops there too
    std::rethrow_exception(fault);
  }
  kernels_running_ = static_cast<unsigned>(
      std::count_if(halt_at_.begin(), halt_at_.end(), [this](Cycle h) { return h >= now_; }));
}

void System::check_kernel_span(unsigned c, Cycle budget_end) const {
  const Cycle now = clusters_[c]->now();
  if (halt_at_[c] == kNoCycle && now != budget_end) {
    throw std::logic_error(
        "S1 violation (kernel-phase exit, docs/CONCURRENCY.md): cluster " +
        std::to_string(c) + " left the kernel span at cycle " + std::to_string(now) +
        " without halting, faulting or reaching the budget end " +
        std::to_string(budget_end));
  }
}

void System::unpark(bool check_quiet) {
  for (unsigned c = 0; c < num_clusters(); ++c) {
    Cluster& cluster = *clusters_[c];
    if (halt_at_[c] == kNoCycle || cluster.now() >= now_) continue;
    if (cluster.next_event() != kNoCycle && check_quiet) {
      throw std::logic_error("parked cluster " + std::to_string(c) +
                             " has a pending event at cycle " +
                             std::to_string(cluster.now()) +
                             "; a halted cluster must stay quiet until the run ends");
    }
    cluster.skip_to(now_);
  }
}

void System::reset() {
  for (auto& c : clusters_) c->reset();
  global_barrier_.reset();
  std::fill(dma_.begin(), dma_.end(), DmaEngine{});
  std::fill(halt_at_.begin(), halt_at_.end(), kNoCycle);
  kernels_running_ = 0;
  dma_started_ = false;
  done_ = false;
  words_delivered_ = 0;
  now_ = 0;
  watchdog_.set_window(kDefaultWatchdogWindow);  // undo set_watchdog_window
  watchdog_.note_progress(0);
  last_progress_token_ = -1.0;
  wakeup_bias_ = 0;
}

void System::set_watchdog_window(Cycle window) {
  for (auto& c : clusters_) c->set_watchdog_window(window);
  watchdog_.set_window(window);
}

void System::start_dma(Cycle now) {
  dma_started_ = true;
  const unsigned n = num_clusters();
  for (unsigned c = 0; c < n; ++c) {
    DmaEngine& d = dma_[c];
    if (cfg_.dma_words == 0) {
      d.state = DmaEngine::State::kDone;
      global_barrier_.arrive(c, now);
      continue;
    }
    // Golden checksum of the source range, read up front: the source
    // cluster halted before the generation-0 release, so its TCDM is
    // static for the whole DMA phase and any digest mismatch at the end
    // isolates a transfer-bookkeeping bug, not a data race.
    const unsigned src = (c + 1) % n;
    for (unsigned w = 0; w < cfg_.dma_words; ++w) {
      fnv_word(d.golden, clusters_[src]->read_word(static_cast<Addr>(w) * kWordBytes));
    }
    d.state = DmaEngine::State::kHeader;
    d.header_done_at = now + cfg_.burst_header_latency();
  }
}

void System::dma_cycle(Cycle now) {
  if (!dma_started_ || done_) return;
  // One shared L2 budget per cycle; grant priority rotates with the cycle
  // number (cycle-derived arbitration, the in-cluster D3 idiom) so no
  // cluster starves and the outcome is a pure function of (now, state).
  unsigned budget = kL2BandwidthWords;
  const unsigned n = num_clusters();
  for (unsigned k = 0; k < n; ++k) {
    const unsigned c = (static_cast<unsigned>(now % n) + k) % n;
    DmaEngine& d = dma_[c];
    if (d.state == DmaEngine::State::kHeader && now >= d.header_done_at) {
      d.state = DmaEngine::State::kStream;
    }
    if (d.state != DmaEngine::State::kStream || budget == 0) continue;
    const unsigned src = (c + 1) % n;
    const unsigned in_burst = cfg_.dma_burst_len - (d.words_done % cfg_.dma_burst_len);
    unsigned grant = std::min(std::min(budget, kNocLinkWords),
                              std::min(in_burst, cfg_.dma_words - d.words_done));
    budget -= grant;
    while (grant-- > 0) {
      fnv_word(d.checksum, clusters_[src]->read_word(
                               static_cast<Addr>(d.words_done) * kWordBytes));
      ++d.words_done;
      ++words_delivered_;
    }
    if (d.words_done == cfg_.dma_words) {
      d.state = DmaEngine::State::kDone;
      global_barrier_.arrive(c, now);
    } else if (d.words_done % cfg_.dma_burst_len == 0) {
      d.state = DmaEngine::State::kHeader;
      d.header_done_at = now + cfg_.burst_header_latency();
    }
  }
}

Cycle System::dma_next_event() const {
  if (!dma_started_ || done_) return kNoCycle;
  Cycle e = kNoCycle;
  for (const DmaEngine& d : dma_) {
    if (d.state == DmaEngine::State::kStream) return now_;  // streams every cycle
    if (d.state == DmaEngine::State::kHeader) e = std::min(e, d.header_done_at);
  }
  return e;
}

bool System::step() {
  const Cycle now = now_;
  // Phase 1 — replay the kernel-phase halts due this cycle as global
  // barrier arrivals (serial, ascending cluster index — S2; likewise the
  // phases below).
  for (unsigned c = 0; kernels_running_ > 0 && c < num_clusters(); ++c) {
    if (halt_at_[c] == now) {
      global_barrier_.arrive(c, now);
      --kernels_running_;
    }
  }

  // Phase 2 — DMA/NoC streaming under the shared L2 budget.
  dma_cycle(now);

  // Phase 3 — global barrier release, run-phase transitions, watchdog.
  global_barrier_.cycle(now);
  if (!dma_started_ && global_barrier_.generation() == 1) start_dma(now);
  if (global_barrier_.generation() >= 2) done_ = true;

  // The system watchdog guards the sync/DMA machinery once every cluster
  // halted (halted clusters stop checking their own); while any cluster
  // runs, its in-cluster watchdog owns deadlock detection.
  const double token = static_cast<double>(words_delivered_) +
                       1048576.0 * global_barrier_.generation() +
                       1024.0 * global_barrier_.arrived();
  if (kernels_running_ > 0 || token != last_progress_token_) {
    last_progress_token_ = token;
    watchdog_.note_progress(now);
  }
  if (!done_) watchdog_.check(now);

  ++now_;
  return done_;
}

RunOutcome System::run(Cycle max_cycles) {
  // N == 1: no NoC, no DMA, no global barrier — exactly the single-cluster
  // simulation, cycle- and stats-identical to Cluster::run.
  if (num_clusters() == 1) {
    RunOutcome out = clusters_.front()->run(max_cycles);
    now_ = clusters_.front()->now();
    done_ = out.all_halted;
    return out;
  }

  RunOutcome out;
  const Cycle start = now_;
  const Cycle budget_end = max_cycles > kNoCycle - start ? kNoCycle : start + max_cycles;
  try {
    run_kernels(budget_end);
    out.all_halted = advance(*this, budget_end, stepping_);
  } catch (...) {
    unpark(/*check_quiet=*/false);  // the fault, not a parked event, is the report
    throw;
  }
  unpark(/*check_quiet=*/true);
  out.cycles = now_ - start;
  return out;
}

Cycle System::next_event() const {
  Cycle event = dma_next_event();
  for (unsigned c = 0; kernels_running_ > 0 && c < num_clusters(); ++c) {
    // An arrival due at `now` itself is still to be replayed.
    if (halt_at_[c] >= now_) event = std::min(event, halt_at_[c]);
  }
  if (global_barrier_.release_pending()) {
    event = std::min(event, global_barrier_.release_at());
  }
  if (wakeup_bias_ != 0 && event != kNoCycle) event += wakeup_bias_;
  return event;
}

void System::cross_check_to(Cycle claimed_event, Cycle target) {
  while (now_ < target) {
    const Cycle at = now_;
    if (step()) {
      throw WakeupContractError(
          "EV1 violation (quiet-span soundness, docs/ARCHITECTURE.md): the System loop "
          "finished the run at cycle " + std::to_string(at) +
          " inside a span claimed quiet until cycle " + std::to_string(claimed_event));
    }
    const Cycle replanned = next_event();
    if (replanned != claimed_event) {
      throw WakeupContractError(
          "EV1 violation (quiet-span soundness, docs/ARCHITECTURE.md): stepping "
          "claimed-quiet System loop cycle " + std::to_string(at) +
          " moved the next event from " + std::to_string(claimed_event) + " to " +
          std::to_string(replanned));
    }
  }
}

double System::total_flops() const {
  double sum = 0.0;
  for (const auto& c : clusters_) sum += c->total_flops();
  return sum;
}

double System::bytes_accessed() const {
  double sum = 0.0;
  for (const auto& c : clusters_) sum += c->bytes_accessed();
  return sum;
}

double System::cycles_skipped() const {
  double sum = 0.0;
  for (const auto& c : clusters_) sum += c->cycles_skipped();
  return sum;
}

bool System::dma_checksums_ok() const {
  if (num_clusters() == 1 || !dma_started_ || cfg_.dma_words == 0) return true;
  for (const DmaEngine& d : dma_) {
    if (d.state != DmaEngine::State::kDone || d.checksum != d.golden) return false;
  }
  return true;
}

}  // namespace tcdm
