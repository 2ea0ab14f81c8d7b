#include "src/cluster/cluster.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace tcdm {

namespace {
/// Validated before any member is built from it: Topology sizes its
/// per-class tables from level_sizes.
const ClusterConfig& validated(const ClusterConfig& cfg) {
  cfg.validate();
  return cfg;
}

/// The central barrier's release latency: the topology's worst round-trip.
unsigned worst_round_trip(const Topology& topo) {
  unsigned worst = 1;
  for (unsigned cls = 0; cls < topo.num_classes(); ++cls) {
    worst = std::max(worst, topo.round_trip(static_cast<std::uint8_t>(cls)));
  }
  return worst;
}
}  // namespace

Cluster::Cluster(const ClusterConfig& cfg, const SimOptions& sim)
    : cfg_(validated(cfg)),
      topo_(cfg.topology()),
      map_(cfg.address_map()),
      barrier_(BarrierKind::kCentral, cfg.num_cores(), worst_round_trip(topo_)),
      watchdog_(kDefaultWatchdogWindow),
      stepping_(sim.stepping) {
  net_ = std::make_unique<HierNetwork>(topo_, cfg_.req_grouping_factor, stats_);
  tiles_.reserve(cfg_.num_tiles);
  for (TileId t = 0; t < cfg_.num_tiles; ++t) {
    tiles_.push_back(std::make_unique<Tile>(cfg_, t, *net_, map_, barrier_, stats_));
  }
}

void Cluster::load_program(Program program) {
  programs_.clear();
  programs_.push_back(std::move(program));
  for (std::size_t t = 0; t < tiles_.size(); ++t) {
    tiles_[t]->cc().load_program(&programs_.front(),
                                 clock_.now() + t * cfg_.start_stagger_cycles);
  }
}

void Cluster::load_programs(std::vector<Program> programs) {
  if (programs.size() != tiles_.size()) {
    throw std::invalid_argument("load_programs: need exactly one program per hart");
  }
  programs_ = std::move(programs);
  for (std::size_t t = 0; t < tiles_.size(); ++t) {
    tiles_[t]->cc().load_program(&programs_[t],
                                 clock_.now() + t * cfg_.start_stagger_cycles);
  }
}

template <typename Self, typename Fn>
void Cluster::for_each_word(Self& self, Addr addr, std::size_t count, const char* what,
                            Fn fn) {
  if (count == 0) return;
  const AddressMap& map = self.map_;
  if (!map.valid(addr) || addr % kWordBytes != 0 ||
      count > (map.total_bytes() - addr) / kWordBytes) {
    throw std::out_of_range(std::string(what) + ": bad TCDM address");
  }
  // Words interleave across the banks of every tile in turn; after the last
  // bank of the last tile the walk wraps to the next row.
  const DecodedAddr at = map.decode(addr);
  TileId tile = at.tile;
  unsigned bank = at.bank_in_tile;
  std::uint32_t row = at.row;
  for (std::size_t i = 0; i < count; ++i) {
    fn(i, self.tiles_[tile]->bank(bank).rows()[row]);
    if (++bank == map.banks_per_tile()) {
      bank = 0;
      if (++tile == map.num_tiles()) {
        tile = 0;
        ++row;
      }
    }
  }
}

void Cluster::write_word(Addr addr, Word value) {
  for_each_word(*this, addr, 1, "write_word", [&](std::size_t, Word& w) { w = value; });
}

Word Cluster::read_word(Addr addr) const {
  Word value = 0;
  for_each_word(*this, addr, 1, "read_word", [&](std::size_t, const Word& w) { value = w; });
  return value;
}

void Cluster::write_block(Addr addr, std::span<const Word> words) {
  for_each_word(*this, addr, words.size(), "write_word",
                [&](std::size_t i, Word& w) { w = words[i]; });
}

void Cluster::write_block_f32(Addr addr, std::span<const float> values) {
  for_each_word(*this, addr, values.size(), "write_word",
                [&](std::size_t i, Word& w) { w = f32_to_word(values[i]); });
}

std::vector<float> Cluster::read_block_f32(Addr addr, std::size_t count) const {
  std::vector<float> out(count);
  for_each_word(*this, addr, count, "read_word",
                [&](std::size_t i, const Word& w) { out[i] = word_to_f32(w); });
  return out;
}

void Cluster::reset() {
  clock_.reset();
  watchdog_.set_window(kDefaultWatchdogWindow);  // undo set_watchdog_window
  watchdog_.note_progress(0);
  stats_.reset();  // zero every slot; Counter handles remain valid
  barrier_.reset();
  net_->reset();
  for (auto& tile : tiles_) tile->reset();
  programs_.clear();
  last_progress_token_ = -1.0;
  plan_.clear();
  scan_hint_ = 0;
  mem_phase_active_ = false;
  wakeup_bias_ = 0;
  cycles_skipped_ = 0;
  xc_expected_.clear();
  xc_after_.clear();
  xc_slots_.clear();
}

void Cluster::deliver_rsp(const TcdmResp& rsp, Cycle now) {
  tiles_.at(rsp.dst_tile)->cc().deliver(rsp.tag, rsp.write_ack, {rsp.data.data(), rsp.num_words},
                                       now);
}

bool Cluster::step() {
  const Cycle now = clock_.now();

  // Phase 1 — core/VLSU issue, per tile. A halted core complex is fully
  // drained (the Snitch only halts after drained() && fully_idle()), so its
  // cycle is a strict no-op and can be skipped.
  for (auto& tile : tiles_) {
    if (!tile->cc().halted()) tile->cycle_cores(now);
  }

  // Phase 2 — network & burst routing: the egress arbiters read and
  // re-register master-port heads across tiles in a fixed global order.
  net_->cycle(now, *this);

  // Phase 3 — bank access and response emission, per tile, with a
  // quiescence fast-path for tiles with no in-flight memory work.
  mem_phase_active_ = false;
  for (auto& tile : tiles_) {
    if (tile->memory_quiescent()) continue;
    mem_phase_active_ = true;
    tile->cycle_memory(now);
  }

  // Phase 4 — barrier release, watchdog and halt detection (serial).
  barrier_.cycle(now);

  double token = 0.0;
  bool all_halted = true;
  for (auto& tile : tiles_) {
    token += tile->cc().progress_token();
    all_halted = all_halted && tile->cc().halted();
  }
  if (token != last_progress_token_) {
    last_progress_token_ = token;
    watchdog_.note_progress(now);
  }
  if (!all_halted) watchdog_.check(now);

  clock_.advance();
  return all_halted;
}

Cycle Cluster::earliest_event(SkipPlan& plan) {
  plan.clear();
  const Cycle now = clock_.now();
  Cycle wake = kNoCycle;
  const auto n = static_cast<unsigned>(tiles_.size());
  for (unsigned k = 0; k < n; ++k) {
    // Start at the tile that most recently had work: while the cluster is
    // busy this returns after one probe instead of scanning all tiles.
    const unsigned t = scan_hint_ + k < n ? scan_hint_ + k : scan_hint_ + k - n;
    const Tile& tile = *tiles_[t];
    if (!tile.cc().halted()) {
      const Cycle w = tile.cc().earliest_wakeup(now, plan);
      if (w <= now) {
        scan_hint_ = t;
        return now;
      }
      wake = std::min(wake, w);
    }
    if (!tile.memory_quiescent()) {
      scan_hint_ = t;
      return now;
    }
  }
  const Cycle net_wake = net_->earliest_wakeup(now);
  if (net_wake <= now) return now;
  wake = std::min(wake, net_wake);
  if (barrier_.release_pending()) {
    const Cycle release = barrier_.release_at();
    if (release <= now) return now;
    wake = std::min(wake, release);
  }
  return wake;
}

void Cluster::cross_check_to(Cycle claimed_event, Cycle target) {
  if (xc_slots_.empty()) xc_slots_ = stats_.slots();
  const auto index_of = [&](const double* slot) {
    for (std::size_t i = 0; i < xc_slots_.size(); ++i) {
      if (xc_slots_[i] == slot) return i;
    }
    throw std::logic_error("cross-check: SkipPlan counter not in the registry");
  };
  const auto name_of = [&](std::size_t i) { return stats_.snapshot().at(i).first; };

  while (clock_.now() < target) {
    const Cycle at = clock_.now();
    // Expected registry state after one reference step of a claimed-quiet
    // cycle: exactly the declared per-cycle rates (EV2).
    stats_.values(xc_expected_);
    for (const SkipPlan::Entry& e : plan_.entries()) {
      xc_expected_[index_of(e.counter.slot())] += e.per_cycle;
    }

    const bool halted = step();
    stats_.values(xc_after_);
    for (std::size_t i = 0; i < xc_after_.size(); ++i) {
      if (xc_after_[i] != xc_expected_[i]) {
        throw WakeupContractError(
            "EV2 violation (declared-rate exactness, docs/ARCHITECTURE.md): counter '" +
            name_of(i) + "' moved by " + std::to_string(xc_after_[i] - xc_expected_[i]) +
            " beyond its declared rate at cycle " + std::to_string(at) +
            " inside a span claimed quiet until cycle " + std::to_string(claimed_event));
      }
    }
    if (halted) {
      throw WakeupContractError(
          "EV1 violation (quiet-span soundness, docs/ARCHITECTURE.md): the cluster "
          "halted at cycle " + std::to_string(at) +
          " inside a span claimed quiet until cycle " + std::to_string(claimed_event));
    }
    Cycle replanned = earliest_event(plan_);
    if (wakeup_bias_ != 0 && replanned != kNoCycle) replanned += wakeup_bias_;
    if (replanned != claimed_event) {
      throw WakeupContractError(
          "EV1 violation (quiet-span soundness, docs/ARCHITECTURE.md): stepping "
          "claimed-quiet cycle " + std::to_string(at) + " moved the next event from " +
          std::to_string(claimed_event) + " to " + std::to_string(replanned));
    }
  }
}

Cycle Cluster::next_event() {
  Cycle event = earliest_event(plan_);
  if (wakeup_bias_ != 0 && event != kNoCycle) event += wakeup_bias_;
  return event;
}

void Cluster::skip_to(Cycle target) {
  const Cycle now = clock_.now();
  assert(target > now);
  plan_.apply(static_cast<double>(target - now));
  cycles_skipped_ += target - now;
  clock_.advance_by(target - now);
}

RunOutcome Cluster::run(Cycle max_cycles) {
  if (programs_.empty()) throw std::logic_error("run: no program loaded");
  RunOutcome out;
  const Cycle start = clock_.now();
  const Cycle budget_end = max_cycles > kNoCycle - start ? kNoCycle : start + max_cycles;
  out.all_halted = advance(*this, budget_end, stepping_);
  out.cycles = clock_.now() - start;
  return out;
}

double Cluster::bytes_loaded() const {
  return kWordBytes *
         (stats_.sum_suffix(".vlsu.words_loaded") + stats_.sum_suffix(".snitch.load_words"));
}

double Cluster::bytes_stored() const {
  return kWordBytes *
         (stats_.sum_suffix(".vlsu.words_stored") + stats_.sum_suffix(".snitch.store_words"));
}

double Cluster::bytes_accessed() const { return bytes_loaded() + bytes_stored(); }

}  // namespace tcdm
