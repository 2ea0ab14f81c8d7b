#include "src/spatz/core_complex.hpp"

#include <cassert>

#include "src/cluster/cluster_config.hpp"

namespace tcdm {

CoreComplex::CoreComplex(const ClusterConfig& cfg, CoreId hartid, Barrier& barrier)
    : hartid_(hartid), barrier_(barrier), snitch_(hartid, cfg.num_cores()), spatz_(cfg) {}

void CoreComplex::attach_stats(StatsRegistry& reg, const std::string& prefix) {
  snitch_.attach_stats(reg, prefix + ".snitch");
  spatz_.attach_stats(reg, prefix + ".spatz");
}

void CoreComplex::load_program(const Program* prog, Cycle start_cycle) {
  snitch_.load_program(prog, start_cycle);
  spatz_.reset();
}

void CoreComplex::cycle(Cycle now, TileServices& tile) {
  // Retire first so load watermarks are visible to this cycle's consumers,
  // then scalar core, vector issue, and vector execution.
  spatz_.cycle_retire();
  snitch_.cycle(now, tile, spatz_, barrier_);
  spatz_.cycle_issue();
  spatz_.cycle_exec(now, tile);
}

void CoreComplex::deliver(const ReqTag& tag, bool write_ack, std::span<const Word> data,
                          Cycle now) {
  switch (tag.owner) {
    case ReqOwner::kScalar:
      if (write_ack) {
        snitch_.store_ack();
      } else {
        snitch_.fill_scalar(tag.rob_slot, data[0], now);
      }
      break;
    case ReqOwner::kVecNarrow:
      if (write_ack) {
        spatz_.vlsu().store_ack();
      } else {
        spatz_.vlsu().fill(tag.port, tag.rob_slot, data[0]);
      }
      break;
    case ReqOwner::kBurst: {
      assert(!write_ack && "write bursts are acknowledged per word as narrow stores");
      BurstSender& sender = spatz_.vlsu().sender();
      for (unsigned j = 0; j < data.size(); ++j) {
        const auto w = sender.lookup(tag.id, tag.word_offset + j);
        spatz_.vlsu().fill(w.port, w.rob_slot, data[j]);
      }
      sender.note_resolved(tag.id, static_cast<unsigned>(data.size()));
      break;
    }
  }
}

double CoreComplex::progress_token() const {
  return static_cast<double>(snitch_.instrs_executed()) + spatz_.vlsu().words_loaded() +
         spatz_.vlsu().words_stored();
}

}  // namespace tcdm
