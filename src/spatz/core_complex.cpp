#include "src/spatz/core_complex.hpp"

#include <cassert>

namespace tcdm {

CoreComplex::CoreComplex(const SpatzConfig& cfg, CoreId hartid, unsigned num_harts,
                         Barrier& barrier)
    : hartid_(hartid), barrier_(barrier), snitch_(hartid, num_harts), spatz_(cfg) {}

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

void CoreComplex::deliver_remote(const TcdmResp& rsp, Cycle now) {
  switch (rsp.tag.owner) {
    case ReqOwner::kScalar:
      if (rsp.write_ack) {
        snitch_.store_ack();
      } else {
        snitch_.fill_scalar(rsp.tag.rob_slot, rsp.data[0], now);
      }
      break;
    case ReqOwner::kVecNarrow:
      if (rsp.write_ack) {
        spatz_.vlsu().store_ack();
      } else {
        spatz_.vlsu().fill(rsp.tag.port, rsp.tag.rob_slot, rsp.data[0]);
      }
      break;
    case ReqOwner::kBurst: {
      BurstSender& sender = spatz_.vlsu().sender();
      for (unsigned j = 0; j < rsp.num_words; ++j) {
        const auto w = sender.lookup(rsp.tag.id, rsp.tag.word_offset + j);
        spatz_.vlsu().fill(w.port, w.rob_slot, rsp.data[j]);
      }
      sender.note_resolved(rsp.tag.id, rsp.num_words);
      break;
    }
  }
}

void CoreComplex::deliver_local(const BankResp& rsp, Cycle now) {
  switch (rsp.route.kind) {
    case RouteKind::kLocalScalar:
      if (rsp.route.write) {
        snitch_.store_ack();
      } else {
        snitch_.fill_scalar(rsp.route.rob_slot, rsp.data, now);
      }
      break;
    case RouteKind::kLocalVector:
      if (rsp.route.write) {
        spatz_.vlsu().store_ack();
      } else {
        spatz_.vlsu().fill(rsp.route.port, rsp.route.rob_slot, rsp.data);
      }
      break;
    default:
      assert(false && "non-local route delivered to core");
  }
}

double CoreComplex::progress_token() const {
  return static_cast<double>(snitch_.instrs_executed()) + spatz_.vlsu().words_loaded() +
         spatz_.vlsu().words_stored();
}

}  // namespace tcdm
