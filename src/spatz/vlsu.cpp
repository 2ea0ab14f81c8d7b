#include "src/spatz/vlsu.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

#include "src/cluster/cluster_config.hpp"

namespace tcdm {

Vlsu::Vlsu(const ClusterConfig& cfg) : ports_(cfg.vlsu_ports), sender_(cfg) {
  assert(ports_ >= 1 && ports_ <= kMaxPorts);
  rob_.reserve(ports_);
  for (unsigned p = 0; p < ports_; ++p) rob_.emplace_back(cfg.rob_depth);
}

void Vlsu::attach_stats(StatsRegistry& reg, const std::string& prefix) {
  static constexpr std::string_view kStats[] = {".words_loaded", ".words_stored", ".beats",
                                                ".issue_stall_cycles"};
  reg.block(prefix, kStats, {&words_loaded_, &words_stored_, &beats_, &issue_stall_cycles_});
  sender_.attach_stats(reg, prefix + ".sender");
}

void Vlsu::start(unsigned slot, std::array<VInstr, kVInstrSlots>& pool) {
  assert(can_start());
  assert(pool[slot].valid);
  (void)pool;
  active_ = static_cast<int>(slot);
}

void Vlsu::update_watermark(VInstr& instr) const {
  // First unretired element on port p is p + port_retired[p] * K; the
  // watermark is the smallest such element across ports, clamped to vl.
  unsigned wm = instr.d.vl;
  for (unsigned p = 0; p < ports_; ++p) {
    wm = std::min(wm, p + instr.port_retired[p] * ports_);
  }
  instr.watermark = std::max(instr.watermark, std::min(wm, instr.d.vl));
}

void Vlsu::retire(std::array<VInstr, kVInstrSlots>& pool, VectorRegFile& vrf,
                  Scoreboard& sb) {
  // Watermarks are recomputed once per touched instruction after the port
  // loop, not once per retired element: nothing reads them mid-loop, and the
  // watermark is a pure (monotone) function of the final port_retired
  // counts, so the batched update lands on the exact same value.
  // Every ROB entry belongs to a load that is either still issuing (active_)
  // or parked in retiring_ until fully retired — no candidates means every
  // ROB is empty and the port scan would find nothing.
  if (active_ < 0 && retiring_.empty()) return;
  unsigned touched = 0;  // bitmask over VInstr pool slots
  for (unsigned p = 0; p < ports_; ++p) {
    if (!rob_[p].head_ready()) continue;
    const ReorderBuffer::Retired r = rob_[p].pop_head();
    VInstr& instr = pool[r.instr];
    assert(instr.valid);
    vrf.write(instr.d.vd, r.elem, r.data);
    ++instr.port_retired[p];
    ++instr.retired;
    words_loaded_.inc();
    if (instr.retired == instr.d.vl && instr.issuing_done) {
      // Fully retired load: drop from the retiring set and complete.
      retiring_.erase(std::find(retiring_.begin(), retiring_.end(), r.instr));
      sb.release(instr);  // resets the VInstr; no watermark update
      touched &= ~(1u << r.instr);
    } else {
      touched |= 1u << r.instr;
    }
  }
  while (touched != 0) {
    const unsigned slot = static_cast<unsigned>(std::countr_zero(touched));
    touched &= touched - 1;
    update_watermark(pool[slot]);
  }
}

void Vlsu::issue(Cycle now, TileServices& tile, std::array<VInstr, kVInstrSlots>& pool,
                 VectorRegFile& vrf, Scoreboard& sb) {
  if (active_ >= 0) {
    VInstr& instr = pool[static_cast<unsigned>(active_)];
    assert(instr.valid);
    const DispatchedV& d = instr.d;
    const Form form = op_info(d.op).form;
    const unsigned e0 = instr.issued;
    const unsigned n = std::min(ports_, d.vl - e0);
    const bool is_store = is_vector_store(form);

    bool can_issue = sender_.can_accept_beat();
    if (can_issue && !is_store) {
      for (unsigned j = 0; j < n; ++j) {
        if (rob_[(e0 + j) % ports_].full()) {
          can_issue = false;
          break;
        }
      }
    }
    // Chaining: store data and gather/scatter indices must be produced
    // before this beat's elements can be issued.
    if (can_issue) can_issue = sb.sources_ready(d, e0 + n, pool);

    if (can_issue) {
      BeatRequest beat;
      beat.form = form;
      beat.stride = d.stride;
      for (unsigned j = 0; j < n; ++j) {
        const unsigned e = e0 + j;
        const unsigned p = e % ports_;
        WordAccess w;
        switch (form) {
          case Form::kVLoad:
          case Form::kVStore:
            w.addr = d.base + e * kWordBytes;
            break;
          case Form::kVLoadS:
          case Form::kVStoreS:
            w.addr = d.base + static_cast<Addr>(static_cast<std::int64_t>(e) * d.stride);
            break;
          case Form::kVLoadIdx:
          case Form::kVStoreIdx:
            w.addr = d.base + vrf.read(d.vs2, e);
            break;
          default:
            assert(false && "non-memory opcode in VLSU");
        }
        if (w.addr % kWordBytes != 0 || !tile.map().valid(w.addr)) {
          // Identify the faulting hart (== tile: one core complex per tile)
          // so multi-hart programs can attribute faults from remote tiles.
          std::string msg = "vector access out of TCDM range or misaligned: addr=";
          msg += std::to_string(w.addr);
          msg += " element=";
          msg += std::to_string(e);
          msg += " hart=";
          msg += std::to_string(tile.tile_id());
          throw std::runtime_error(msg);
        }
        w.tag.owner = ReqOwner::kVecNarrow;
        w.tag.port = static_cast<std::uint8_t>(p);
        if (is_store) {
          w.write = true;
          w.wdata = vrf.read(d.vd, e);
          ++outstanding_stores_;
          words_stored_.inc();
        } else {
          w.tag.rob_slot = rob_[p].alloc(static_cast<std::uint8_t>(active_), e);
        }
        beat.words.push_back(w);
      }
      sender_.accept_beat(beat, tile.map(), tile.net().topology(), tile.tile_id());
      beats_.inc();
      instr.issued = e0 + n;
      if (instr.issued >= d.vl) {
        instr.issuing_done = true;
        const unsigned slot = static_cast<unsigned>(active_);
        active_ = -1;
        if (is_store) {
          // Posted stores: the instruction completes at last-beat issue;
          // memory-drain tracking continues via outstanding_stores_.
          sb.release(instr);
        } else {
          retiring_.push_back(slot);
        }
      }
    } else {
      issue_stall_cycles_.inc();
    }
  }

  sender_.dispatch(now, tile);
}

void Vlsu::fill(unsigned port, std::uint16_t rob_slot, Word data) {
  assert(port < ports_);
  rob_[port].fill(rob_slot, data);
}

bool Vlsu::drained() const noexcept {
  if (active_ >= 0 || !retiring_.empty()) return false;
  if (outstanding_stores_ != 0 || sender_.busy()) return false;
  for (const auto& r : rob_) {
    if (!r.empty()) return false;
  }
  return true;
}

}  // namespace tcdm
