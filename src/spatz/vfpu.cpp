#include "src/spatz/vfpu.hpp"

#include <algorithm>
#include <cassert>

#include "src/common/bitutil.hpp"

namespace tcdm {

Vfpu::Vfpu(unsigned lanes, unsigned latency)
    : lanes_(lanes), latency_(latency), pipe_(latency + 4) {
  assert(lanes_ >= 1 && lanes_ <= kMaxPorts);
  assert(latency_ >= 1);
}

void Vfpu::attach_stats(StatsRegistry& reg, const std::string& prefix) {
  static constexpr std::string_view kStats[] = {".flops", ".busy_cycles",
                                                ".chain_stall_cycles"};
  reg.block(prefix, kStats, {&flops_, &busy_cycles_, &stall_cycles_});
}

void Vfpu::start(unsigned slot) {
  assert(can_start());
  active_ = static_cast<int>(slot);
}

void Vfpu::exec_batch(VInstr& instr, VectorRegFile& vrf, unsigned e0, unsigned n) {
  const DispatchedV& d = instr.d;
  double batch_flops = 0.0;
  for (unsigned j = 0; j < n; ++j) {
    const unsigned e = e0 + j;
    float r = 0.0f;
    switch (d.op) {
      case Opcode::kVfaddVV:
        r = vrf.read_f(d.vs1, e) + vrf.read_f(d.vs2, e);
        batch_flops += 1;
        break;
      case Opcode::kVfsubVV:
        r = vrf.read_f(d.vs1, e) - vrf.read_f(d.vs2, e);
        batch_flops += 1;
        break;
      case Opcode::kVfmulVV:
        r = vrf.read_f(d.vs1, e) * vrf.read_f(d.vs2, e);
        batch_flops += 1;
        break;
      case Opcode::kVfmaccVV:
        r = vrf.read_f(d.vd, e) + vrf.read_f(d.vs1, e) * vrf.read_f(d.vs2, e);
        batch_flops += 2;
        break;
      case Opcode::kVfnmsacVV:
        r = vrf.read_f(d.vd, e) - vrf.read_f(d.vs1, e) * vrf.read_f(d.vs2, e);
        batch_flops += 2;
        break;
      case Opcode::kVfaddVF:
        r = d.fvalue + vrf.read_f(d.vs2, e);
        batch_flops += 1;
        break;
      case Opcode::kVfmulVF:
        r = d.fvalue * vrf.read_f(d.vs2, e);
        batch_flops += 1;
        break;
      case Opcode::kVfmaccVF:
        r = vrf.read_f(d.vd, e) + d.fvalue * vrf.read_f(d.vs2, e);
        batch_flops += 2;
        break;
      case Opcode::kVfmaxVV:
        r = std::max(vrf.read_f(d.vs1, e), vrf.read_f(d.vs2, e));
        batch_flops += 1;
        break;
      case Opcode::kVfminVV:
        r = std::min(vrf.read_f(d.vs1, e), vrf.read_f(d.vs2, e));
        batch_flops += 1;
        break;
      case Opcode::kVfmaxVF:
        r = std::max(d.fvalue, vrf.read_f(d.vs2, e));
        batch_flops += 1;
        break;
      case Opcode::kVfmvVF:
        r = d.fvalue;
        break;
      default:
        assert(false && "non-FPU opcode in VFPU");
    }
    vrf.write_f(d.vd, e, r);
  }
  flops_.inc(batch_flops);
}

void Vfpu::cycle(Cycle now, std::array<VInstr, kVInstrSlots>& pool, VectorRegFile& vrf,
                 Scoreboard& sb) {
  // Drain the pipeline: watermarks written `latency_` cycles after issue.
  while (!pipe_.empty() && pipe_.front().done <= now) {
    const PipeEntry pe = pipe_.pop();
    VInstr& instr = pool[pe.slot];
    assert(instr.valid);
    instr.watermark = std::max(instr.watermark, pe.upto);
    instr.retired = instr.watermark;
    const unsigned target = op_info(instr.d.op).form == Form::kVRed ? 1u : instr.d.vl;
    if (instr.watermark >= target && instr.issuing_done) sb.release(instr);
  }

  if (active_ < 0) return;
  if (now < busy_until_) {  // reduction occupying the lanes
    busy_cycles_.inc();
    return;
  }

  VInstr& instr = pool[static_cast<unsigned>(active_)];
  assert(instr.valid);
  const DispatchedV& d = instr.d;
  const unsigned group = static_cast<unsigned>(d.lmul);

  if (op_info(d.op).form == Form::kVRed) {
    // Needs the whole source vector (no partial chaining through a tree).
    if (sb.ready_elems(d.vs2, group, pool, active_) < d.vl ||
        sb.ready_elems(d.vs1, 1, pool, active_) < 1) {
      stall_cycles_.inc();
      return;
    }
    float acc = vrf.read_f(d.vs1, 0);
    for (unsigned e = 0; e < d.vl; ++e) acc += vrf.read_f(d.vs2, e);
    vrf.write_f(d.vd, 0, acc);
    flops_.inc(d.vl);
    const unsigned occupancy =
        static_cast<unsigned>(ceil_div(d.vl, lanes_)) + log2_floor(std::max(2u, lanes_));
    busy_until_ = now + occupancy;
    const bool pushed = pipe_.try_push(
        PipeEntry{busy_until_ + latency_, static_cast<std::uint8_t>(active_), 1});
    assert(pushed && "Vfpu pipe capacity bound violated");
    (void)pushed;
    instr.issued = d.vl;
    instr.issuing_done = true;
    active_ = -1;  // lanes report busy via busy_until_; issue slot frees after occupancy
    busy_cycles_.inc();
    return;
  }

  // Element-wise operation: one batch of up to `lanes_` elements per cycle.
  const unsigned e0 = instr.issued;
  const unsigned n = std::min(lanes_, d.vl - e0);
  const unsigned need = e0 + n;
  if (!sb.sources_ready(d, need, pool, active_)) {
    stall_cycles_.inc();
    return;
  }

  exec_batch(instr, vrf, e0, n);
  const bool pushed =
      pipe_.try_push(PipeEntry{now + latency_, static_cast<std::uint8_t>(active_), need});
  assert(pushed && "Vfpu pipe capacity bound violated");
  (void)pushed;
  instr.issued = need;
  busy_cycles_.inc();
  if (instr.issued >= d.vl) {
    instr.issuing_done = true;
    active_ = -1;
  }
}

}  // namespace tcdm
