#include "src/spatz/snitch.hpp"

#include <cassert>
#include <stdexcept>

namespace tcdm {

namespace {

// The core's fixed timing: MemPool's Snitch is a single-issue, in-order
// core whose multiplier and FPU latencies are set in hardware.
constexpr unsigned kMulLatency = 3;          // integer multiply result latency
constexpr unsigned kFpuLatency = 4;          // scalar float op result latency
constexpr unsigned kTakenBranchPenalty = 1;  // bubble cycles after a taken branch

}  // namespace

void Snitch::attach_stats(StatsRegistry& reg, const std::string& prefix) {
  static constexpr std::string_view kStats[] = {
      ".instrs",           ".scalar_flops",     ".load_words",       ".store_words",
      ".stall_viq_cycles", ".stall_reg_cycles", ".stall_mem_cycles", ".barrier_wait_cycles"};
  reg.block(prefix, kStats,
            {&instrs_, &scalar_flops_, &load_words_, &store_words_, &stall_viq_, &stall_reg_,
             &stall_mem_, &barrier_wait_cycles_});
}

void Snitch::load_program(const Program* prog, Cycle start_cycle) {
  prog_ = prog;
  stall_until_ = start_cycle;
  pc_ = 0;
  x_.fill(0);
  f_.fill(0.0f);
  x_ready_.fill(0);
  f_ready_.fill(0);
  pending_.fill(PendingLoad{});
  pending_count_ = 0;
  outstanding_stores_ = 0;
  halted_ = false;
  vl_ = 0;
  lmul_ = Lmul::m1;
  barrier_arrived_ = false;
  barrier_target_gen_ = 0;
  // Reset ABI: a0 = hartid, a1 = hart count.
  x_[10] = hartid_;
  x_[11] = num_harts_;
}

int Snitch::alloc_pending() {
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    if (!pending_[i].valid) return static_cast<int>(i);
  }
  return -1;
}

bool Snitch::send_scalar_mem(Cycle now, TileServices& tile, Addr addr, bool write, bool amo,
                             Word wdata, std::uint16_t pending_id) {
  if (addr % kWordBytes != 0 || !tile.map().valid(addr)) {
    throw std::runtime_error("scalar access out of TCDM range or misaligned: addr=" +
                             std::to_string(addr) + " hart=" + std::to_string(hartid_));
  }
  WordAccess w;
  w.addr = addr;
  w.write = write;
  w.amo_add = amo;
  w.wdata = wdata;
  w.tag.owner = ReqOwner::kScalar;
  w.tag.rob_slot = pending_id;
  return tile.send_word(tile.route(addr), w, now);
}

void Snitch::fill_scalar(std::uint16_t id, Word data, Cycle now) {
  PendingLoad& p = pending_.at(id);
  assert(p.valid);
  if (p.is_float) {
    f_[p.reg] = word_to_f32(data);
    f_ready_[p.reg] = now + 1;
  } else {
    set_x(p.reg, data);
    x_ready_[p.reg] = now + 1;
  }
  p.valid = false;
  --pending_count_;
}

bool Snitch::exec_vector(const Instr& i, Cycle now, Spatz& spatz) {
  if (i.op == Opcode::kVsetvli) {
    if (!x_ready(i.rs1, now)) {
      stall_reg_.inc();
      return false;
    }
    lmul_ = i.lmul;
    vl_ = std::min<std::uint32_t>(x_[i.rs1], spatz.vlmax(i.lmul));
    set_x(i.rd, vl_);
    return true;
  }

  // Scalar operands a vector instruction captures at dispatch.
  const Form form = op_info(i.op).form;
  const bool needs_base = is_vector_memory(i.op);
  const bool needs_stride = form == Form::kVLoadS || form == Form::kVStoreS;
  const bool needs_f = form == Form::kVFV || form == Form::kVF;
  if ((needs_base && !x_ready(i.rs1, now)) || (needs_stride && !x_ready(i.rs2, now)) ||
      (needs_f && !f_ready(i.rs1, now))) {
    stall_reg_.inc();
    return false;
  }
  if (vl_ == 0) return true;  // zero-length vector op: architectural nop
  if (!spatz.viq_can_accept()) {
    stall_viq_.inc();
    return false;
  }
  DispatchedV d;
  d.op = i.op;
  d.vd = i.rd;
  d.vs1 = i.rs1;
  d.vs2 = i.rs2;
  d.fvalue = needs_f ? f_[i.rs1] : 0.0f;
  d.base = needs_base ? x_[i.rs1] : 0;
  d.stride = needs_stride ? static_cast<std::int32_t>(x_[i.rs2]) : 0;
  d.vl = vl_;
  d.lmul = lmul_;
  for_each_group(d, [&](unsigned first, unsigned n, bool) {
    if (first + n <= kNumVRegs) return;
    std::string msg = "vector register group past v31: ";
    msg += op_info(i.op).name;
    msg += " v";
    msg += std::to_string(first);
    msg += "..v";
    msg += std::to_string(first + n - 1);
    msg += " hart=";
    msg += std::to_string(hartid_);
    throw std::runtime_error(msg);
  });
  spatz.viq_push(d);
  return true;
}

Cycle Snitch::earliest_wakeup(Cycle now, const Spatz& spatz,
                              const Barrier& barrier, SkipPlan& plan) const {
  if (halted_) return kNoCycle;
  if (now < stall_until_) return stall_until_;  // exact: cycle() is a no-op until then
  if (prog_ == nullptr) return now;
  const Instr& i = prog_->at(pc_);
  switch (i.op) {
    case Opcode::kBarrier:
      if (!barrier_arrived_) {
        // Will arrive (a state change) as soon as the core's traffic drains;
        // until then the only effect is the wait counter ticking (EV2).
        if (drained() && spatz.fully_idle()) return now;
        plan.add(barrier_wait_cycles_, 1.0);
        return kNoCycle;  // woken by our own Spatz/network events (EV3)
      }
      if (barrier.generation() < barrier_target_gen_) {
        plan.add(barrier_wait_cycles_, 1.0);
        return kNoCycle;  // woken by the barrier's pending release
      }
      return now;
    case Opcode::kHalt:
      if (!(drained() && spatz.fully_idle())) {
        plan.add(stall_mem_, 1.0);
        return kNoCycle;  // woken by our own Spatz/network events (EV3)
      }
      return now;
    default:
      return now;  // conservative: active instructions step every cycle
  }
}

void Snitch::cycle(Cycle now, TileServices& tile, Spatz& spatz,
                   Barrier& barrier) {
  if (halted_ || now < stall_until_) return;
  assert(prog_ != nullptr && pc_ < prog_->size());
  const Instr& i = prog_->at(pc_);

  const auto a = [&]() { return x_[i.rs1]; };
  const auto b = [&]() { return x_[i.rs2]; };
  const auto sa = [&]() { return static_cast<std::int32_t>(x_[i.rs1]); };
  const auto sb2 = [&]() { return static_cast<std::int32_t>(x_[i.rs2]); };

  // Generic source/dest readiness for the simple scalar ops.
  const auto need_x = [&](unsigned r) {
    if (!x_ready(r, now)) {
      stall_reg_.inc();
      return false;
    }
    return true;
  };
  const auto need_f = [&](unsigned r) {
    if (!f_ready(r, now)) {
      stall_reg_.inc();
      return false;
    }
    return true;
  };

  bool done = true;      // instruction completed this cycle -> pc advance
  bool taken = false;    // taken branch -> penalty
  std::size_t next_pc = pc_ + 1;

  switch (i.op) {
    case Opcode::kNop:
      break;
    case Opcode::kLi:
      if (!need_x(i.rd)) return;
      set_x(i.rd, static_cast<std::uint32_t>(i.imm));
      break;
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kAnd:
    case Opcode::kOr:
    case Opcode::kXor:
    case Opcode::kSlt:
    case Opcode::kSltu: {
      if (!need_x(i.rs1) || !need_x(i.rs2) || !need_x(i.rd)) return;
      std::uint32_t r = 0;
      switch (i.op) {
        case Opcode::kAdd: r = a() + b(); break;
        case Opcode::kSub: r = a() - b(); break;
        case Opcode::kAnd: r = a() & b(); break;
        case Opcode::kOr: r = a() | b(); break;
        case Opcode::kXor: r = a() ^ b(); break;
        case Opcode::kSlt: r = sa() < sb2() ? 1 : 0; break;
        case Opcode::kSltu: r = a() < b() ? 1 : 0; break;
        default: break;
      }
      set_x(i.rd, r);
      break;
    }
    case Opcode::kMul:
      if (!need_x(i.rs1) || !need_x(i.rs2) || !need_x(i.rd)) return;
      set_x(i.rd, a() * b());
      if (i.rd != 0) x_ready_[i.rd] = now + kMulLatency;
      break;
    case Opcode::kAddi:
    case Opcode::kSlli:
    case Opcode::kSrli:
    case Opcode::kSrai:
    case Opcode::kAndi:
    case Opcode::kOri:
    case Opcode::kXori:
    case Opcode::kSlti: {
      if (!need_x(i.rs1) || !need_x(i.rd)) return;
      std::uint32_t r = 0;
      switch (i.op) {
        case Opcode::kAddi: r = a() + static_cast<std::uint32_t>(i.imm); break;
        case Opcode::kSlli: r = a() << (i.imm & 31); break;
        case Opcode::kSrli: r = a() >> (i.imm & 31); break;
        case Opcode::kSrai: r = static_cast<std::uint32_t>(sa() >> (i.imm & 31)); break;
        case Opcode::kAndi: r = a() & static_cast<std::uint32_t>(i.imm); break;
        case Opcode::kOri: r = a() | static_cast<std::uint32_t>(i.imm); break;
        case Opcode::kXori: r = a() ^ static_cast<std::uint32_t>(i.imm); break;
        case Opcode::kSlti: r = sa() < i.imm ? 1 : 0; break;
        default: break;
      }
      set_x(i.rd, r);
      break;
    }
    case Opcode::kBeq:
    case Opcode::kBne:
    case Opcode::kBlt:
    case Opcode::kBge:
    case Opcode::kBltu:
    case Opcode::kBgeu: {
      if (!need_x(i.rs1) || !need_x(i.rs2)) return;
      bool t = false;
      switch (i.op) {
        case Opcode::kBeq: t = a() == b(); break;
        case Opcode::kBne: t = a() != b(); break;
        case Opcode::kBlt: t = sa() < sb2(); break;
        case Opcode::kBge: t = sa() >= sb2(); break;
        case Opcode::kBltu: t = a() < b(); break;
        case Opcode::kBgeu: t = a() >= b(); break;
        default: break;
      }
      if (t) {
        next_pc = static_cast<std::size_t>(i.imm);
        taken = true;
      }
      break;
    }
    case Opcode::kJal:
      if (!need_x(i.rd)) return;
      set_x(i.rd, static_cast<std::uint32_t>(pc_ + 1));
      next_pc = static_cast<std::size_t>(i.imm);
      taken = true;
      break;
    case Opcode::kLw:
    case Opcode::kFlw:
    case Opcode::kAmoaddW: {
      const bool is_float = i.op == Opcode::kFlw;
      const bool amo = i.op == Opcode::kAmoaddW;
      if (!need_x(i.rs1)) return;
      if (amo && !need_x(i.rs2)) return;
      if (is_float ? !need_f(i.rd) : !need_x(i.rd)) return;  // WAW on destination
      const int id = alloc_pending();
      if (id < 0) {
        stall_mem_.inc();
        return;
      }
      const Addr addr = x_[i.rs1] + static_cast<std::uint32_t>(amo ? 0 : i.imm);
      if (!send_scalar_mem(now, tile, addr, false, amo, amo ? x_[i.rs2] : 0,
                           static_cast<std::uint16_t>(id))) {
        stall_mem_.inc();
        return;
      }
      pending_[id] = PendingLoad{true, i.rd, is_float};
      ++pending_count_;
      if (is_float) {
        f_ready_[i.rd] = kNoCycle;
      } else if (i.rd != 0) {
        x_ready_[i.rd] = kNoCycle;
      }
      load_words_.inc();
      break;
    }
    case Opcode::kSw:
    case Opcode::kFsw: {
      const bool is_float = i.op == Opcode::kFsw;
      if (!need_x(i.rs1)) return;
      if (is_float ? !need_f(i.rs2) : !need_x(i.rs2)) return;
      const Word data = is_float ? f32_to_word(f_[i.rs2]) : x_[i.rs2];
      const Addr addr = x_[i.rs1] + static_cast<std::uint32_t>(i.imm);
      if (!send_scalar_mem(now, tile, addr, true, false, data, 0)) {
        stall_mem_.inc();
        return;
      }
      ++outstanding_stores_;
      store_words_.inc();
      break;
    }
    case Opcode::kFaddS:
    case Opcode::kFsubS:
    case Opcode::kFmulS:
      if (!need_f(i.rs1) || !need_f(i.rs2) || !need_f(i.rd)) return;
      switch (i.op) {
        case Opcode::kFaddS: f_[i.rd] = f_[i.rs1] + f_[i.rs2]; break;
        case Opcode::kFsubS: f_[i.rd] = f_[i.rs1] - f_[i.rs2]; break;
        case Opcode::kFmulS: f_[i.rd] = f_[i.rs1] * f_[i.rs2]; break;
        default: break;
      }
      f_ready_[i.rd] = now + kFpuLatency;
      scalar_flops_.inc(1);
      break;
    case Opcode::kFmaddS:
      if (!need_f(i.rs1) || !need_f(i.rs2) || !need_f(i.rs3) || !need_f(i.rd)) return;
      f_[i.rd] = f_[i.rs1] * f_[i.rs2] + f_[i.rs3];
      f_ready_[i.rd] = now + kFpuLatency;
      scalar_flops_.inc(2);
      break;
    case Opcode::kFmvWX:
      if (!need_x(i.rs1) || !need_f(i.rd)) return;
      f_[i.rd] = word_to_f32(x_[i.rs1]);
      break;
    case Opcode::kFmvXW:
      if (!need_f(i.rs1) || !need_x(i.rd)) return;
      set_x(i.rd, f32_to_word(f_[i.rs1]));
      break;
    case Opcode::kBarrier:
      if (!barrier_arrived_) {
        if (drained() && spatz.fully_idle()) {
          barrier_target_gen_ = barrier.generation() + 1;
          barrier.arrive(hartid_, now);
          barrier_arrived_ = true;
        }
        barrier_wait_cycles_.inc();
        return;
      }
      if (barrier.generation() < barrier_target_gen_) {
        barrier_wait_cycles_.inc();
        return;
      }
      barrier_arrived_ = false;
      break;
    case Opcode::kHalt:
      // Quiesce before halting so end-of-run statistics are complete.
      if (!(drained() && spatz.fully_idle())) {
        stall_mem_.inc();
        return;
      }
      halted_ = true;
      instrs_.inc();
      return;
    default:
      if (is_vector(i.op)) {
        if (!exec_vector(i, now, spatz)) return;
        break;
      }
      assert(false && "unhandled opcode");
      return;
  }

  if (done) {
    instrs_.inc();
    pc_ = next_pc;
    if (taken) stall_until_ = now + 1 + kTakenBranchPenalty;
    assert(pc_ < prog_->size() && "fell off the end of the program (missing halt?)");
  }
}

}  // namespace tcdm
