// In-flight vector instruction records and the register scoreboard.
//
// Spatz executes vector instructions with *chaining*: a consumer may start
// processing element e as soon as the producer's watermark has passed e,
// instead of waiting for the whole register group. The watermark lives in
// the producing instruction's record; the scoreboard maps each architectural
// vector register to its current writer so consumers can query readiness.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <limits>

#include "src/common/types.hpp"
#include "src/isa/instruction.hpp"

namespace tcdm {

/// Upper bound on VLSU ports / FPU lanes we support (Spatz8 in the paper).
inline constexpr unsigned kMaxPorts = 8;
/// In-flight vector instruction slots per core.
inline constexpr unsigned kVInstrSlots = 8;

/// A vector instruction dispatched by Snitch: opcode plus all scalar
/// operands captured at dispatch time (base address, stride, scalar float,
/// and the active vl/LMUL configuration).
struct DispatchedV {
  Opcode op = Opcode::kNop;
  std::uint8_t vd = 0;
  std::uint8_t vs1 = 0;  // vector source 1
  std::uint8_t vs2 = 0;  // vector source 2 / index vector
  float fvalue = 0.0f;   // captured f[rs1] for .vf forms
  Addr base = 0;         // captured x[rs1] for memory ops
  std::int32_t stride = 0;  // captured x[rs2] for vlse32
  unsigned vl = 0;
  Lmul lmul = Lmul::m1;
};

/// Execution-time state of one in-flight vector instruction.
struct VInstr {
  bool valid = false;
  DispatchedV d;
  unsigned issued = 0;     // elements issued to the unit so far
  unsigned retired = 0;    // elements architecturally complete
  unsigned watermark = 0;  // leading elements of vd visible to consumers
  bool issuing_done = false;
  std::array<std::uint16_t, kMaxPorts> port_retired{};  // per-VLSU-port progress

  void reset() { *this = VInstr{}; }
};

/// Enumerate the vector register groups `d` touches, as fn(first_reg,
/// group_len, is_write), from its opcode's operand form. Stores read their
/// data group from the vd (vs3) field; a reduction's vd and vs1 are single
/// registers.
template <typename Fn>
void for_each_group(const DispatchedV& d, Fn&& fn) {
  const unsigned g = static_cast<unsigned>(d.lmul);
  switch (op_info(d.op).form) {
    case Form::kVLoad:
    case Form::kVLoadS:
      fn(d.vd, g, true);
      break;
    case Form::kVLoadIdx:
      fn(d.vd, g, true);
      fn(d.vs2, g, false);
      break;
    case Form::kVStore:
    case Form::kVStoreS:
      fn(d.vd, g, false);
      break;
    case Form::kVStoreIdx:
      fn(d.vd, g, false);
      fn(d.vs2, g, false);
      break;
    case Form::kVVV:
      fn(d.vd, g, true);
      fn(d.vs1, g, false);
      fn(d.vs2, g, false);
      break;
    case Form::kVFV:
      fn(d.vd, g, true);
      fn(d.vs2, g, false);
      break;
    case Form::kVF:
      fn(d.vd, g, true);
      break;
    case Form::kVRed:
      fn(d.vd, 1, true);
      fn(d.vs2, g, false);
      fn(d.vs1, 1, false);
      break;
    default:
      assert(false && "non-vector opcode dispatched to Spatz");
  }
}

/// Register scoreboard over the 32 architectural vector registers.
/// Tracks, per register, the in-flight writer (for chaining + WAW) and the
/// number of in-flight readers (for WAR).
class Scoreboard {
 public:
  static constexpr unsigned kAllReady = std::numeric_limits<unsigned>::max();

  Scoreboard() {
    writer_.fill(-1);
    readers_.fill(0);
  }

  /// Can `d` issue? Every group it writes must be fully idle (no WAW/WAR
  /// renaming in Spatz); sources may have active writers (chaining).
  [[nodiscard]] bool dests_free(const DispatchedV& d) const {
    bool ok = true;
    for_each_group(d, [&](unsigned first, unsigned n, bool is_write) {
      if (!is_write) return;
      for (unsigned r = first; r < first + n; ++r) {
        if (writer_[r] >= 0 || readers_[r] > 0) ok = false;
      }
    });
    return ok;
  }

  /// Hold `d`'s groups for the instruction in pool slot `slot`.
  void acquire(const DispatchedV& d, unsigned slot) {
    for_each_group(d, [&](unsigned first, unsigned n, bool is_write) {
      for (unsigned r = first; r < first + n; ++r) {
        if (is_write) {
          assert(writer_[r] < 0);
          writer_[r] = static_cast<std::int8_t>(slot);
        } else {
          ++readers_[r];
        }
      }
    });
  }

  /// Release the groups a completed instruction holds and free its slot.
  void release(VInstr& instr) {
    assert(instr.valid);
    for_each_group(instr.d, [&](unsigned first, unsigned n, bool is_write) {
      for (unsigned r = first; r < first + n; ++r) {
        if (is_write) {
          writer_[r] = -1;
        } else {
          assert(readers_[r] > 0);
          --readers_[r];
        }
      }
    });
    instr.reset();
  }

  /// How many leading elements of group [vs, vs+n) a consumer may read,
  /// given the instruction pool (kAllReady when no writer is in flight).
  /// A writer in slot `self` counts as ready: the VFPU's active instruction
  /// holds the write lock on its own vd.
  [[nodiscard]] unsigned ready_elems(unsigned vs, unsigned n,
                                     const std::array<VInstr, kVInstrSlots>& pool,
                                     int self = -1) const {
    unsigned ready = kAllReady;
    for (unsigned r = vs; r < vs + n; ++r) {
      const int w = writer_[r];
      if (w >= 0 && w != self) ready = std::min(ready, pool[static_cast<unsigned>(w)].watermark);
    }
    return ready;
  }

  /// Have all groups `d` reads at least `need` leading ready elements?
  [[nodiscard]] bool sources_ready(const DispatchedV& d, unsigned need,
                                   const std::array<VInstr, kVInstrSlots>& pool,
                                   int self = -1) const {
    bool ok = true;
    for_each_group(d, [&](unsigned first, unsigned n, bool is_write) {
      if (!is_write && ready_elems(first, n, pool, self) < need) ok = false;
    });
    return ok;
  }

 private:
  std::array<std::int8_t, kNumVRegs> writer_;
  std::array<std::uint8_t, kNumVRegs> readers_;
};

}  // namespace tcdm
