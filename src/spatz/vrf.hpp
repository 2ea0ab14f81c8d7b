// Vector register file: 32 architectural registers of VLEN bits each,
// SEW = 32 (Zve32f). LMUL register groups occupy consecutive registers, so
// element `e` of group base `vd` lives at flat word index vd*EPR + e.
// The VRF is purely functional storage; *timing* visibility of elements is
// governed by the producing instruction's watermark (see Scoreboard).
#pragma once

#include <cassert>
#include <vector>

#include "src/common/types.hpp"
#include "src/isa/instruction.hpp"

namespace tcdm {

class VectorRegFile {
 public:
  explicit VectorRegFile(unsigned vlen_bits) : epr_(vlen_bits / 32) {
    assert(vlen_bits % 32 == 0 && epr_ >= 1);
    words_.assign(static_cast<std::size_t>(kNumVRegs) * epr_, 0);
  }

  /// Max vl for a given register grouping.
  [[nodiscard]] unsigned vlmax(Lmul lmul) const noexcept {
    return epr_ * static_cast<unsigned>(lmul);
  }

  [[nodiscard]] Word read(unsigned vreg, unsigned elem) const {
    return words_[flat(vreg, elem)];
  }
  [[nodiscard]] float read_f(unsigned vreg, unsigned elem) const {
    return word_to_f32(read(vreg, elem));
  }
  void write(unsigned vreg, unsigned elem, Word value) { words_[flat(vreg, elem)] = value; }
  void write_f(unsigned vreg, unsigned elem, float value) {
    write(vreg, elem, f32_to_word(value));
  }

  /// Zero all registers (just-constructed state; storage reused).
  void reset() { words_.assign(words_.size(), 0); }

 private:
  [[nodiscard]] std::size_t flat(unsigned vreg, unsigned elem) const {
    const std::size_t idx = static_cast<std::size_t>(vreg) * epr_ + elem;
    assert(vreg < kNumVRegs && idx < words_.size());
    return idx;
  }

  unsigned epr_;
  std::vector<Word> words_;
};

}  // namespace tcdm
