#include "src/isa/disasm.hpp"

#include <sstream>

namespace tcdm {

namespace {
std::string reg(char prefix, unsigned i) {
  std::string out(1, prefix);
  out += std::to_string(i);
  return out;
}
std::string x(unsigned i) { return reg('x', i); }
std::string f(unsigned i) { return reg('f', i); }
std::string v(unsigned i) { return reg('v', i); }
}  // namespace

std::string disasm(const Instr& i) {
  const OpInfo& info = op_info(i.op);
  std::ostringstream o;
  o << info.name << " ";
  switch (info.form) {
    case Form::kNone:
      break;
    case Form::kXI:
      o << x(i.rd) << ", " << i.imm;
      break;
    case Form::kXXX:
      o << x(i.rd) << ", " << x(i.rs1) << ", " << x(i.rs2);
      break;
    case Form::kXXI:
      o << x(i.rd) << ", " << x(i.rs1) << ", " << i.imm;
      break;
    case Form::kBranch:
      o << x(i.rs1) << ", " << x(i.rs2) << ", @" << i.imm;
      break;
    case Form::kJump:
      o << "@" << i.imm;
      break;
    case Form::kLoadX:
      o << x(i.rd) << ", " << i.imm << "(" << x(i.rs1) << ")";
      break;
    case Form::kStoreX:
      o << x(i.rs2) << ", " << i.imm << "(" << x(i.rs1) << ")";
      break;
    case Form::kLoadF:
      o << f(i.rd) << ", " << i.imm << "(" << x(i.rs1) << ")";
      break;
    case Form::kStoreF:
      o << f(i.rs2) << ", " << i.imm << "(" << x(i.rs1) << ")";
      break;
    case Form::kAmo:
      o << x(i.rd) << ", " << x(i.rs2) << ", (" << x(i.rs1) << ")";
      break;
    case Form::kFFF:
      o << f(i.rd) << ", " << f(i.rs1) << ", " << f(i.rs2);
      break;
    case Form::kFFFF:
      o << f(i.rd) << ", " << f(i.rs1) << ", " << f(i.rs2) << ", " << f(i.rs3);
      break;
    case Form::kFX:
      o << f(i.rd) << ", " << x(i.rs1);
      break;
    case Form::kXF:
      o << x(i.rd) << ", " << f(i.rs1);
      break;
    case Form::kVset:
      o << x(i.rd) << ", " << x(i.rs1) << ", e32, m" << static_cast<int>(i.lmul);
      break;
    case Form::kVLoad:
    case Form::kVStore:
      o << v(i.rd) << ", (" << x(i.rs1) << ")";
      break;
    case Form::kVLoadS:
    case Form::kVStoreS:
      o << v(i.rd) << ", (" << x(i.rs1) << "), " << x(i.rs2);
      break;
    case Form::kVLoadIdx:
    case Form::kVStoreIdx:
      o << v(i.rd) << ", (" << x(i.rs1) << "), " << v(i.rs2);
      break;
    case Form::kVVV:
      o << v(i.rd) << ", " << v(i.rs1) << ", " << v(i.rs2);
      break;
    case Form::kVFV:
      o << v(i.rd) << ", " << f(i.rs1) << ", " << v(i.rs2);
      break;
    case Form::kVF:
      o << v(i.rd) << ", " << f(i.rs1);
      break;
    case Form::kVRed:
      o << v(i.rd) << ", " << v(i.rs2) << ", " << v(i.rs1);
      break;
  }
  return o.str();
}

std::string disasm(const Program& program) {
  std::ostringstream o;
  o << "; program '" << program.name() << "' (" << program.size() << " instrs)\n";
  for (std::size_t pc = 0; pc < program.size(); ++pc) {
    o << pc << ":\t" << disasm(program.at(pc)) << "\n";
  }
  return o.str();
}

}  // namespace tcdm
