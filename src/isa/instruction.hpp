// Micro-ISA of the simulated Core Complex: the RV32IM(F) subset executed by
// the Snitch scalar core plus the RVV Zve32f subset executed by the Spatz
// vector unit. Instructions are structured records (not encoded bit
// patterns): the simulator is cycle- and value-accurate at the architectural
// level, while staying independent of binary encodings.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>

#include "src/common/types.hpp"

namespace tcdm {

inline constexpr unsigned kNumXRegs = 32;
inline constexpr unsigned kNumFRegs = 32;
inline constexpr unsigned kNumVRegs = 32;

/// Typed register wrappers so the program-builder API is misuse-resistant:
/// you cannot pass a float register where a vector register is expected.
struct XReg {
  std::uint8_t idx = 0;
  constexpr bool operator==(const XReg&) const = default;
};
struct FReg {
  std::uint8_t idx = 0;
  constexpr bool operator==(const FReg&) const = default;
};
struct VReg {
  std::uint8_t idx = 0;
  constexpr bool operator==(const VReg&) const = default;
};

// Conventional ABI names for the registers kernels use most.
inline constexpr XReg x0{0}, ra{1}, sp{2}, t0{5}, t1{6}, t2{7}, s0{8}, s1{9};
inline constexpr XReg a0{10}, a1{11}, a2{12}, a3{13}, a4{14}, a5{15}, a6{16}, a7{17};
inline constexpr XReg s2{18}, s3{19}, s4{20}, s5{21}, s6{22}, s7{23}, s8{24}, s9{25};
inline constexpr XReg t3{28}, t4{29}, t5{30}, t6{31};
inline constexpr FReg ft0{0}, ft1{1}, ft2{2}, ft3{3}, ft4{4}, ft5{5}, ft6{6}, ft7{7};
inline constexpr FReg fa0{10}, fa1{11}, fa2{12}, fa3{13};

/// Vector-type configuration: SEW is fixed at 32 bit (Zve32f as in Spatz);
/// LMUL selects register grouping 1/2/4/8.
enum class Lmul : std::uint8_t { m1 = 1, m2 = 2, m4 = 4, m8 = 8 };

enum class Opcode : std::uint8_t {
  // ---- scalar integer ----
  kNop,
  kLi,     // rd <- imm (32-bit immediate; pseudo for lui+addi)
  kAdd,
  kSub,
  kMul,
  kAddi,
  kSlli,
  kSrli,
  kSrai,
  kAnd,
  kOr,
  kXor,
  kAndi,
  kOri,
  kXori,
  kSlt,
  kSltu,
  kSlti,
  // ---- control flow ----
  kBeq,
  kBne,
  kBlt,
  kBge,
  kBltu,
  kBgeu,
  kJal,    // unconditional jump (rd receives return pc; x0 to discard)
  // ---- scalar memory ----
  kLw,     // rd <- mem[rs1 + imm]
  kSw,     // mem[rs1 + imm] <- rs2
  kFlw,    // f[rd] <- mem[rs1 + imm]
  kFsw,    // mem[rs1 + imm] <- f[rs2]
  kAmoaddW,  // rd <- mem[rs1]; mem[rs1] <- rd + rs2  (atomic at the bank)
  // ---- scalar float ----
  kFaddS,
  kFsubS,
  kFmulS,
  kFmaddS,  // f[rd] = f[rs1]*f[rs2] + f[rs3]
  kFmvWX,   // f[rd] <- bits(x[rs1])
  kFmvXW,   // x[rd] <- bits(f[rs1])
  // ---- synchronization ----
  kBarrier,  // wait until all cores arrive (stores drained first)
  kHalt,     // core finished
  // ---- vector configuration ----
  kVsetvli,  // rd <- vl = min(x[rs1], VLMAX(lmul)); sets active vtype
  // ---- vector memory ----
  kVle32,    // vd <- mem[x[rs1] ...], unit stride (burst-eligible)
  kVse32,    // mem[x[rs1] ...] <- vs3(rd field), unit stride
  kVlse32,   // vd <- mem[x[rs1] + i*x[rs2]], strided (never bursts)
  kVsse32,   // mem[x[rs1] + i*x[rs2]] <- vs3(rd field), strided store
  kVluxei32,  // vd[i] <- mem[x[rs1] + vs2[i]], indexed gather (never bursts)
  kVsuxei32,  // mem[x[rs1] + vs2[i]] <- vs3(rd field), indexed scatter
  // ---- vector arithmetic (SEW=32 float) ----
  kVfaddVV,
  kVfsubVV,
  kVfmulVV,
  kVfmaccVV,   // vd += vs1 * vs2
  kVfnmsacVV,  // vd -= vs1 * vs2
  kVfmaxVV,    // vd[i] = max(vs1[i], vs2[i])
  kVfminVV,    // vd[i] = min(vs1[i], vs2[i])
  kVfaddVF,
  kVfmulVF,
  kVfmaccVF,   // vd += f[rs1] * vs2
  kVfmaxVF,    // vd[i] = max(f[rs1], vs2[i])  — e.g. ReLU with f = 0
  kVfmvVF,     // vd[i] = f[rs1] (splat)
  kVfredusum,  // vd[0] = vs1[0] + sum(vs2[0..vl))
};

/// One architectural instruction. Field roles depend on the opcode; the
/// ProgramBuilder is the type-safe way to construct these.
struct Instr {
  Opcode op = Opcode::kNop;
  std::uint8_t rd = 0;   // x/f/v destination (vs3 source for stores)
  std::uint8_t rs1 = 0;  // x/f/v source 1
  std::uint8_t rs2 = 0;  // x/v source 2
  std::uint8_t rs3 = 0;  // third source (kFmaddS)
  std::int32_t imm = 0;  // immediate or branch/jump target (instruction index)
  Lmul lmul = Lmul::m1;  // kVsetvli payload
};

/// Operand form: which of an instruction's rd/rs1/rs2/rs3 fields it uses,
/// and as which register file (X integer, F float, V vector) or immediate
/// (I). The vector forms come last, from kVset on, and the vector memory
/// forms carry the addressing mode the Burst Sender keys on (only a
/// unit-stride load coalesces into bursts).
enum class Form : std::uint8_t {
  kNone,      // nop, barrier, halt
  kXI,        // li       rd, imm
  kXXX,       // add      rd, rs1, rs2
  kXXI,       // addi     rd, rs1, imm
  kBranch,    // beq      rs1, rs2, @imm
  kJump,      // jal      @imm
  kLoadX,     // lw       rd, imm(rs1)
  kStoreX,    // sw       rs2, imm(rs1)
  kLoadF,     // flw      f[rd], imm(rs1)
  kStoreF,    // fsw      f[rs2], imm(rs1)
  kAmo,       // amoadd.w rd, rs2, (rs1)
  kFFF,       // fadd.s   f[rd], f[rs1], f[rs2]
  kFFFF,      // fmadd.s  f[rd], f[rs1], f[rs2], f[rs3]
  kFX,        // fmv.w.x  f[rd], rs1
  kXF,        // fmv.x.w  rd, f[rs1]
  kVset,      // vsetvli  rd, rs1, lmul
  kVLoad,     // vle32    vd, (rs1)             unit stride
  kVStore,    // vse32    vs3, (rs1)
  kVLoadS,    // vlse32   vd, (rs1), rs2        byte stride in x[rs2]
  kVStoreS,   // vsse32   vs3, (rs1), rs2
  kVLoadIdx,  // vluxei32 vd, (rs1), vs2        byte offsets in vs2
  kVStoreIdx, // vsuxei32 vs3, (rs1), vs2
  kVVV,       // vfadd.vv vd, vs1, vs2
  kVFV,       // vfadd.vf vd, f[rs1], vs2
  kVF,        // vfmv.v.f vd, f[rs1]
  kVRed,      // vfredusum.vs vd, vs2, vs1      vd and vs1 single registers
};

struct OpInfo {
  const char* name;
  Form form;
};

/// One row per opcode, in Opcode order.
inline constexpr OpInfo kOpTable[] = {
    {"nop", Form::kNone},          {"li", Form::kXI},
    {"add", Form::kXXX},           {"sub", Form::kXXX},
    {"mul", Form::kXXX},           {"addi", Form::kXXI},
    {"slli", Form::kXXI},          {"srli", Form::kXXI},
    {"srai", Form::kXXI},          {"and", Form::kXXX},
    {"or", Form::kXXX},            {"xor", Form::kXXX},
    {"andi", Form::kXXI},          {"ori", Form::kXXI},
    {"xori", Form::kXXI},          {"slt", Form::kXXX},
    {"sltu", Form::kXXX},          {"slti", Form::kXXI},
    {"beq", Form::kBranch},        {"bne", Form::kBranch},
    {"blt", Form::kBranch},        {"bge", Form::kBranch},
    {"bltu", Form::kBranch},       {"bgeu", Form::kBranch},
    {"jal", Form::kJump},          {"lw", Form::kLoadX},
    {"sw", Form::kStoreX},         {"flw", Form::kLoadF},
    {"fsw", Form::kStoreF},        {"amoadd.w", Form::kAmo},
    {"fadd.s", Form::kFFF},        {"fsub.s", Form::kFFF},
    {"fmul.s", Form::kFFF},        {"fmadd.s", Form::kFFFF},
    {"fmv.w.x", Form::kFX},        {"fmv.x.w", Form::kXF},
    {"barrier", Form::kNone},      {"halt", Form::kNone},
    {"vsetvli", Form::kVset},      {"vle32.v", Form::kVLoad},
    {"vse32.v", Form::kVStore},    {"vlse32.v", Form::kVLoadS},
    {"vsse32.v", Form::kVStoreS},  {"vluxei32.v", Form::kVLoadIdx},
    {"vsuxei32.v", Form::kVStoreIdx}, {"vfadd.vv", Form::kVVV},
    {"vfsub.vv", Form::kVVV},      {"vfmul.vv", Form::kVVV},
    {"vfmacc.vv", Form::kVVV},     {"vfnmsac.vv", Form::kVVV},
    {"vfmax.vv", Form::kVVV},      {"vfmin.vv", Form::kVVV},
    {"vfadd.vf", Form::kVFV},      {"vfmul.vf", Form::kVFV},
    {"vfmacc.vf", Form::kVFV},     {"vfmax.vf", Form::kVFV},
    {"vfmv.v.f", Form::kVF},       {"vfredusum.vs", Form::kVRed},
};
static_assert(std::size(kOpTable) == static_cast<std::size_t>(Opcode::kVfredusum) + 1,
              "kOpTable needs one row per opcode");

[[nodiscard]] constexpr const OpInfo& op_info(Opcode op) noexcept {
  return kOpTable[static_cast<std::size_t>(op)];
}
[[nodiscard]] constexpr const char* opcode_name(Opcode op) noexcept { return op_info(op).name; }

[[nodiscard]] constexpr bool is_vector(Opcode op) noexcept {
  return op_info(op).form >= Form::kVset;
}
[[nodiscard]] constexpr bool is_vector_memory(Opcode op) noexcept {
  const Form f = op_info(op).form;
  return f >= Form::kVLoad && f <= Form::kVStoreIdx;
}
[[nodiscard]] constexpr bool is_vector_store(Form f) noexcept {
  return f == Form::kVStore || f == Form::kVStoreS || f == Form::kVStoreIdx;
}

}  // namespace tcdm
