// ISA-layer tests: program builder, label resolution, classification
// helpers, disassembler round-trips.
#include <gtest/gtest.h>

#include <iterator>

#include "src/cluster/cluster.hpp"
#include "src/isa/disasm.hpp"
#include "src/isa/instruction.hpp"
#include "src/isa/program.hpp"
#include "tests/support/test_support.hpp"

namespace tcdm {
namespace {

TEST(ProgramBuilder, ForwardAndBackwardLabels) {
  ProgramBuilder pb("labels");
  Label fwd = pb.make_label();
  Label back = pb.make_label();
  pb.bind(back);             // 0
  pb.addi(t0, t0, 1);        // 0
  pb.bnez(t0, fwd);          // 1 -> 3
  pb.j(back);                // 2 -> 0
  pb.bind(fwd);
  pb.halt();                 // 3
  const Program p = pb.build();
  ASSERT_EQ(p.size(), 4u);
  EXPECT_EQ(p.at(1).imm, 3);
  EXPECT_EQ(p.at(2).imm, 0);
}

TEST(ProgramBuilder, UnboundLabelThrows) {
  ProgramBuilder pb("bad");
  Label never = pb.make_label();
  pb.j(never);
  EXPECT_THROW((void)pb.build(), ProgramError);
}

TEST(ProgramBuilder, DoubleBindThrows) {
  ProgramBuilder pb("bad2");
  Label l = pb.make_label();
  pb.bind(l);
  EXPECT_THROW(pb.bind(l), ProgramError);
}

TEST(ProgramBuilder, EmitsExpectedFields) {
  ProgramBuilder pb;
  pb.li(a2, -42);
  pb.vfmacc_vf(VReg{8}, ft3, VReg{12});
  pb.vsetvli(t0, a3, Lmul::m8);
  pb.vlse32(VReg{4}, a2, a4);
  const Program p = pb.build();
  EXPECT_EQ(p.at(0).op, Opcode::kLi);
  EXPECT_EQ(p.at(0).rd, a2.idx);
  EXPECT_EQ(p.at(0).imm, -42);
  EXPECT_EQ(p.at(1).op, Opcode::kVfmaccVF);
  EXPECT_EQ(p.at(1).rd, 8);
  EXPECT_EQ(p.at(1).rs1, ft3.idx);
  EXPECT_EQ(p.at(1).rs2, 12);
  EXPECT_EQ(p.at(2).lmul, Lmul::m8);
  EXPECT_EQ(p.at(3).rs2, a4.idx);
}

TEST(ProgramBuilder, BuiltProgramExecutesOnTheSupportCluster) {
  // End-to-end sanity for the builder: labels, ALU ops and a store resolve
  // into a program the deterministic one-tile fixture cluster can retire.
  ProgramBuilder pb("e2e");
  pb.li(t0, 11);
  pb.li(t1, 31);
  pb.add(t2, t0, t1);
  pb.li(t3, 0x40);
  pb.sw(t2, t3, 0);
  pb.halt();
  Cluster cluster(test::one_tile_config());
  cluster.load_program(pb.build());
  EXPECT_TRUE(cluster.run(10'000).all_halted);
  EXPECT_EQ(cluster.read_word(0x40), 42u);
}

TEST(IsaClassification, VectorPredicates) {
  EXPECT_TRUE(is_vector(Opcode::kVsetvli));
  EXPECT_TRUE(is_vector(Opcode::kVle32));
  EXPECT_TRUE(is_vector(Opcode::kVfredusum));
  EXPECT_FALSE(is_vector(Opcode::kAdd));
  EXPECT_FALSE(is_vector(Opcode::kFlw));

  EXPECT_TRUE(is_vector_memory(Opcode::kVle32));
  EXPECT_TRUE(is_vector_memory(Opcode::kVsse32));
  EXPECT_TRUE(is_vector_memory(Opcode::kVsuxei32));
  EXPECT_FALSE(is_vector_memory(Opcode::kVfaddVV));
}

TEST(IsaClassification, EveryOpcodeHasName) {
  for (int op = 0; op <= static_cast<int>(Opcode::kVfredusum); ++op) {
    EXPECT_STRNE(opcode_name(static_cast<Opcode>(op)), "?");
  }
}

TEST(Disasm, RendersRepresentativeInstructions) {
  ProgramBuilder pb;
  pb.vfmacc_vv(VReg{8}, VReg{4}, VReg{12});
  pb.lw(t0, a2, 8);
  pb.vsse32(VReg{2}, a6, s1);
  pb.barrier();
  const Program p = pb.build();
  EXPECT_EQ(disasm(p.at(0)), "vfmacc.vv v8, v4, v12");
  EXPECT_EQ(disasm(p.at(1)), "lw x5, 8(x12)");
  EXPECT_EQ(disasm(p.at(2)), "vsse32.v v2, (x16), x9");
  EXPECT_EQ(disasm(p.at(3)), "barrier ");
}

TEST(Disasm, EveryOpcodeRendersAsRecorded) {
  // One instruction per opcode, in Opcode order, with distinct register
  // numbers so that every operand field shows where it is rendered.
  ProgramBuilder pb("every_opcode");
  Label top = pb.make_label();
  pb.bind(top);
  pb.nop();
  pb.li(a2, -42);
  pb.add(t0, t1, t2);
  pb.sub(t0, t1, t2);
  pb.mul(t0, t1, t2);
  pb.addi(t0, t1, -7);
  pb.slli(t0, t1, 3);
  pb.srli(t0, t1, 4);
  pb.srai(t0, t1, 5);
  pb.and_(t0, t1, t2);
  pb.or_(t0, t1, t2);
  pb.xor_(t0, t1, t2);
  pb.andi(t0, t1, 255);
  pb.ori(t0, t1, 16);
  pb.xori(t0, t1, -1);
  pb.slt(t0, t1, t2);
  pb.sltu(t0, t1, t2);
  pb.slti(t0, t1, 9);
  pb.beq(a0, a1, top);
  pb.bne(a0, a1, top);
  pb.blt(a0, a1, top);
  pb.bge(a0, a1, top);
  pb.bltu(a0, a1, top);
  pb.bgeu(a0, a1, top);
  pb.j(top);
  pb.lw(s2, a3, 12);
  pb.sw(s3, a4, -8);
  pb.flw(ft2, a5, 20);
  pb.fsw(ft4, a6, 24);
  pb.amoadd_w(s4, a7, s5);
  pb.fadd_s(ft0, ft1, ft2);
  pb.fsub_s(ft0, ft1, ft2);
  pb.fmul_s(ft0, ft1, ft2);
  pb.fmadd_s(ft0, ft1, ft2, ft3);
  pb.fmv_w_x(fa0, s6);
  pb.fmv_x_w(s7, fa1);
  pb.barrier();
  pb.halt();
  pb.vsetvli(t3, t4, Lmul::m4);
  pb.vle32(VReg{8}, a0);
  pb.vse32(VReg{9}, a1);
  pb.vlse32(VReg{10}, a2, a3);
  pb.vsse32(VReg{11}, a4, a5);
  pb.vluxei32(VReg{12}, a6, VReg{20});
  pb.vsuxei32(VReg{13}, a7, VReg{21});
  pb.vfadd_vv(VReg{1}, VReg{2}, VReg{3});
  pb.vfsub_vv(VReg{1}, VReg{2}, VReg{3});
  pb.vfmul_vv(VReg{1}, VReg{2}, VReg{3});
  pb.vfmacc_vv(VReg{1}, VReg{2}, VReg{3});
  pb.vfnmsac_vv(VReg{1}, VReg{2}, VReg{3});
  pb.vfmax_vv(VReg{1}, VReg{2}, VReg{3});
  pb.vfmin_vv(VReg{1}, VReg{2}, VReg{3});
  pb.vfadd_vf(VReg{4}, ft5, VReg{6});
  pb.vfmul_vf(VReg{4}, ft5, VReg{6});
  pb.vfmacc_vf(VReg{4}, ft5, VReg{6});
  pb.vfmax_vf(VReg{4}, ft5, VReg{6});
  pb.vfmv_v_f(VReg{7}, ft6);
  pb.vfredusum(VReg{14}, VReg{16}, VReg{15});
  const Program p = pb.build();
  const char* const kExpected[] = {
      "nop ",
      "li x12, -42",
      "add x5, x6, x7",
      "sub x5, x6, x7",
      "mul x5, x6, x7",
      "addi x5, x6, -7",
      "slli x5, x6, 3",
      "srli x5, x6, 4",
      "srai x5, x6, 5",
      "and x5, x6, x7",
      "or x5, x6, x7",
      "xor x5, x6, x7",
      "andi x5, x6, 255",
      "ori x5, x6, 16",
      "xori x5, x6, -1",
      "slt x5, x6, x7",
      "sltu x5, x6, x7",
      "slti x5, x6, 9",
      "beq x10, x11, @0",
      "bne x10, x11, @0",
      "blt x10, x11, @0",
      "bge x10, x11, @0",
      "bltu x10, x11, @0",
      "bgeu x10, x11, @0",
      "jal @0",
      "lw x18, 12(x13)",
      "sw x19, -8(x14)",
      "flw f2, 20(x15)",
      "fsw f4, 24(x16)",
      "amoadd.w x20, x21, (x17)",
      "fadd.s f0, f1, f2",
      "fsub.s f0, f1, f2",
      "fmul.s f0, f1, f2",
      "fmadd.s f0, f1, f2, f3",
      "fmv.w.x f10, x22",
      "fmv.x.w x23, f11",
      "barrier ",
      "halt ",
      "vsetvli x28, x29, e32, m4",
      "vle32.v v8, (x10)",
      "vse32.v v9, (x11)",
      "vlse32.v v10, (x12), x13",
      "vsse32.v v11, (x14), x15",
      "vluxei32.v v12, (x16), v20",
      "vsuxei32.v v13, (x17), v21",
      "vfadd.vv v1, v2, v3",
      "vfsub.vv v1, v2, v3",
      "vfmul.vv v1, v2, v3",
      "vfmacc.vv v1, v2, v3",
      "vfnmsac.vv v1, v2, v3",
      "vfmax.vv v1, v2, v3",
      "vfmin.vv v1, v2, v3",
      "vfadd.vf v4, f5, v6",
      "vfmul.vf v4, f5, v6",
      "vfmacc.vf v4, f5, v6",
      "vfmax.vf v4, f5, v6",
      "vfmv.v.f v7, f6",
      "vfredusum.vs v14, v16, v15",
  };
  ASSERT_EQ(p.size(), std::size(kExpected));
  ASSERT_EQ(p.size(), static_cast<std::size_t>(Opcode::kVfredusum) + 1);
  for (std::size_t pc = 0; pc < p.size(); ++pc) {
    EXPECT_EQ(static_cast<std::size_t>(p.at(pc).op), pc) << "builder order at " << pc;
    EXPECT_EQ(disasm(p.at(pc)), kExpected[pc]);
  }
}

TEST(Disasm, ProgramListingContainsAllLines) {
  ProgramBuilder pb("listing");
  pb.nop();
  pb.halt();
  const std::string text = disasm(pb.build());
  EXPECT_NE(text.find("listing"), std::string::npos);
  EXPECT_NE(text.find("0:"), std::string::npos);
  EXPECT_NE(text.find("halt"), std::string::npos);
}

}  // namespace
}  // namespace tcdm
