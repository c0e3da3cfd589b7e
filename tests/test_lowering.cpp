//===- tests/test_lowering.cpp - opcode lowering table tests ---------------===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// The lowering table (machine/lowering.h) is the one opcode -> MOp map of
// the single-pass, copy-and-patch and optimizing compilers. These tests
// check it against OpInfo, check that every compiler emits what it says,
// and pin both constant folders to the executor on boundary operands.
//
//===----------------------------------------------------------------------===//

#include "testutil.h"

#include "baselines/copypatch.h"
#include "engine/registry.h"
#include "machine/assembler.h"
#include "machine/lowering.h"
#include "opt/optcompiler.h"

#include <cstdint>
#include <gtest/gtest.h>

using namespace wisp;

namespace {

/// Every assigned opcode, in encoding order.
std::vector<Opcode> allOpcodes() {
  std::vector<Opcode> Ops;
  for (uint32_t V = 0; V < 256; ++V)
    if (opInfo(Opcode(V)).Name)
      Ops.push_back(Opcode(V));
  for (uint32_t V = 0xFC00; V < 0xFC10; ++V)
    if (opInfo(Opcode(V)).Name)
      Ops.push_back(Opcode(V));
  return Ops;
}

/// Machine ops whose Imm is a linear-memory offset.
bool isMemoryAccess(MOp Op) {
  return Op >= MOp::LdM8S32 && Op <= MOp::StMF64;
}

bool isInt(ValType T) { return T == ValType::I32 || T == ValType::I64; }

TEST(Lowering, EveryFixedSignatureOpcodeHasAnEntry) {
  unsigned Entries = 0;
  for (Opcode Op : allOpcodes()) {
    const OpInfo &Info = opInfo(Op);
    const Lowering &L = lowering(Op);
    if (L.Reg != MOp::Nop) {
      ++Entries;
      EXPECT_EQ(Info.Class, OpClass::Simple) << opName(Op);
      continue;
    }
    // memory.size has no operand to lower; every compiler emits MemSize
    // in a case of its own.
    if (Info.Class == OpClass::Simple) {
      EXPECT_EQ(Op, Opcode::MemorySize) << opName(Op) << " has no lowering";
    }
  }
  EXPECT_EQ(Entries, 160u);
}

TEST(Lowering, EntriesAgreeWithTheSignature) {
  for (Opcode Op : allOpcodes()) {
    const OpInfo &Info = opInfo(Op);
    const Lowering &L = lowering(Op);
    if (L.Reg == MOp::Nop)
      continue;
    SCOPED_TRACE(opName(Op));
    // Immediate forms: integer binary ops and compares that cannot trap.
    if (L.Imm != MOp::Nop) {
      EXPECT_EQ(Info.NPop, 2u);
      EXPECT_TRUE(isInt(Info.Pop[0]));
      EXPECT_FALSE(Info.CanTrap);
    }
    // Condition codes: compares only, which pop two and push an i32.
    if (L.isCompare()) {
      EXPECT_EQ(Info.NPop, 2u);
      EXPECT_EQ(Info.NPush, 1u);
      EXPECT_EQ(Info.Push, ValType::I32);
    } else {
      EXPECT_EQ(L.Cond, 0u);
    }
    if (L.Commutative) {
      EXPECT_NE(L.Imm, MOp::Nop);
      EXPECT_FALSE(L.isCompare());
    }
    // A memory offset goes with a memarg immediate, and only with one.
    EXPECT_EQ(isMemoryAccess(L.Reg), Info.Imm == ImmKind::MemArg);
    EXPECT_FALSE(isMemoryAccess(L.Imm));
  }
}

/// One function (params -> result) that applies \p Op to its parameters.
std::unique_ptr<Module> moduleApplying(Opcode Op) {
  const OpInfo &Info = opInfo(Op);
  ModuleBuilder MB;
  MB.addMemory(1);
  std::vector<ValType> Params(Info.Pop, Info.Pop + Info.NPop);
  std::vector<ValType> Results;
  if (Info.NPush)
    Results.push_back(Info.Push);
  FuncBuilder &F = MB.addFunc(MB.addType(Params, Results));
  for (uint32_t I = 0; I < Info.NPop; ++I)
    F.localGet(I);
  if (Info.Imm == ImmKind::MemArg)
    F.load(Op, 0); // Same encoding for stores: opcode, align, offset.
  else if (Op == Opcode::MemoryGrow)
    F.memoryGrow();
  else
    F.op(Op);
  return buildAndValidate(MB);
}

bool emits(const MCode &Code, MOp Op, uint8_t D) {
  for (const MInst &I : Code.Insts)
    if (I.Op == Op && I.D == D)
      return true;
  return false;
}

// The three compilers take their machine ops from the table: with operands
// in registers, each emits the entry's register form and condition code.
// Copy-and-patch builds one template per entry at warm-up.
TEST(Lowering, EveryCompilerEmitsTheEntry) {
  warmCopyPatchTemplates();
  CompilerOptions Spc = CompilerOptions::allopt();
  CompilerOptions CopyPatch = configByName("wasm-now").Opts;
  CompilerOptions Opt = configByName("wasmtime").Opts;
  for (Opcode Op : allOpcodes()) {
    const Lowering &L = lowering(Op);
    if (L.Reg == MOp::Nop)
      continue;
    SCOPED_TRACE(opName(Op));
    std::unique_ptr<Module> M = moduleApplying(Op);
    ASSERT_TRUE(M);
    const FuncDecl &F = M->Funcs[0];
    EXPECT_TRUE(emits(*compileCopyPatch(*M, F, CopyPatch), L.Reg, L.Cond));
    EXPECT_TRUE(emits(*compileOptimizing(*M, F, Opt), L.Reg, L.Cond));
    // The single-pass compiler lowers eqz as a compare against zero.
    if (Op != Opcode::I32Eqz && Op != Opcode::I64Eqz) {
      EXPECT_TRUE(emits(*compileFunction(*M, F, Spc), L.Reg, L.Cond));
    }
  }
}

/// Boundary operands: 0, 1, -1, the i32 and i64 extremes, the sign bits
/// of the 8- and 16-bit extends, and shift counts on both sides of both
/// widths.
const uint64_t Operands[] = {0,
                             1,
                             ~uint64_t(0),
                             uint64_t(uint32_t(INT32_MIN)),
                             uint64_t(INT32_MAX),
                             uint64_t(INT64_MIN),
                             uint64_t(INT64_MAX),
                             0x80,
                             0x8000,
                             31,
                             32,
                             33,
                             63,
                             64,
                             65};

uint64_t canonical(ValType T, uint64_t Bits) {
  return T == ValType::I32 ? uint64_t(uint32_t(Bits)) : Bits;
}

/// The executor's result for \p L's register form on constant operands:
/// MovRI the operands into g1/g2, one instruction into g0, return it.
MCode registerFormCode(const Lowering &L, const OpInfo &Info,
                       const std::vector<uint64_t> &Args) {
  MCode Code;
  Code.FrameSlots = 4;
  Assembler A(Code);
  for (size_t I = 0; I < Args.size(); ++I)
    A.emit(MOp::MovRI, uint8_t(1 + I), 0, 0, 0,
           int64_t(canonical(Info.Pop[I], Args[I])));
  A.emit(L.Reg, 0, 1, Args.size() > 1 ? 2 : 0, L.Cond);
  A.emit(MOp::StSlot, 0, 0, 0, 0, 0);
  A.emit(MOp::Ret);
  return Code;
}

// SPC's folder (tryFoldBinop/tryFoldUnop, compileCmp's and eqz's) and the
// optimizer's foldBinop each evaluate constant operands at compile time.
// For every integer opcode either folds, the folded result must equal what
// the executor computes for the same MInst in register form.
TEST(Lowering, FoldersAgreeWithTheExecutor) {
  CompilerOptions Spc = CompilerOptions::allopt();
  CompilerOptions Opt = configByName("wasmtime").Opts;
  unsigned SpcFolded = 0, OptFolded = 0;
  for (Opcode Op : allOpcodes()) {
    const OpInfo &Info = opInfo(Op);
    const Lowering &L = lowering(Op);
    if (L.Reg == MOp::Nop || Info.CanTrap || Op == Opcode::MemoryGrow ||
        !isInt(Info.Pop[0]) || !isInt(Info.Push))
      continue;
    SCOPED_TRACE(opName(Op));
    // One () -> result function per operand tuple.
    std::vector<std::vector<uint64_t>> Tuples;
    for (uint64_t A : Operands) {
      if (Info.NPop == 1)
        Tuples.push_back({A});
      else
        for (uint64_t B : Operands)
          Tuples.push_back({A, B});
    }
    ModuleBuilder MB;
    uint32_t Ty = MB.addType({}, {Info.Push});
    for (const std::vector<uint64_t> &Args : Tuples) {
      FuncBuilder &F = MB.addFunc(Ty);
      for (size_t I = 0; I < Args.size(); ++I) {
        if (Info.Pop[I] == ValType::I32)
          F.i32Const(int32_t(uint32_t(Args[I])));
        else
          F.i64Const(int64_t(Args[I]));
      }
      F.op(Op);
    }
    InterpFixture Fx(MB);
    ASSERT_TRUE(Fx.ok());

    bool SpcFolds = true, OptFolds = true;
    for (uint32_t Fn = 0; Fn < Tuples.size(); ++Fn) {
      const std::vector<uint64_t> &Args = Tuples[Fn];
      FuncInstance *FI = Fx.Inst->func(Fn);
      auto Run = [&](MCode &Code) {
        FI->Code = &Code;
        FI->UseJit = true;
        std::vector<Value> Out;
        EXPECT_EQ(invoke(Fx.T, FI, {}, &Out), TrapReason::None);
        return Out.size() == 1 ? canonical(Info.Push, Out[0].Bits) : ~0ull;
      };
      auto Folded = [&](const MCode &Code) {
        for (const MInst &I : Code.Insts)
          if (I.Op == L.Reg || (L.Imm != MOp::Nop && I.Op == L.Imm) ||
              I.Op == MOp::CmpSetI32 || I.Op == MOp::CmpSetI64)
            return false;
        return true;
      };
      MCode Ref = registerFormCode(L, Info, Args);
      uint64_t Want = Run(Ref);
      std::unique_ptr<MCode> SpcCode =
          compileFunction(*Fx.M, Fx.M->Funcs[Fn], Spc);
      std::unique_ptr<MCode> OptCode =
          compileOptimizing(*Fx.M, Fx.M->Funcs[Fn], Opt);
      SpcFolds = SpcFolds && Folded(*SpcCode);
      OptFolds = OptFolds && Folded(*OptCode);
      std::string Desc = std::to_string(Args[0]) +
                         (Args.size() > 1 ? ", " + std::to_string(Args[1])
                                          : std::string());
      if (Folded(*SpcCode)) {
        EXPECT_EQ(Run(*SpcCode), Want) << "SPC folder on " << Desc;
      }
      if (Folded(*OptCode)) {
        EXPECT_EQ(Run(*OptCode), Want) << "optimizer folder on " << Desc;
      }
      FI->Code = nullptr; // The codes above die with this iteration.
      FI->UseJit = false;
    }
    SpcFolded += SpcFolds;
    OptFolded += OptFolds;
  }
  // SPC folds every non-trapping integer opcode; the optimizer folds the
  // binary ALU ops except rotates and 64-bit shifts, and the compares.
  EXPECT_EQ(SpcFolded, 58u);
  EXPECT_EQ(OptFolded, 35u);
}

} // namespace
