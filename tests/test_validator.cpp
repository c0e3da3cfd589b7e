//===- tests/test_validator.cpp - validation and side-table tests ----------===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "testutil.h"

#include <gtest/gtest.h>

#include <functional>

using namespace wisp;

namespace {

/// One invalid body and the exact diagnostic it draws. The body under test
/// is func 0 of type [i32] -> []; Setup may add memories, tables, globals
/// and types first, and build() appends the terminating `end`.
struct DiagCase {
  const char *Message; ///< Err.Message without the "func 0: " prefix.
  uint32_t Offset;     ///< Err.Offset relative to the body start.
  std::function<void(ModuleBuilder &, FuncBuilder &)> Body;
};

/// An over-long LEB128 (six bytes; a u32/s32 takes at most five).
void overlongLeb(FuncBuilder &F) {
  for (int I = 0; I < 5; ++I)
    F.byte(0x80);
  F.byte(0x00);
}

const std::vector<DiagCase> &diagCases() {
  using O = Opcode;
  using V = ValType;
  static const std::vector<DiagCase> Cases = {
      {"operand stack underflow", 1,
       [](ModuleBuilder &, FuncBuilder &F) { F.op(O::I32Add); }},
      {"type mismatch: expected f64, found i32", 3,
       [](ModuleBuilder &, FuncBuilder &F) {
         F.localGet(0);
         F.op(O::F64Sqrt);
       }},
      {"block type index 5 out of range", 2,
       [](ModuleBuilder &, FuncBuilder &F) {
         F.block(BlockType::funcType(5));
       }},
      {"1 superfluous values at end of block", 3,
       [](ModuleBuilder &, FuncBuilder &F) { F.i32Const(1); }},
      {"branch depth 5 exceeds nesting 1", 2,
       [](ModuleBuilder &, FuncBuilder &F) { F.br(5); }},
      {"memory instruction without declared memory", 5,
       [](ModuleBuilder &, FuncBuilder &F) {
         F.i32Const(0);
         F.load(O::I32Load, 0, 2);
       }},
      {"alignment 2**3 exceeds natural alignment 4 of i32.load", 5,
       [](ModuleBuilder &MB, FuncBuilder &F) {
         MB.addMemory(1);
         F.i32Const(0);
         F.load(O::I32Load, 0, 3);
       }},
      {"alignment 2**4 exceeds natural alignment 8 of f64.store", 14,
       [](ModuleBuilder &MB, FuncBuilder &F) {
         MB.addMemory(1);
         F.i32Const(0);
         F.f64Const(1.0);
         F.store(O::F64Store, 0, 4);
       }},
      {"alignment 2**1 exceeds natural alignment 1 of i64.load8_u", 5,
       [](ModuleBuilder &MB, FuncBuilder &F) {
         MB.addMemory(1);
         F.i32Const(0);
         F.load(O::I64Load8U, 0, 1);
       }},
      {"unknown opcode 0x6", 1,
       [](ModuleBuilder &, FuncBuilder &F) { F.byte(0x06); }},
      {"unknown opcode 0xfc08", 2,
       [](ModuleBuilder &, FuncBuilder &F) {
         F.byte(0xFC);
         F.u32(8);
       }},
      {"malformed memarg", 3,
       [](ModuleBuilder &MB, FuncBuilder &F) {
         MB.addMemory(1);
         F.i32Const(0);
         F.op(O::I32Load);
         overlongLeb(F);
       }},
      {"nonzero memory index", 2,
       [](ModuleBuilder &MB, FuncBuilder &F) {
         MB.addMemory(1);
         F.op(O::MemorySize);
         F.byte(1);
       }},
      {"nonzero memory index", 10,
       [](ModuleBuilder &MB, FuncBuilder &F) {
         MB.addMemory(1);
         F.i32Const(0);
         F.i32Const(0);
         F.i32Const(0);
         F.op(O::MemoryCopy);
         F.byte(0);
         F.byte(1);
       }},
      {"nonzero memory index", 9,
       [](ModuleBuilder &MB, FuncBuilder &F) {
         MB.addMemory(1);
         F.i32Const(0);
         F.i32Const(0);
         F.i32Const(0);
         F.op(O::MemoryFill);
         F.byte(1);
       }},
      {"malformed block type", 2,
       [](ModuleBuilder &, FuncBuilder &F) {
         F.op(O::Block);
         F.byte(0x7B); // v128: not in the supported feature set.
       }},
      {"else without matching if", 1,
       [](ModuleBuilder &, FuncBuilder &F) { F.elseOp(); }},
      {"if without else requires matching params and results", 7,
       [](ModuleBuilder &, FuncBuilder &F) {
         F.localGet(0);
         F.ifOp(BlockType::oneResult(V::I32));
         F.i32Const(1);
         F.end();
       }},
      {"2 trailing bytes after function end", 1,
       [](ModuleBuilder &, FuncBuilder &F) {
         F.end();
         F.op(O::Nop);
       }},
      {"malformed branch depth", 1,
       [](ModuleBuilder &, FuncBuilder &F) {
         F.op(O::Br);
         overlongLeb(F);
       }},
      {"malformed branch depth", 3,
       [](ModuleBuilder &, FuncBuilder &F) {
         F.localGet(0);
         F.op(O::BrIf);
         overlongLeb(F);
       }},
      {"malformed br_table", 3,
       [](ModuleBuilder &, FuncBuilder &F) {
         F.localGet(0);
         F.op(O::BrTable);
         overlongLeb(F);
       }},
      {"malformed br_table targets", 4,
       [](ModuleBuilder &, FuncBuilder &F) {
         F.localGet(0);
         F.op(O::BrTable);
         F.u32(1);
         overlongLeb(F);
       }},
      {"br_table default depth out of range", 5,
       [](ModuleBuilder &, FuncBuilder &F) {
         F.localGet(0);
         F.brTable({}, 5);
       }},
      {"br_table target depth out of range", 6,
       [](ModuleBuilder &, FuncBuilder &F) {
         F.localGet(0);
         F.brTable({5}, 0);
       }},
      {"br_table labels have inconsistent types", 8,
       [](ModuleBuilder &, FuncBuilder &F) {
         F.block(BlockType::oneResult(V::I32));
         F.localGet(0);
         F.brTable({0}, 1);
         F.end();
         F.drop();
       }},
      {"call index out of range", 2,
       [](ModuleBuilder &, FuncBuilder &F) { F.call(9); }},
      {"call_indirect type index out of range", 5,
       [](ModuleBuilder &MB, FuncBuilder &F) {
         MB.addTable(1);
         F.localGet(0);
         F.callIndirect(9);
       }},
      {"call_indirect table index out of range", 5,
       [](ModuleBuilder &, FuncBuilder &F) {
         F.localGet(0);
         F.callIndirect(0);
       }},
      {"call_indirect table is not funcref", 5,
       [](ModuleBuilder &MB, FuncBuilder &F) {
         MB.addTable(1, std::nullopt, V::ExternRef);
         F.localGet(0);
         F.callIndirect(0);
       }},
      {"select operands disagree: f64 vs i32", 14,
       [](ModuleBuilder &, FuncBuilder &F) {
         F.i32Const(1);
         F.f64Const(2.0);
         F.localGet(0);
         F.select();
       }},
      {"untyped select on reference type", 7,
       [](ModuleBuilder &, FuncBuilder &F) {
         F.refNull(V::FuncRef);
         F.refNull(V::FuncRef);
         F.localGet(0);
         F.select();
       }},
      {"select_t requires exactly one type", 2,
       [](ModuleBuilder &, FuncBuilder &F) {
         F.op(O::SelectT);
         F.u32(2);
         F.byte(0x7F);
         F.byte(0x7F);
       }},
      {"malformed select_t type", 3,
       [](ModuleBuilder &, FuncBuilder &F) {
         F.op(O::SelectT);
         F.u32(1);
         F.byte(0x7B);
       }},
      {"local index out of range", 2,
       [](ModuleBuilder &, FuncBuilder &F) { F.localGet(5); }},
      {"global index out of range", 2,
       [](ModuleBuilder &, FuncBuilder &F) { F.globalGet(3); }},
      {"global.set of immutable global 0", 4,
       [](ModuleBuilder &MB, FuncBuilder &F) {
         MB.addGlobal(V::I32, false, ModuleBuilder::constInit(V::I32, 1));
         F.i32Const(1);
         F.globalSet(0);
       }},
      {"malformed i32 constant", 1,
       [](ModuleBuilder &, FuncBuilder &F) {
         F.op(O::I32Const);
         overlongLeb(F);
       }},
      {"malformed i64 constant", 1,
       [](ModuleBuilder &, FuncBuilder &F) {
         F.op(O::I64Const);
         for (int I = 0; I < 10; ++I)
           F.byte(0x80);
         F.byte(0x00);
       }},
      {"malformed f32 constant", 1,
       [](ModuleBuilder &, FuncBuilder &F) {
         F.op(O::F32Const);
         F.byte(0);
         F.byte(0);
       }},
      {"malformed f64 constant", 1,
       [](ModuleBuilder &, FuncBuilder &F) {
         F.op(O::F64Const);
         F.byte(0);
         F.byte(0);
       }},
      {"ref.null requires a reference type", 2,
       [](ModuleBuilder &, FuncBuilder &F) { F.refNull(V::I32); }},
      {"ref.is_null on non-reference", 3,
       [](ModuleBuilder &, FuncBuilder &F) {
         F.localGet(0);
         F.refIsNull();
       }},
      {"ref.func index out of range", 2,
       [](ModuleBuilder &, FuncBuilder &F) { F.refFunc(9); }},
      {"function body not terminated by end", 3,
       [](ModuleBuilder &, FuncBuilder &F) { F.block(); }},
      {"malformed opcode", 3,
       [](ModuleBuilder &, FuncBuilder &F) {
         F.byte(0xFC);
         F.u32(256);
       }},
  };
  return Cases;
}

TEST(Validator, AcceptsSimpleAdd) {
  ModuleBuilder MB;
  uint32_t T = MB.addType({ValType::I32, ValType::I32}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(T);
  F.localGet(0);
  F.localGet(1);
  F.op(Opcode::I32Add);
  auto M = buildAndValidate(MB);
  ASSERT_NE(M, nullptr);
  EXPECT_EQ(M->Funcs[0].MaxStack, 2u);
  EXPECT_TRUE(M->Funcs[0].Table.Entries.empty());
}

TEST(Validator, RejectsTypeMismatch) {
  ModuleBuilder MB;
  uint32_t T = MB.addType({ValType::I32}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(T);
  F.localGet(0);
  F.op(Opcode::F64Sqrt); // f64 op on i32 value.
  expectInvalid(MB);
}

TEST(Validator, RejectsStackUnderflow) {
  ModuleBuilder MB;
  uint32_t T = MB.addType({}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(T);
  F.op(Opcode::I32Add); // Nothing to pop.
  expectInvalid(MB);
}

TEST(Validator, RejectsMissingResult) {
  ModuleBuilder MB;
  uint32_t T = MB.addType({}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(T);
  F.op(Opcode::Nop);
  expectInvalid(MB);
}

TEST(Validator, RejectsSuperfluousResult) {
  ModuleBuilder MB;
  uint32_t T = MB.addType({}, {});
  FuncBuilder &F = MB.addFunc(T);
  F.i32Const(1);
  expectInvalid(MB);
}

TEST(Validator, AcceptsBlockWithResult) {
  ModuleBuilder MB;
  uint32_t T = MB.addType({}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(T);
  F.block(BlockType::oneResult(ValType::I32));
  F.i32Const(7);
  F.end();
  auto M = buildAndValidate(MB);
  ASSERT_NE(M, nullptr);
}

TEST(Validator, BrIfSideTableEntry) {
  ModuleBuilder MB;
  uint32_t T = MB.addType({ValType::I32}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(T);
  F.block(BlockType::oneResult(ValType::I32));
  F.i32Const(1);
  F.localGet(0);
  F.brIf(0);
  F.drop();
  F.i32Const(2);
  F.end();
  auto M = buildAndValidate(MB);
  ASSERT_NE(M, nullptr);
  const SideTable &ST = M->Funcs[0].Table;
  ASSERT_EQ(ST.Entries.size(), 1u);
  const SideTableEntry &E = ST.Entries[0];
  EXPECT_EQ(E.ValCount, 1u);
  EXPECT_EQ(E.TargetHeight, 0u);
  // Target is just past the function's inner `end`, i.e. one byte before
  // the function-terminating end.
  EXPECT_EQ(E.TargetIp, M->Funcs[0].BodyEnd - 1);
  EXPECT_EQ(E.TargetStp, 1u);
}

TEST(Validator, LoopBranchTargetsHeader) {
  ModuleBuilder MB;
  uint32_t T = MB.addType({ValType::I32}, {});
  FuncBuilder &F = MB.addFunc(T);
  F.loop();
  F.localGet(0);
  F.brIf(0);
  F.end();
  auto M = buildAndValidate(MB);
  ASSERT_NE(M, nullptr);
  const SideTable &ST = M->Funcs[0].Table;
  ASSERT_EQ(ST.Entries.size(), 1u);
  // Loop target: first body instruction = BodyStart + 2 (loop opcode +
  // blocktype byte), with STP 0 (no entries precede the body).
  EXPECT_EQ(ST.Entries[0].TargetIp, M->Funcs[0].BodyStart + 2);
  EXPECT_EQ(ST.Entries[0].TargetStp, 0u);
  EXPECT_EQ(ST.Entries[0].ValCount, 0u);
}

TEST(Validator, IfElseSideTable) {
  ModuleBuilder MB;
  uint32_t T = MB.addType({ValType::I32}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(T);
  F.localGet(0);
  F.ifOp(BlockType::oneResult(ValType::I32));
  F.i32Const(1);
  F.elseOp();
  F.i32Const(2);
  F.end();
  auto M = buildAndValidate(MB);
  ASSERT_NE(M, nullptr);
  const SideTable &ST = M->Funcs[0].Table;
  // Entry 0: if false edge -> after `else`. Entry 1: else skip -> after end.
  ASSERT_EQ(ST.Entries.size(), 2u);
  EXPECT_LT(ST.Entries[0].TargetIp, ST.Entries[1].TargetIp);
  EXPECT_EQ(ST.Entries[0].TargetStp, 2u);
  EXPECT_EQ(ST.Entries[1].TargetStp, 2u);
  EXPECT_EQ(ST.Entries[1].ValCount, 1u);
}

TEST(Validator, IfWithoutElseRequiresBalancedTypes) {
  ModuleBuilder MB;
  uint32_t T = MB.addType({ValType::I32}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(T);
  F.localGet(0);
  F.ifOp(BlockType::oneResult(ValType::I32)); // [] -> [i32] but no else.
  F.i32Const(1);
  F.end();
  expectInvalid(MB);
}

TEST(Validator, BrTableEntries) {
  ModuleBuilder MB;
  uint32_t T = MB.addType({ValType::I32}, {});
  FuncBuilder &F = MB.addFunc(T);
  F.block();
  F.block();
  F.localGet(0);
  F.brTable({0, 1}, 1);
  F.end();
  F.end();
  auto M = buildAndValidate(MB);
  ASSERT_NE(M, nullptr);
  // Three entries: target 0, target 1, default(1).
  ASSERT_EQ(M->Funcs[0].Table.Entries.size(), 3u);
  const auto &E = M->Funcs[0].Table.Entries;
  EXPECT_LT(E[0].TargetIp, E[1].TargetIp);
  EXPECT_EQ(E[1].TargetIp, E[2].TargetIp);
}

TEST(Validator, BrTableInconsistentArity) {
  ModuleBuilder MB;
  uint32_t T = MB.addType({ValType::I32}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(T);
  F.block(BlockType::oneResult(ValType::I32));
  F.block();
  F.localGet(0);
  F.brTable({1}, 0); // Outer expects i32, inner expects nothing.
  F.end();
  F.i32Const(0);
  F.end();
  expectInvalid(MB);
}

TEST(Validator, UnreachableMakesStackPolymorphic) {
  ModuleBuilder MB;
  uint32_t T = MB.addType({}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(T);
  F.unreachable();
  F.op(Opcode::I32Add); // Pops two polymorphic values.
  auto M = buildAndValidate(MB);
  ASSERT_NE(M, nullptr);
}

TEST(Validator, DeadLocalTeeRepushesItsOperand) {
  // In unreachable code local.tee pops a polymorphic value and pushes the
  // local's type, so the dead run still counts toward MaxStack (and hence
  // toward frameSlots(), which sizes every compiler's frame).
  ModuleBuilder MB;
  uint32_t T = MB.addType({ValType::I32}, {});
  FuncBuilder &F = MB.addFunc(T);
  F.unreachable();
  F.localTee(0);
  F.drop();
  auto M = buildAndValidate(MB);
  ASSERT_NE(M, nullptr);
  EXPECT_EQ(M->Funcs[0].MaxStack, 1u);
}

TEST(Validator, DeadBrIfRepushesLabelValues) {
  // br_if pops its label values and pushes them back: in unreachable code
  // that materializes them, and the next op sees the label's types.
  ModuleBuilder MB;
  uint32_t T = MB.addType({}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(T);
  F.block(BlockType::oneResult(ValType::I64));
  F.unreachable();
  F.i32Const(0);
  F.brIf(0);
  F.op(Opcode::I32WrapI64);
  F.drop();
  F.i64Const(1);
  F.end();
  F.op(Opcode::I32WrapI64);
  auto M = buildAndValidate(MB);
  ASSERT_NE(M, nullptr);
  EXPECT_EQ(M->Funcs[0].MaxStack, 1u);

  // The re-pushed value has the label type, not a polymorphic one.
  ModuleBuilder Bad;
  uint32_t BT = Bad.addType({}, {});
  FuncBuilder &G = Bad.addFunc(BT);
  G.block(BlockType::oneResult(ValType::I64));
  G.unreachable();
  G.i32Const(0);
  G.brIf(0);
  G.op(Opcode::F32Neg); // Pops an i64.
  G.end();
  G.drop();
  expectInvalid(Bad);
}

TEST(Validator, BranchDepthOutOfRange) {
  ModuleBuilder MB;
  uint32_t T = MB.addType({}, {});
  FuncBuilder &F = MB.addFunc(T);
  F.block();
  F.br(5);
  F.end();
  expectInvalid(MB);
}

TEST(Validator, LocalIndexOutOfRange) {
  ModuleBuilder MB;
  uint32_t T = MB.addType({ValType::I32}, {});
  FuncBuilder &F = MB.addFunc(T);
  F.localGet(3);
  F.drop();
  expectInvalid(MB);
}

TEST(Validator, GlobalSetImmutable) {
  ModuleBuilder MB;
  uint32_t G = MB.addGlobal(ValType::I32, false,
                            ModuleBuilder::constInit(ValType::I32, 1));
  uint32_t T = MB.addType({}, {});
  FuncBuilder &F = MB.addFunc(T);
  F.i32Const(2);
  F.globalSet(G);
  expectInvalid(MB);
}

TEST(Validator, MemoryOpsRequireMemory) {
  ModuleBuilder MB;
  uint32_t T = MB.addType({}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(T);
  F.i32Const(0);
  F.load(Opcode::I32Load, 0, 2);
  expectInvalid(MB);
}

TEST(Validator, AlignmentTooLarge) {
  ModuleBuilder MB;
  MB.addMemory(1);
  uint32_t T = MB.addType({}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(T);
  F.i32Const(0);
  F.load(Opcode::I32Load, 0, 3); // 2**3 = 8 > 4.
  expectInvalid(MB);
}

TEST(Validator, MultiValueBlock) {
  ModuleBuilder MB;
  uint32_t Pair = MB.addType({}, {ValType::I32, ValType::I32});
  uint32_t T = MB.addType({}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(T);
  F.block(BlockType::funcType(Pair));
  F.i32Const(3);
  F.i32Const(4);
  F.end();
  F.op(Opcode::I32Add);
  auto M = buildAndValidate(MB);
  ASSERT_NE(M, nullptr);
  EXPECT_EQ(M->Funcs[0].MaxStack, 2u);
}

TEST(Validator, MultiValueBlockParams) {
  ModuleBuilder MB;
  uint32_t BT = MB.addType({ValType::I32, ValType::I32}, {ValType::I32});
  uint32_t T = MB.addType({}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(T);
  F.i32Const(10);
  F.i32Const(20);
  F.block(BlockType::funcType(BT));
  F.op(Opcode::I32Add);
  F.end();
  auto M = buildAndValidate(MB);
  ASSERT_NE(M, nullptr);
}

TEST(Validator, SelectRequiresMatchingTypes) {
  ModuleBuilder MB;
  uint32_t T = MB.addType({ValType::I32}, {});
  FuncBuilder &F = MB.addFunc(T);
  F.i32Const(1);
  F.f64Const(2.0);
  F.localGet(0);
  F.select();
  F.drop();
  expectInvalid(MB);
}

TEST(Validator, CallTypeChecking) {
  ModuleBuilder MB;
  uint32_t Callee = MB.addType({ValType::I64}, {ValType::I64});
  uint32_t T = MB.addType({}, {});
  FuncBuilder &C = MB.addFunc(Callee);
  C.localGet(0);
  FuncBuilder &F = MB.addFunc(T);
  F.i32Const(1); // Wrong: callee wants i64.
  F.call(MB.funcIndex(C));
  F.drop();
  expectInvalid(MB);
}

TEST(Validator, CallIndirectRequiresTable) {
  ModuleBuilder MB;
  uint32_t T = MB.addType({}, {});
  FuncBuilder &F = MB.addFunc(T);
  F.i32Const(0);
  F.callIndirect(T);
  expectInvalid(MB);
}

TEST(Validator, ElseWithoutIf) {
  ModuleBuilder MB;
  uint32_t T = MB.addType({}, {});
  FuncBuilder &F = MB.addFunc(T);
  F.block();
  F.elseOp();
  F.end();
  expectInvalid(MB);
}

TEST(Validator, NestedControlDeep) {
  ModuleBuilder MB;
  uint32_t T = MB.addType({ValType::I32}, {});
  FuncBuilder &F = MB.addFunc(T);
  const int Depth = 64;
  for (int I = 0; I < Depth; ++I)
    F.block();
  F.localGet(0);
  F.brIf(Depth - 1);
  for (int I = 0; I < Depth; ++I)
    F.end();
  auto M = buildAndValidate(MB);
  ASSERT_NE(M, nullptr);
  ASSERT_EQ(M->Funcs[0].Table.Entries.size(), 1u);
  // Branch to the outermost block lands just inside the last `end` run.
  EXPECT_EQ(M->Funcs[0].Table.Entries[0].TargetIp, M->Funcs[0].BodyEnd - 1);
}

TEST(Validator, StartFunctionSignature) {
  ModuleBuilder MB;
  uint32_t T = MB.addType({ValType::I32}, {});
  FuncBuilder &F = MB.addFunc(T);
  F.op(Opcode::Nop);
  MB.setStart(MB.funcIndex(F));
  expectInvalid(MB);
}

TEST(Validator, BrTableCountBeyondBodyIsRejectedUpFront) {
  // A count the rest of the body cannot hold is rejected right after the
  // count is read, before anything is allocated or looped over it (2^32-1
  // targets would otherwise ask for 16 GiB).
  for (uint32_t N : {0xFFFFFFFFu, 100000000u}) {
    ModuleBuilder MB;
    uint32_t T = MB.addType({}, {});
    FuncBuilder &F = MB.addFunc(T);
    F.block();
    F.i32Const(0);
    F.op(Opcode::BrTable);
    F.u32(N);
    WasmError Err;
    std::unique_ptr<Module> M = decodeModule(MB.build(), &Err);
    ASSERT_TRUE(M != nullptr) << Err.Message;
    EXPECT_FALSE(validateModule(*M, &Err)) << N;
    EXPECT_EQ(Err.Message, "func 0: malformed br_table targets") << N;
    // Past block (2 bytes), i32.const (2), br_table and its count.
    uint32_t CountBytes = N > (1u << 28) ? 5 : 4;
    EXPECT_EQ(Err.Offset, M->Funcs[0].BodyStart + 5 + CountBytes) << N;
  }
}

TEST(Validator, AlignmentExponentBeyondShiftWidth) {
  // 2**32 and up exceed every natural alignment; the check must not
  // shift a 32-bit one by the raw exponent.
  for (uint32_t Align : {32u, 33u, 63u}) {
    ModuleBuilder MB;
    MB.addMemory(1);
    uint32_t T = MB.addType({}, {ValType::I32});
    FuncBuilder &F = MB.addFunc(T);
    F.i32Const(0);
    F.load(Opcode::I32Load, 0, Align);
    WasmError Err;
    std::unique_ptr<Module> M = decodeModule(MB.build(), &Err);
    ASSERT_TRUE(M != nullptr) << Err.Message;
    EXPECT_FALSE(validateModule(*M, &Err)) << Align;
    EXPECT_EQ(Err.Message,
              "func 0: alignment 2**" + std::to_string(Align) +
                  " exceeds natural alignment 4 of i32.load");
  }
}

// Every diagnostic a body can draw, with its exact text and offset. Two
// messages have no case: "bad block type" and "unhandled opcode" guard
// switch defaults that decoded bytes cannot reach.
TEST(Validator, DiagnosticsAreExact) {
  for (const DiagCase &C : diagCases()) {
    ModuleBuilder MB;
    uint32_t T = MB.addType({ValType::I32}, {});
    FuncBuilder &F = MB.addFunc(T);
    C.Body(MB, F);
    WasmError Err;
    std::unique_ptr<Module> M = decodeModule(MB.build(), &Err);
    ASSERT_TRUE(M != nullptr) << C.Message << ": decode: " << Err.Message;
    EXPECT_FALSE(validateModule(*M, &Err)) << C.Message;
    EXPECT_EQ(Err.Message, std::string("func 0: ") + C.Message);
    EXPECT_EQ(Err.Offset, M->Funcs[0].BodyStart + C.Offset) << C.Message;
  }
}

} // namespace
