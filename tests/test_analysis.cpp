//===- tests/test_analysis.cpp - whole-module static analysis tests --------===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Two halves, mirroring the analyzer's contract:
///
///  - Soundness: the inferred bounds are facts about *every* execution, so
///    each hand-built module and every regression-corpus module is executed
///    on two tiers (in-place interpreter and single-pass JIT) and the
///    observed call depth / memory pages are checked against the static
///    bounds. (The differential fuzzer asserts the same invariants across
///    all eight tiers on every seed; these tests pin the named cases.)
///  - Precision: hand-built negatives where each lint kind fires at the
///    expected function and bytecode offset, the admission precheck rejects
///    exactly the provably-doomed jobs, and the analyzer facts tighten the
///    artifact verifier's frame-size check.
///
//===----------------------------------------------------------------------===//

#include "analysis/analysis.h"

#include "engine/engine.h"
#include "engine/registry.h"
#include "service/batch.h"
#include "spc/compiler.h"
#include "suites/suites.h"
#include "testutil.h"
#include "verify/verifier.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

using namespace wisp;

namespace {

ModuleAnalysis analyze(const Module &M) { return analyzeModule(M); }

/// Loads a module into a fresh engine on \p Tier, invokes \p Export with
/// zero-valued arguments, and returns the observed high-water call depth
/// plus the final memory pages through the out-params.
TrapReason runOnTier(const std::vector<uint8_t> &Bytes, const char *Tier,
                     const std::string &Export, uint32_t *HighWater,
                     uint32_t *Pages) {
  EngineConfig Cfg = configByName(tierToConfigName(Tier));
  Engine E(Cfg);
  installGcHostFuncs(E);
  WasmError Err;
  std::unique_ptr<LoadedModule> LM = E.load(Bytes, &Err);
  EXPECT_NE(LM, nullptr) << Err.Message;
  if (!LM)
    return TrapReason::HostError;
  FuncInstance *F = LM->Inst->findExportedFunc(Export);
  EXPECT_NE(F, nullptr) << "no export " << Export;
  if (!F)
    return TrapReason::HostError;
  std::vector<Value> Args;
  for (ValType T : F->Type->Params)
    Args.push_back(Value{0, T});
  std::vector<Value> Results;
  TrapReason Trap = E.invoke(*LM, Export, Args, &Results);
  *HighWater = E.thread().HighWaterFrames;
  *Pages = LM->Inst->Memory.pages();
  return Trap;
}

/// a() -> b() -> c(): the canonical bounded call chain (depth 3).
std::vector<uint8_t> chainModule() {
  ModuleBuilder MB;
  uint32_t T = MB.addType({}, {ValType::I32});
  FuncBuilder &C = MB.addFunc(T);
  C.i32Const(7);
  FuncBuilder &B = MB.addFunc(T);
  B.call(MB.funcIndex(C));
  FuncBuilder &A = MB.addFunc(T);
  A.call(MB.funcIndex(B));
  MB.exportFunc("run", MB.funcIndex(A));
  return MB.build();
}

/// run() calls itself unconditionally: MustDepth is infinite, every finite
/// call-depth cap is provably exhausted.
std::vector<uint8_t> mustRecurseModule() {
  ModuleBuilder MB;
  uint32_t T = MB.addType({}, {});
  FuncBuilder &F = MB.addFunc(T);
  F.call(MB.funcIndex(F));
  MB.exportFunc("run", MB.funcIndex(F));
  return MB.build();
}

} // namespace

// --- Bounds: hand-built modules, checked on two executing tiers ----------

TEST(Analysis, NopModuleFacts) {
  std::unique_ptr<Module> M = buildAndValidate(nopModule());
  ASSERT_TRUE(M);
  ModuleAnalysis A = analyze(*M);
  EXPECT_TRUE(A.RecursionFree);
  EXPECT_TRUE(A.LoopFree);
  EXPECT_TRUE(A.DepthBounded);
  EXPECT_EQ(A.DepthBound, 1u);
  EXPECT_FALSE(A.HasMemory);
  EXPECT_TRUE(A.PagesBounded);
  EXPECT_TRUE(A.clean());
}

TEST(Analysis, CallChainDepthBoundIsTightOnBothTiers) {
  std::vector<uint8_t> Bytes = chainModule();
  std::unique_ptr<Module> M = buildAndValidate(Bytes);
  ASSERT_TRUE(M);
  ModuleAnalysis A = analyze(*M);
  ASSERT_TRUE(A.DepthBounded);
  EXPECT_EQ(A.DepthBound, 3u);
  // The chain is unconditional, so the must-reach depth equals the bound.
  EXPECT_EQ(A.Funcs[2].MustDepth, 3u);
  for (const char *Tier : {"int", "spc"}) {
    uint32_t HighWater = 0, Pages = 0;
    TrapReason Trap = runOnTier(Bytes, Tier, "run", &HighWater, &Pages);
    EXPECT_EQ(Trap, TrapReason::None) << Tier;
    EXPECT_LE(HighWater, A.DepthBound) << Tier;
    EXPECT_GE(HighWater, A.Funcs[2].MustDepth) << Tier;
  }
}

TEST(Analysis, PageBoundHoldsUnderGrowth) {
  // min 1, max 3, run() grows by 2: the bound is the declared max and the
  // execution saturates it exactly.
  ModuleBuilder MB;
  MB.addMemory(1, 3);
  uint32_t T = MB.addType({}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(T);
  F.i32Const(2);
  F.memoryGrow();
  MB.exportFunc("run", MB.funcIndex(F));
  std::vector<uint8_t> Bytes = MB.build();
  std::unique_ptr<Module> M = buildAndValidate(Bytes);
  ASSERT_TRUE(M);
  ModuleAnalysis A = analyze(*M);
  EXPECT_TRUE(A.HasMemory);
  EXPECT_TRUE(A.GrowsMemory);
  ASSERT_TRUE(A.PagesBounded);
  EXPECT_EQ(A.PageBound, 3u);
  for (const char *Tier : {"int", "spc"}) {
    uint32_t HighWater = 0, Pages = 0;
    TrapReason Trap = runOnTier(Bytes, Tier, "run", &HighWater, &Pages);
    EXPECT_EQ(Trap, TrapReason::None) << Tier;
    EXPECT_EQ(Pages, 3u) << Tier;
    EXPECT_LE(Pages, A.PageBound) << Tier;
  }
}

TEST(Analysis, GrowingMemoryWithoutMaxIsUnbounded) {
  ModuleBuilder MB;
  MB.addMemory(1);
  uint32_t T = MB.addType({}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(T);
  F.i32Const(1);
  F.memoryGrow();
  MB.exportFunc("run", MB.funcIndex(F));
  std::unique_ptr<Module> M = buildAndValidate(MB);
  ASSERT_TRUE(M);
  ModuleAnalysis A = analyze(*M);
  EXPECT_TRUE(A.GrowsMemory);
  EXPECT_FALSE(A.PagesBounded);
}

TEST(Analysis, GrowOnlyInUnreachableFuncKeepsMinBound) {
  // memory.grow exists but only in a function no root reaches: the page
  // bound stays at the declared minimum (and the dead grower is linted).
  ModuleBuilder MB;
  MB.addMemory(2);
  uint32_t T = MB.addType({}, {ValType::I32});
  FuncBuilder &Dead = MB.addFunc(T);
  Dead.i32Const(1);
  Dead.memoryGrow();
  FuncBuilder &Live = MB.addFunc(T);
  Live.i32Const(5);
  MB.exportFunc("run", MB.funcIndex(Live));
  std::unique_ptr<Module> M = buildAndValidate(MB);
  ASSERT_TRUE(M);
  ModuleAnalysis A = analyze(*M);
  EXPECT_FALSE(A.GrowsMemory);
  ASSERT_TRUE(A.PagesBounded);
  EXPECT_EQ(A.PageBound, 2u);
}

// --- Lints: each kind fires at the expected function and offset ----------

TEST(Analysis, UnreachableFunctionLint) {
  ModuleBuilder MB;
  uint32_t T = MB.addType({}, {ValType::I32});
  FuncBuilder &Dead = MB.addFunc(T);
  Dead.i32Const(1);
  FuncBuilder &Live = MB.addFunc(T);
  Live.i32Const(2);
  MB.exportFunc("run", MB.funcIndex(Live));
  std::unique_ptr<Module> M = buildAndValidate(MB);
  ASSERT_TRUE(M);
  ModuleAnalysis A = analyze(*M);
  EXPECT_FALSE(A.Funcs[0].Reachable);
  EXPECT_TRUE(A.Funcs[1].Reachable);
  ASSERT_EQ(A.Lints.size(), 1u);
  EXPECT_EQ(A.Lints[0].K, LintFinding::UnreachableFunc);
  EXPECT_EQ(A.Lints[0].FuncIndex, 0u);
  EXPECT_EQ(A.Lints[0].Ip, M->Funcs[0].BodyStart);
}

TEST(Analysis, TableReferencedFunctionIsReachable) {
  // A function only referenced from an element segment escapes through
  // call_indirect, so it must NOT be linted as unreachable.
  ModuleBuilder MB;
  MB.addTable(1);
  uint32_t T = MB.addType({}, {ValType::I32});
  FuncBuilder &Tabled = MB.addFunc(T);
  Tabled.i32Const(3);
  FuncBuilder &Live = MB.addFunc(T);
  Live.i32Const(0);
  Live.callIndirect(T);
  MB.addElem(0, {MB.funcIndex(Tabled)});
  MB.exportFunc("run", MB.funcIndex(Live));
  std::unique_ptr<Module> M = buildAndValidate(MB);
  ASSERT_TRUE(M);
  ModuleAnalysis A = analyze(*M);
  EXPECT_TRUE(A.Funcs[0].Reachable);
  EXPECT_TRUE(A.clean());
}

TEST(Analysis, ConstDivByZeroLintAtExactOffset) {
  ModuleBuilder MB;
  uint32_t T = MB.addType({}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(T);
  F.i32Const(1); // 2 bytes: 0x41 0x01
  F.i32Const(0); // 2 bytes: 0x41 0x00
  F.op(Opcode::I32DivU);
  MB.exportFunc("run", MB.funcIndex(F));
  std::vector<uint8_t> Bytes = MB.build();
  std::unique_ptr<Module> M = buildAndValidate(Bytes);
  ASSERT_TRUE(M);
  ModuleAnalysis A = analyze(*M);
  ASSERT_EQ(A.Lints.size(), 1u);
  EXPECT_EQ(A.Lints[0].K, LintFinding::GuaranteedTrap);
  EXPECT_EQ(A.Lints[0].FuncIndex, 0u);
  EXPECT_EQ(A.Lints[0].Ip, M->Funcs[0].BodyStart + 4);
  // The guarantee is real: the site traps on both executing tiers.
  for (const char *Tier : {"int", "spc"}) {
    uint32_t HighWater = 0, Pages = 0;
    EXPECT_EQ(runOnTier(Bytes, Tier, "run", &HighWater, &Pages),
              TrapReason::DivByZero)
        << Tier;
  }
}

TEST(Analysis, BrIfKeepsLabelOperandConstants) {
  // br_if's label values stay on the stack when the branch is not taken,
  // with their constants: the division below always divides by 0.
  ModuleBuilder MB;
  uint32_t T = MB.addType({ValType::I32}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(T);
  F.block(BlockType::oneResult(ValType::I32)); // 2 bytes
  F.i32Const(7);                               // 2 bytes
  F.i32Const(0);                               // 2 bytes
  F.localGet(0);                               // 2 bytes
  F.brIf(0);                                   // 2 bytes
  F.op(Opcode::I32DivU);                       // offset 10
  F.end();
  MB.exportFunc("run", MB.funcIndex(F));
  std::unique_ptr<Module> M = buildAndValidate(MB);
  ASSERT_TRUE(M);
  ModuleAnalysis A = analyze(*M);
  ASSERT_EQ(A.Lints.size(), 1u);
  EXPECT_EQ(A.Lints[0].K, LintFinding::GuaranteedTrap);
  EXPECT_EQ(A.Lints[0].Ip, M->Funcs[0].BodyStart + 10);
}

TEST(Analysis, LocalTeeKeepsItsOperandConstant) {
  ModuleBuilder MB;
  uint32_t T = MB.addType({ValType::I32}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(T);
  F.i32Const(7);         // 2 bytes
  F.i32Const(0);         // 2 bytes
  F.localTee(0);         // 2 bytes
  F.op(Opcode::I32RemU); // offset 6
  MB.exportFunc("run", MB.funcIndex(F));
  std::unique_ptr<Module> M = buildAndValidate(MB);
  ASSERT_TRUE(M);
  ModuleAnalysis A = analyze(*M);
  ASSERT_EQ(A.Lints.size(), 1u);
  EXPECT_EQ(A.Lints[0].Ip, M->Funcs[0].BodyStart + 6);
}

TEST(Analysis, ElseArmParamsAreNotThenArmConstants) {
  // The else arm starts from the if's params, not from whatever constant
  // the then arm left in their slots: f(0) loads from address 0 and does
  // not trap, so no guaranteed-trap lint may fire.
  ModuleBuilder MB;
  MB.addMemory(1, 1);
  uint32_t T = MB.addType({ValType::I32}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(T);
  F.localGet(0);
  F.localGet(0);
  F.ifOp(BlockType::funcType(T));
  F.drop();
  F.i32Const(65536);
  F.elseOp();
  F.load(Opcode::I32Load, 0, 2);
  F.end();
  MB.exportFunc("run", MB.funcIndex(F));
  std::vector<uint8_t> Bytes = MB.build();
  std::unique_ptr<Module> M = buildAndValidate(Bytes);
  ASSERT_TRUE(M);
  ModuleAnalysis A = analyze(*M);
  EXPECT_TRUE(A.clean()) << (A.Lints.empty() ? "" : A.Lints[0].Detail);
  for (const char *Tier : {"int", "spc"}) {
    uint32_t HighWater = 0, Pages = 0;
    EXPECT_EQ(runOnTier(Bytes, Tier, "run", &HighWater, &Pages),
              TrapReason::None)
        << Tier;
  }
}

TEST(Analysis, ConstOobLoadLintAtExactOffset) {
  // max = 1 page, constant address one past the last mappable byte.
  ModuleBuilder MB;
  MB.addMemory(1, 1);
  uint32_t T = MB.addType({}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(T);
  F.i32Const(65536); // 4 bytes: 0x41 0x80 0x80 0x04
  F.load(Opcode::I32Load, /*Offset=*/0, /*AlignLog2=*/2);
  MB.exportFunc("run", MB.funcIndex(F));
  std::vector<uint8_t> Bytes = MB.build();
  std::unique_ptr<Module> M = buildAndValidate(Bytes);
  ASSERT_TRUE(M);
  ModuleAnalysis A = analyze(*M);
  ASSERT_EQ(A.Lints.size(), 1u);
  EXPECT_EQ(A.Lints[0].K, LintFinding::GuaranteedTrap);
  EXPECT_EQ(A.Lints[0].FuncIndex, 0u);
  EXPECT_EQ(A.Lints[0].Ip, M->Funcs[0].BodyStart + 4);
  for (const char *Tier : {"int", "spc"}) {
    uint32_t HighWater = 0, Pages = 0;
    EXPECT_EQ(runOnTier(Bytes, Tier, "run", &HighWater, &Pages),
              TrapReason::MemOutOfBounds)
        << Tier;
  }
}

TEST(Analysis, ConstLoadWithinGrowableMemoryIsNotLinted) {
  // No declared max: the same address is reachable after a grow, so the
  // analyzer must stay silent (a trap here is possible, not guaranteed).
  ModuleBuilder MB;
  MB.addMemory(1);
  uint32_t T = MB.addType({}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(T);
  F.i32Const(65536);
  F.load(Opcode::I32Load, 0, 2);
  MB.exportFunc("run", MB.funcIndex(F));
  std::unique_ptr<Module> M = buildAndValidate(MB);
  ASSERT_TRUE(M);
  EXPECT_TRUE(analyze(*M).clean());
}

TEST(Analysis, DeadBrTableCasesUnderConstantSelector) {
  // Selector 1 of a 3-case table: cases 0 and 2 can never be picked (the
  // default remains the fall-through for an in-range selector's siblings).
  ModuleBuilder MB;
  uint32_t T = MB.addType({}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(T);
  F.block();
  F.block();
  F.block();
  F.i32Const(1);
  F.brTable({0, 1, 2}, 0);
  F.end();
  F.end();
  F.end();
  F.i32Const(9);
  MB.exportFunc("run", MB.funcIndex(F));
  std::unique_ptr<Module> M = buildAndValidate(MB);
  ASSERT_TRUE(M);
  ModuleAnalysis A = analyze(*M);
  ASSERT_EQ(A.Lints.size(), 1u);
  EXPECT_EQ(A.Lints[0].K, LintFinding::DeadBrTableCase);
  EXPECT_EQ(A.Lints[0].FuncIndex, 0u);
  EXPECT_NE(A.Lints[0].Detail.find("2"), std::string::npos);
}

// --- Recursion, must-depth and the admission precheck --------------------

TEST(Analysis, UnconditionalRecursionIsProvablyDoomed) {
  std::vector<uint8_t> Bytes = mustRecurseModule();
  std::unique_ptr<Module> M = buildAndValidate(Bytes);
  ASSERT_TRUE(M);
  ModuleAnalysis A = analyze(*M);
  EXPECT_FALSE(A.RecursionFree);
  EXPECT_FALSE(A.DepthBounded);
  EXPECT_TRUE(A.Funcs[0].InRecursiveScc);
  EXPECT_EQ(A.Funcs[0].MustDepth, AnalysisDepthInfinite);
  std::string Reason;
  EXPECT_TRUE(staticBoundsReject(*M, A, "run", /*MaxCallDepth=*/64, 0, 0,
                                 &Reason));
  EXPECT_NE(Reason.find("recurses"), std::string::npos) << Reason;
  // Default caps (engine default depth 4096) reject it too: no finite cap
  // admits an unconditionally-recursive entry point.
  EXPECT_TRUE(staticBoundsReject(*M, A, "run", 0, 0, 0, &Reason));
  // And the prophecy comes true on a real engine.
  for (const char *Tier : {"int", "spc"}) {
    uint32_t HighWater = 0, Pages = 0;
    EXPECT_EQ(runOnTier(Bytes, Tier, "run", &HighWater, &Pages),
              TrapReason::StackOverflow)
        << Tier;
  }
}

TEST(Analysis, BoundedRecursionDepthVsCap) {
  // Conditional recursion: depth-unbounded statically, but MustDepth stays
  // finite (the prefix reaches depth 1 only), so the precheck must admit.
  ModuleBuilder MB;
  uint32_t T = MB.addType({ValType::I32}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(T);
  F.localGet(0);
  F.ifOp();
  F.localGet(0);
  F.i32Const(1);
  F.op(Opcode::I32Sub);
  F.call(MB.funcIndex(F));
  F.op(Opcode::Drop);
  F.end();
  F.localGet(0);
  MB.exportFunc("run", MB.funcIndex(F));
  std::unique_ptr<Module> M = buildAndValidate(MB);
  ASSERT_TRUE(M);
  ModuleAnalysis A = analyze(*M);
  EXPECT_FALSE(A.DepthBounded);
  EXPECT_TRUE(A.Funcs[0].InRecursiveScc);
  EXPECT_EQ(A.Funcs[0].MustDepth, 1u);
  std::string Reason;
  EXPECT_FALSE(staticBoundsReject(*M, A, "run", 64, 0, 0, &Reason));
}

TEST(Analysis, MustDepthOverCapIsRejected) {
  std::vector<uint8_t> Bytes = chainModule();
  std::unique_ptr<Module> M = buildAndValidate(Bytes);
  ASSERT_TRUE(M);
  ModuleAnalysis A = analyze(*M);
  std::string Reason;
  // Cap 2 < must-depth 3: rejected with the depths in the reason.
  EXPECT_TRUE(staticBoundsReject(*M, A, "run", 2, 0, 0, &Reason));
  EXPECT_NE(Reason.find("3"), std::string::npos) << Reason;
  // Cap 3 admits.
  EXPECT_FALSE(staticBoundsReject(*M, A, "run", 3, 0, 0, &Reason));
  // A missing export is the worker's lookup error, not a static reject.
  EXPECT_FALSE(staticBoundsReject(*M, A, "nope", 2, 0, 0, &Reason));
}

TEST(Analysis, DeclaredMinimaOverCapsAreRejected) {
  ModuleBuilder MB;
  MB.addMemory(10);
  MB.addTable(8);
  uint32_t T = MB.addType({}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(T);
  F.i32Const(1);
  MB.exportFunc("run", MB.funcIndex(F));
  std::unique_ptr<Module> M = buildAndValidate(MB);
  ASSERT_TRUE(M);
  ModuleAnalysis A = analyze(*M);
  std::string Reason;
  EXPECT_TRUE(staticBoundsReject(*M, A, "run", 0, /*MaxMemoryPages=*/5, 0,
                                 &Reason));
  EXPECT_NE(Reason.find("pages"), std::string::npos) << Reason;
  EXPECT_TRUE(staticBoundsReject(*M, A, "run", 0, 0, /*MaxTableElems=*/4,
                                 &Reason));
  EXPECT_FALSE(staticBoundsReject(*M, A, "run", 0, 10, 8, &Reason));
  EXPECT_FALSE(staticBoundsReject(*M, A, "run", 0, 0, 0, &Reason));
}

// --- Verifier integration: facts tighten the frame-size check ------------

TEST(Analysis, FactsTightenVerifierFrameSize) {
  ModuleBuilder MB;
  uint32_t T = MB.addType({ValType::I32}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(T);
  F.localGet(0);
  F.i32Const(2);
  F.op(Opcode::I32Add);
  MB.exportFunc("run", MB.funcIndex(F));
  std::unique_ptr<Module> M = buildAndValidate(MB);
  ASSERT_TRUE(M);
  const FuncDecl &FD = M->Funcs[0];
  FuncFacts Facts = analyzeFunction(*M, FD);
  EXPECT_EQ(Facts.StackBound, 2u);
  std::unique_ptr<MCode> Code =
      compileFunction(*M, FD, CompilerOptions::allopt());
  ASSERT_TRUE(Code);
  VerifyScope WithFacts = VerifyScope::baseline().withFacts(Facts.StackBound);
  EXPECT_TRUE(verifyMachineCode(*M, FD, *Code, WithFacts).ok());
  // Shrink the reservation below locals + stack bound: still >= the locals
  // alone, so only the facts-tightened scope can catch it.
  Code->FrameSlots = FD.numLocalSlots() + Facts.StackBound - 1;
  bool BaseFrameFinding = false, FactsFrameFinding = false;
  for (const VerifyFinding &Fd :
       verifyMachineCode(*M, FD, *Code, VerifyScope::baseline()).Findings)
    BaseFrameFinding |= Fd.Check == "frame-size";
  for (const VerifyFinding &Fd :
       verifyMachineCode(*M, FD, *Code, WithFacts).Findings)
    FactsFrameFinding |= Fd.Check == "frame-size";
  EXPECT_FALSE(BaseFrameFinding);
  EXPECT_TRUE(FactsFrameFinding);
}

// --- Corpus soundness: bounds hold under execution on two tiers ----------

TEST(Analysis, CorpusBoundsAreSoundOnTwoTiers) {
  std::vector<std::string> Files;
  std::error_code Ec;
  for (const auto &Entry :
       std::filesystem::directory_iterator(WISP_CORPUS_DIR, Ec))
    if (Entry.path().extension() == ".wasm")
      Files.push_back(Entry.path().string());
  std::sort(Files.begin(), Files.end());
  ASSERT_FALSE(Files.empty()) << "no corpus under " WISP_CORPUS_DIR;
  for (const std::string &Path : Files) {
    std::ifstream In(Path, std::ios::binary);
    ASSERT_TRUE(In.good()) << Path;
    std::vector<uint8_t> Bytes((std::istreambuf_iterator<char>(In)),
                               std::istreambuf_iterator<char>());
    std::unique_ptr<Module> M = buildAndValidate(Bytes);
    ASSERT_TRUE(M) << Path;
    ModuleAnalysis A = analyze(*M);
    for (const Export &E : M->Exports) {
      if (E.Kind != ExternKind::Func)
        continue;
      EXPECT_TRUE(A.Funcs[E.Index].Reachable) << Path << " " << E.Name;
      for (const char *Tier : {"int", "spc"}) {
        uint32_t HighWater = 0, Pages = 0;
        TrapReason Trap =
            runOnTier(Bytes, Tier, E.Name, &HighWater, &Pages);
        std::string Where = Path + " " + E.Name + " on " + Tier;
        if (A.DepthBounded) {
          EXPECT_LE(HighWater, A.DepthBound) << Where;
        }
        if (A.PagesBounded) {
          EXPECT_LE(Pages, A.PageBound) << Where;
        }
        if (Trap == TrapReason::None) {
          uint32_t Must = A.Funcs[E.Index].MustDepth;
          ASSERT_NE(Must, AnalysisDepthInfinite) << Where;
          EXPECT_GE(HighWater, Must) << Where;
        }
      }
    }
  }
}

// --- Fig. 7 suites: loaded modules analyze clean -------------------------

TEST(Analysis, SuiteModulesAnalyzeClean) {
  for (const LineItem &I : allSuites(1)) {
    std::unique_ptr<Module> M = buildAndValidate(I.Bytes);
    ASSERT_TRUE(M) << I.Suite << "/" << I.Name;
    ModuleAnalysis A = analyze(*M);
    EXPECT_TRUE(A.clean()) << I.Suite << "/" << I.Name << ": "
                           << (A.Lints.empty() ? "" : A.Lints[0].Detail);
    // Every suite entry point is reachable by construction.
    for (const Export &E : M->Exports) {
      if (E.Kind == ExternKind::Func) {
        EXPECT_TRUE(A.Funcs[E.Index].Reachable)
            << I.Suite << "/" << I.Name << " " << E.Name;
      }
    }
  }
}
