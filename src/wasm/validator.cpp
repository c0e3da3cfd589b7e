//===- wasm/validator.cpp - WebAssembly validation -------------------------===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "wasm/validator.h"

#include "support/format.h"
#include "wasm/bodywalk.h"

using namespace wisp;

namespace {

/// A frame's side-table bookkeeping.
struct SideTableFrame {
  /// Loop only: bytecode offset of the first body instruction and the
  /// side-table position there.
  uint32_t HeaderIp = 0;
  uint32_t HeaderStp = 0;
  /// Side-table entries that target this frame's end label.
  std::vector<uint32_t> PatchList;
  /// If only: the false-edge entry, patched at else (or routed to end).
  uint32_t IfEntry = ~0u;
};

/// Validates one function body and builds its side table: the walker's
/// client that adds typing, diagnostics and the side-table targets.
class FuncValidator
    : public BodyWalker<FuncValidator, ValType, SideTableFrame> {
public:
  FuncValidator(const Module &M, const FuncDecl &F) : BodyWalker(M, F) {}

  uint32_t MaxStack = 0;
  std::vector<SideTableEntry> ST;

private:
  friend BodyWalker;

  void endOp() {
    if (height() > MaxStack)
      MaxStack = height();
  }

  // --- Typing ---
  ValType fresh(ValType T) { return T; }
  ValType bottom() { return ValType::Bottom; }
  ValType relabel(ValType, ValType T) { return T; }
  bool check(ValType T, ValType Expect) {
    if (T != Expect && T != ValType::Bottom)
      return fail("type mismatch: expected %s, found %s",
                  valTypeName(Expect), valTypeName(T));
    return true;
  }
  bool select(ValType A, ValType B, ValType *Out) {
    if (A != B && A != ValType::Bottom && B != ValType::Bottom)
      return fail("select operands disagree: %s vs %s", valTypeName(A),
                  valTypeName(B));
    *Out = A != ValType::Bottom ? A : B;
    if (*Out != ValType::Bottom && isRefType(*Out))
      return fail("untyped select on reference type");
    return true;
  }
  bool refOperand(ValType T) {
    if (T != ValType::Bottom && !isRefType(T))
      return fail("ref.is_null on non-reference");
    return true;
  }
  bool brTableLabel(const Frame &Target, const Frame &Default) {
    if (!std::ranges::equal(Target.labelTypes(), Default.labelTypes()))
      return fail("br_table labels have inconsistent types");
    return true;
  }

  // --- Module-level declarations ---
  bool memory() {
    if (M.Memories.empty())
      return fail("memory instruction without declared memory");
    return true;
  }
  bool simpleOp(Opcode, const OpInfo &Info, const MemArg &A) {
    if (Info.Imm == ImmKind::MemIdx)
      return memory();
    if (Info.Imm != ImmKind::MemArg)
      return true;
    if (!memory())
      return false;
    if (A.Align >= 32 || (1u << A.Align) > Info.MemBytes)
      return fail("alignment 2**%u exceeds natural alignment %u of %s",
                  A.Align, unsigned(Info.MemBytes), Info.Name);
    return true;
  }
  bool callIndirect(uint32_t, uint32_t TableIdx) {
    if (TableIdx >= M.Tables.size())
      return fail("call_indirect table index out of range");
    if (M.Tables[TableIdx].Elem != ValType::FuncRef)
      return fail("call_indirect table is not funcref");
    return true;
  }
  bool global(Opcode Op, uint32_t Idx) {
    if (Op == Opcode::GlobalSet && !M.Globals[Idx].Mutable)
      return fail("global.set of immutable global %u", Idx);
    return true;
  }

  // --- Side table ---
  /// Loop targets resolve immediately; forward targets are patched when
  /// the construct's end is reached.
  void branchEntry(Frame &C) {
    SideTableEntry E;
    E.ValCount = uint32_t(C.labelTypes().size());
    E.TargetHeight = C.Height;
    if (C.Kind == Opcode::Loop) {
      E.TargetIp = C.X.HeaderIp;
      E.TargetStp = C.X.HeaderStp;
    } else {
      C.X.PatchList.push_back(uint32_t(ST.size()));
    }
    ST.push_back(E);
  }
  void enterBlock(Frame &C) {
    if (C.Kind == Opcode::Loop) {
      C.X.HeaderIp = uint32_t(R.pc());
      C.X.HeaderStp = uint32_t(ST.size());
    } else if (C.Kind == Opcode::If) {
      // False edge: carries the params to the frame height.
      C.X.IfEntry = uint32_t(ST.size());
      ST.push_back({0, 0, uint32_t(C.Params.size()), C.Height});
    }
  }
  void elseArm(Frame &C) {
    // The else-skip entry: taken when the then-arm falls into `else`.
    C.X.PatchList.push_back(uint32_t(ST.size()));
    ST.push_back({0, 0, uint32_t(C.Results.size()), C.Height});
    // The if false edge lands just after the else opcode.
    ST[C.X.IfEntry].TargetIp = uint32_t(R.pc());
    ST[C.X.IfEntry].TargetStp = uint32_t(ST.size());
    C.X.IfEntry = ~0u;
  }
  void exitFrame(Frame &C, uint32_t OpPos) {
    // No else: the false edge produces the results directly.
    if (C.Kind == Opcode::If)
      C.X.PatchList.push_back(C.X.IfEntry);
    // Inner branches land just past their construct's `end`; branches to
    // the function label land ON the terminating `end` opcode, whose
    // handler is the return path (landing past it would walk the
    // interpreter off the body into adjacent module bytes).
    uint32_t EndIp = Frames.size() == 1 ? OpPos : uint32_t(R.pc());
    for (uint32_t Idx : C.X.PatchList) {
      ST[Idx].TargetIp = EndIp;
      ST[Idx].TargetStp = uint32_t(ST.size());
    }
  }
};

} // namespace

bool wisp::validateFunction(Module &M, FuncDecl &F, WasmError *Err) {
  FuncValidator V(M, F);
  if (!V.walk()) {
    if (Err) {
      Err->Message = strFormat("func %u: ", F.Index) + V.Error;
      Err->Offset = V.ErrorOffset;
    }
    return false;
  }
  F.MaxStack = V.MaxStack;
  F.Table.Entries = std::move(V.ST);
  return true;
}

/// Checks one constant initializer at module level. The reader enforces
/// the same rules at decode time; this pass is defense-in-depth for
/// modules assembled programmatically (fuzzer mutations, future binary
/// paths) and is what instantiation's in-order global evaluation — and
/// the instance-image builder's pre-evaluation — rely on: a global.get
/// may only name an already-defined immutable global, so every read
/// observes an initialized value.
static bool validateInitExpr(const Module &M, const InitExpr &E,
                             uint32_t DefinedBoundary, ValType Expect,
                             const char *What, WasmError *Err) {
  auto Fail = [&](const std::string &Msg) {
    if (Err)
      Err->Message = Msg;
    return false;
  };
  if (E.K == InitExpr::GlobalGet) {
    if (E.Index >= DefinedBoundary)
      return Fail(strFormat("%s references undefined global %u", What,
                            E.Index));
    if (M.Globals[E.Index].Mutable)
      return Fail(strFormat("%s references mutable global %u", What, E.Index));
    if (M.Globals[E.Index].Type != Expect)
      return Fail(strFormat("%s type mismatch", What));
  } else if (E.K == InitExpr::RefFuncIdx) {
    if (E.Index >= M.Funcs.size())
      return Fail(strFormat("%s ref.func index out of range", What));
  } else if (E.K == InitExpr::Const && E.Type != Expect) {
    return Fail(strFormat("%s type mismatch", What));
  }
  return true;
}

bool wisp::validateModule(Module &M, WasmError *Err) {
  // Global initializers: each may only consult globals defined before it
  // (imports precede all definitions in index space).
  for (size_t I = 0; I < M.Globals.size(); ++I) {
    const GlobalDecl &G = M.Globals[I];
    if (G.Imported)
      continue;
    if (!validateInitExpr(M, G.Init, uint32_t(I), G.Type,
                          "global init expr", Err))
      return false;
  }

  // Segment offsets: all globals are in scope (segments follow the global
  // section), but memory/table existence and offset types must hold.
  for (const ElemSegment &E : M.Elems) {
    if (E.TableIdx >= M.Tables.size()) {
      if (Err)
        Err->Message = "element segment without table";
      return false;
    }
    if (!validateInitExpr(M, E.Offset, uint32_t(M.Globals.size()),
                          ValType::I32, "element segment offset", Err))
      return false;
  }
  for (const DataSegment &D : M.Datas) {
    if (M.Memories.empty()) {
      if (Err)
        Err->Message = "data segment without memory";
      return false;
    }
    if (!validateInitExpr(M, D.Offset, uint32_t(M.Globals.size()),
                          ValType::I32, "data segment offset", Err))
      return false;
  }

  // Start function must be [] -> [].
  if (M.Start) {
    const FuncType &FT = M.funcType(*M.Start);
    if (!FT.Params.empty() || !FT.Results.empty()) {
      if (Err)
        Err->Message = "start function must have empty signature";
      return false;
    }
  }
  for (FuncDecl &F : M.Funcs) {
    if (F.Imported)
      continue;
    if (!validateFunction(M, F, Err))
      return false;
  }
  M.Validated = true;
  return true;
}
