//===- wasm/bodywalk.h - the single forward walk over a body ----*- C++ -*-===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One forward pass over a structured function body with a control stack:
/// the algorithm Wasm validation and the paper's single-pass compilers
/// share. BodyWalker decodes every opcode and its immediates once, keeps
/// the control frames and the operand-stack height, clamps pops at the
/// frame base in unreachable code, counts side-table positions, and calls
/// its client's hooks at fixed points. Three clients build on it:
///
///   - the validator (wasm/validator.cpp) adds typing, diagnostics,
///     MaxStack and the side-table targets;
///   - the verifier's body scan (verify/verifier.cpp) records each opcode
///     boundary's height and side-table position;
///   - the analyzer (analysis/analysis.cpp) adds its constant lattice,
///     dead-context flag, must-prefix tracking, call edges and lints.
///
/// Clients derive from BodyWalker<Client, Value, Extra> (CRTP) and hide the
/// default hooks they need; every call resolves at compile time. Value is
/// what the client tracks per operand (a type, an abstract constant, or
/// nothing: with an empty Value the walker keeps only the height and skips
/// the per-operand hooks), Extra is per-frame client state.
///
/// Dead-code height rule: in unreachable code a pop below the frame base
/// yields a polymorphic operand and leaves the height alone, and every
/// push still counts. br_if re-pushes its label values and local.tee its
/// operand (the validator's pop-then-push), so a dead br_if/local.tee can
/// raise the height; reachable code always sees the same heights as the
/// validator's typed stack.
///
//===----------------------------------------------------------------------===//

#ifndef WISP_WASM_BODYWALK_H
#define WISP_WASM_BODYWALK_H

#include "support/format.h"
#include "wasm/codereader.h"
#include "wasm/module.h"

#include <algorithm>
#include <array>
#include <cstdarg>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

namespace wisp {

/// A one-element type list that outlives every walk: the single-result
/// block shorthand and local.tee's operand.
inline std::span<const ValType> oneTypeSpan(ValType T) {
  static constexpr auto Table = [] {
    std::array<ValType, 256> A{};
    for (size_t I = 0; I < A.size(); ++I)
      A[I] = ValType(I);
    return A;
  }();
  return {&Table[uint8_t(T)], 1};
}

/// No per-operand or per-frame client state.
struct WalkNone {};

/// One control frame.
template <class Extra> struct WalkFrame {
  Opcode Kind = Opcode::Block; ///< Block, Loop, If, or Else.
  std::span<const ValType> Params;
  std::span<const ValType> Results;
  /// Operand height at entry, below the params.
  uint32_t Height = 0;
  /// Past a br, br_table, return or unreachable: the stack is polymorphic.
  bool Unreachable = false;
  [[no_unique_address]] Extra X{};

  std::span<const ValType> labelTypes() const {
    return Kind == Opcode::Loop ? Params : Results;
  }
};

template <class Client, class Value = WalkNone, class Extra = WalkNone>
class BodyWalker {
public:
  using Frame = WalkFrame<Extra>;

  /// Walks the body to its terminating `end`. On the first malformed or
  /// ill-typed opcode, stops and returns false with Error/ErrorOffset set;
  /// everything the hooks saw up to that point stands.
  bool walk() {
    Frame Root;
    Root.Results = M.Types[F.TypeIdx].Results;
    Frames.push_back(Root);
    while (!Frames.empty()) {
      if (R.atEnd())
        return fail("function body not terminated by end");
      uint32_t OpPos = uint32_t(R.pc());
      Opcode Op = R.readOpcode();
      if (!R.ok())
        return fail("malformed opcode");
      self().beginOp(Op, OpPos);
      if (!step(Op, OpPos))
        return false;
      self().endOp();
    }
    return true;
  }

  std::string Error;
  size_t ErrorOffset = 0;

protected:
  // --- Default hooks: a client hides the ones it needs. ---

  /// Before decoding the opcode at OpPos; height() and Stp are its entry
  /// coordinates.
  void beginOp(Opcode, uint32_t) {}
  /// After the opcode took effect (Frames is empty after the last `end`).
  /// Every opcode pops before it pushes, so the heights seen here and the
  /// initial 0 include the highest the stack ever gets.
  void endOp() {}

  /// A pushed operand of type T, or a constant of type T.
  Value fresh(ValType) { return Value{}; }
  Value constant(ValType T, uint64_t) { return self().fresh(T); }
  /// The operand a pop below the base of an unreachable frame yields.
  Value bottom() { return Value{}; }
  /// An operand popped where a T is expected.
  bool check(const Value &, ValType) { return true; }
  /// An operand that br_if or local.tee pops as a T and pushes back.
  Value relabel(const Value &V, ValType) { return V; }
  /// select's result from its two value operands.
  bool select(const Value &, const Value &, Value *Out) {
    *Out = Value{};
    return true;
  }
  /// ref.is_null's operand.
  bool refOperand(const Value &) { return true; }

  /// A fixed-signature opcode, after its immediates and before its pops.
  bool simpleOp(Opcode, const OpInfo &, const MemArg &) { return true; }
  /// memory.copy / memory.fill, after their memory-index bytes.
  bool memory() { return true; }

  /// A block, loop or if frame just pushed (params included).
  void enterBlock(Frame &) {}
  /// An if frame turning into its else arm, after the then-arm results
  /// were popped.
  void elseArm(Frame &) {}
  /// A frame closing at the `end` at OpPos, after its results were popped.
  void exitFrame(Frame &, uint32_t) {}
  /// One side-table entry: a branch to Target.
  void branchEntry(Frame &) {}
  /// A br_table target checked against the default label.
  bool brTableLabel(const Frame &, const Frame &) { return true; }
  /// A br_table with N targets, after its depths were checked.
  void brTable(uint32_t, const Value &) {}

  void call(uint32_t) {}
  bool callIndirect(uint32_t, uint32_t) { return true; }
  bool global(Opcode, uint32_t) { return true; }
  void refFunc(uint32_t) {}

  // --- State and queries for clients. ---

  __attribute__((format(printf, 2, 3))) bool fail(const char *Fmt, ...) {
    va_list Args;
    va_start(Args, Fmt);
    Error = strFormatV(Fmt, Args);
    va_end(Args);
    ErrorOffset = R.pc();
    return false;
  }

  uint32_t height() const { return Height; }
  /// The operand \p Depth slots below the top; bottom() once clamped away.
  Value peek(uint32_t Depth) {
    if constexpr (Carries)
      if (Depth < Vals.size())
        return Vals[Vals.size() - 1 - Depth];
    return self().bottom();
  }

  const Module &M;
  const FuncDecl &F;
  CodeReader R;
  std::vector<Frame> Frames;
  /// Side-table entries emitted so far: the position at the next opcode.
  uint32_t Stp = 0;

private:
  // Only the client constructs its walker.
  friend Client;
  BodyWalker(const Module &M, const FuncDecl &F)
      : M(M), F(F), R(M.Bytes.data(), F.BodyStart, F.BodyEnd) {}

  static constexpr bool Carries = !std::is_empty_v<Value>;

  Client &self() { return static_cast<Client &>(*this); }

  void push(const Value &V) {
    ++Height;
    if constexpr (Carries)
      Vals.push_back(V);
  }
  void pushFresh(std::span<const ValType> Ts) {
    if constexpr (!Carries) {
      Height += uint32_t(Ts.size());
    } else {
      for (ValType T : Ts)
        push(self().fresh(T));
    }
  }
  /// Pops \p N operands a client without values cannot inspect anyway.
  bool popCount(uint32_t N) {
    const Frame &C = Frames.back();
    if (Height - C.Height >= N) {
      Height -= N;
      return true;
    }
    if (!C.Unreachable)
      return fail("operand stack underflow");
    Height = C.Height;
    return true;
  }
  /// Pops one operand; ValType::Bottom as \p Expect accepts any type.
  bool pop(ValType Expect, Value *Out = nullptr) {
    const Frame &C = Frames.back();
    Value V = self().bottom();
    if (Height == C.Height) {
      if (!C.Unreachable)
        return fail("operand stack underflow");
    } else {
      --Height;
      if constexpr (Carries) {
        V = Vals.back();
        Vals.pop_back();
      }
    }
    if (Expect != ValType::Bottom && !self().check(V, Expect))
      return false;
    if (Out)
      *Out = V;
    return true;
  }
  bool popAll(std::span<const ValType> Ts) {
    if constexpr (!Carries)
      return popCount(uint32_t(Ts.size()));
    for (size_t I = Ts.size(); I > 0; --I)
      if (!pop(Ts[I - 1]))
        return false;
    return true;
  }
  /// Pops \p Ts and pushes them back: the operands stay in place, relabeled,
  /// except in unreachable code where missing ones are materialized.
  bool keep(std::span<const ValType> Ts) {
    const Frame &C = Frames.back();
    uint32_t N = uint32_t(Ts.size());
    uint32_t Avail = std::min(N, Height - C.Height);
    if constexpr (Carries)
      for (uint32_t I = 0; I < Avail; ++I)
        if (!self().check(peek(I), Ts[N - 1 - I]))
          return false;
    if (Avail == N) {
      if constexpr (Carries)
        for (uint32_t J = 0; J < N; ++J) {
          Value &V = Vals[Vals.size() - N + J];
          V = self().relabel(V, Ts[J]);
        }
      return true;
    }
    if (!C.Unreachable)
      return fail("operand stack underflow");
    Height -= Avail;
    if constexpr (Carries)
      Vals.resize(Height);
    pushFresh(Ts);
    return true;
  }
  void markUnreachable() {
    Frame &C = Frames.back();
    Height = C.Height;
    if constexpr (Carries)
      Vals.resize(Height);
    C.Unreachable = true;
  }
  /// Pops a closing frame's results; nothing else may remain above it.
  bool popResults(const Frame &C) {
    if (!popAll(C.Results))
      return false;
    if (Height != C.Height)
      return fail("%zu superfluous values at end of block",
                  size_t(Height - C.Height));
    return true;
  }
  Frame &label(uint32_t Depth) { return Frames[Frames.size() - 1 - Depth]; }
  /// Checks a br/br_if depth and emits its side-table entry.
  bool branch(uint32_t Depth) {
    if (Depth >= Frames.size())
      return fail("branch depth %u exceeds nesting %zu", Depth,
                  Frames.size());
    self().branchEntry(label(Depth));
    ++Stp;
    return true;
  }

  bool step(Opcode Op, uint32_t OpPos);
  bool stepBlock(Opcode Op);
  bool stepBrTable();

  uint32_t Height = 0;
  std::vector<Value> Vals; ///< Unused when Value is empty.
};

template <class Client, class Value, class Extra>
bool BodyWalker<Client, Value, Extra>::step(Opcode Op, uint32_t OpPos) {
  const OpInfo &Info = opInfo(Op);
  if (!Info.Name)
    return fail("unknown opcode 0x%x", unsigned(Op));

  if (Info.Class == OpClass::Simple) {
    MemArg A;
    if (Info.Imm == ImmKind::MemArg) {
      A = R.readMemArg();
      if (!R.ok())
        return fail("malformed memarg");
    } else if (Info.Imm == ImmKind::MemIdx && R.readByte() != 0) {
      return fail("nonzero memory index");
    }
    if (!self().simpleOp(Op, Info, A) ||
        !popAll(std::span<const ValType>(Info.Pop, Info.NPop)))
      return false;
    if (Info.NPush)
      push(self().fresh(Info.Push));
    return true;
  }

  switch (Op) {
  case Opcode::Nop:
    return true;
  case Opcode::Unreachable:
    markUnreachable();
    return true;

  case Opcode::Block:
  case Opcode::Loop:
  case Opcode::If:
    return stepBlock(Op);

  case Opcode::Else: {
    if (Frames.size() <= 1 || Frames.back().Kind != Opcode::If)
      return fail("else without matching if");
    Frame &C = Frames.back();
    if (!popResults(C))
      return false;
    ++Stp; // The else-skip entry.
    C.Kind = Opcode::Else;
    C.Unreachable = false;
    self().elseArm(C);
    pushFresh(C.Params);
    return true;
  }

  case Opcode::End: {
    Frame &C = Frames.back();
    if (!popResults(C))
      return false;
    if (C.Kind == Opcode::If && !std::ranges::equal(C.Params, C.Results))
      return fail("if without else requires matching params and results");
    self().exitFrame(C, OpPos);
    std::span<const ValType> Results = C.Results;
    Frames.pop_back();
    pushFresh(Results);
    if (Frames.empty() && R.pc() != F.BodyEnd)
      return fail("%zd trailing bytes after function end",
                  ptrdiff_t(F.BodyEnd) - ptrdiff_t(R.pc()));
    return true;
  }

  case Opcode::Br: {
    uint32_t Depth = R.readU32();
    if (!R.ok())
      return fail("malformed branch depth");
    if (!branch(Depth) || !popAll(label(Depth).labelTypes()))
      return false;
    markUnreachable();
    return true;
  }

  case Opcode::BrIf: {
    uint32_t Depth = R.readU32();
    if (!R.ok())
      return fail("malformed branch depth");
    return pop(ValType::I32) && branch(Depth) &&
           keep(label(Depth).labelTypes());
  }

  case Opcode::BrTable:
    return stepBrTable();

  case Opcode::Return:
    if (!popAll(M.Types[F.TypeIdx].Results))
      return false;
    markUnreachable();
    return true;

  case Opcode::Call: {
    uint32_t Idx = R.readU32();
    if (!R.ok() || Idx >= M.Funcs.size())
      return fail("call index out of range");
    self().call(Idx);
    const FuncType &FT = M.funcType(Idx);
    if (!popAll(FT.Params))
      return false;
    pushFresh(FT.Results);
    return true;
  }

  case Opcode::CallIndirect: {
    uint32_t TypeIdx = R.readU32();
    uint32_t TableIdx = R.readU32();
    if (!R.ok() || TypeIdx >= M.Types.size())
      return fail("call_indirect type index out of range");
    if (!self().callIndirect(TypeIdx, TableIdx) || !pop(ValType::I32))
      return false;
    const FuncType &FT = M.Types[TypeIdx];
    if (!popAll(FT.Params))
      return false;
    pushFresh(FT.Results);
    return true;
  }

  case Opcode::Drop:
    return pop(ValType::Bottom);

  case Opcode::Select: {
    Value A{}, B{}, Out{};
    if (!pop(ValType::I32) || !pop(ValType::Bottom, &A) ||
        !pop(ValType::Bottom, &B) || !self().select(A, B, &Out))
      return false;
    push(Out);
    return true;
  }

  case Opcode::SelectT: {
    uint32_t N = R.readU32();
    if (!R.ok() || N != 1)
      return fail("select_t requires exactly one type");
    ValType T = R.readValType();
    if (!R.ok())
      return fail("malformed select_t type");
    if (!pop(ValType::I32) || !pop(T) || !pop(T))
      return false;
    push(self().fresh(T));
    return true;
  }

  case Opcode::LocalGet:
  case Opcode::LocalSet:
  case Opcode::LocalTee: {
    uint32_t Idx = R.readU32();
    if (!R.ok() || Idx >= F.LocalTypes.size())
      return fail("local index out of range");
    ValType T = F.LocalTypes[Idx];
    if (Op == Opcode::LocalGet) {
      push(self().fresh(T));
      return true;
    }
    if (Op == Opcode::LocalSet)
      return pop(T);
    return keep(oneTypeSpan(T));
  }

  case Opcode::GlobalGet:
  case Opcode::GlobalSet: {
    uint32_t Idx = R.readU32();
    if (!R.ok() || Idx >= M.Globals.size())
      return fail("global index out of range");
    if (!self().global(Op, Idx))
      return false;
    ValType T = M.Globals[Idx].Type;
    if (Op == Opcode::GlobalSet)
      return pop(T);
    push(self().fresh(T));
    return true;
  }

  case Opcode::I32Const: {
    int32_t V = R.readS32();
    if (!R.ok())
      return fail("malformed i32 constant");
    push(self().constant(ValType::I32, uint32_t(V)));
    return true;
  }
  case Opcode::I64Const: {
    int64_t V = R.readS64();
    if (!R.ok())
      return fail("malformed i64 constant");
    push(self().constant(ValType::I64, uint64_t(V)));
    return true;
  }
  case Opcode::F32Const: {
    uint32_t Bits = R.readF32Bits();
    if (!R.ok())
      return fail("malformed f32 constant");
    push(self().constant(ValType::F32, Bits));
    return true;
  }
  case Opcode::F64Const: {
    uint64_t Bits = R.readF64Bits();
    if (!R.ok())
      return fail("malformed f64 constant");
    push(self().constant(ValType::F64, Bits));
    return true;
  }

  case Opcode::RefNull: {
    ValType T = R.readValType();
    if (!R.ok() || !isRefType(T))
      return fail("ref.null requires a reference type");
    push(self().constant(T, 0));
    return true;
  }
  case Opcode::RefIsNull: {
    Value V{};
    if (!pop(ValType::Bottom, &V) || !self().refOperand(V))
      return false;
    push(self().fresh(ValType::I32));
    return true;
  }
  case Opcode::RefFunc: {
    uint32_t Idx = R.readU32();
    if (!R.ok() || Idx >= M.Funcs.size())
      return fail("ref.func index out of range");
    self().refFunc(Idx);
    push(self().fresh(ValType::FuncRef));
    return true;
  }

  case Opcode::MemoryCopy:
  case Opcode::MemoryFill:
    if (R.readByte() != 0 ||
        (Op == Opcode::MemoryCopy && R.readByte() != 0))
      return fail("nonzero memory index");
    return self().memory() && pop(ValType::I32) && pop(ValType::I32) &&
           pop(ValType::I32);

  default:
    return fail("unhandled opcode %s", opName(Op));
  }
}

template <class Client, class Value, class Extra>
bool BodyWalker<Client, Value, Extra>::stepBlock(Opcode Op) {
  if (Op == Opcode::If && !pop(ValType::I32))
    return false;
  BlockType BT = R.readBlockType();
  if (!R.ok())
    return fail("malformed block type");
  Frame C;
  C.Kind = Op;
  switch (BT.K) {
  case BlockType::Empty:
    break;
  case BlockType::OneResult:
    C.Results = oneTypeSpan(BT.Result);
    break;
  case BlockType::FuncTypeIdx:
    if (BT.TypeIdx >= M.Types.size())
      return fail("block type index %u out of range", BT.TypeIdx);
    C.Params = M.Types[BT.TypeIdx].Params;
    C.Results = M.Types[BT.TypeIdx].Results;
    break;
  }
  if (Op == Opcode::If)
    ++Stp; // The false-edge entry.
  if (!popAll(C.Params))
    return false;
  C.Height = Height;
  Frames.push_back(C);
  pushFresh(C.Params);
  self().enterBlock(Frames.back());
  return true;
}

template <class Client, class Value, class Extra>
bool BodyWalker<Client, Value, Extra>::stepBrTable() {
  uint32_t N = R.readU32();
  if (!R.ok())
    return fail("malformed br_table");
  Value Selector{};
  if (!pop(ValType::I32, &Selector))
    return false;
  // Each target and the default take at least one byte: a count the rest
  // of the body cannot hold is rejected before any loop runs over it.
  if (uint64_t(N) >= F.BodyEnd - R.pc())
    return fail("malformed br_table targets");
  size_t TargetsPos = R.pc();
  for (uint32_t I = 0; I < N; ++I)
    (void)R.readU32();
  uint32_t Default = R.readU32();
  if (!R.ok())
    return fail("malformed br_table targets");
  if (Default >= Frames.size())
    return fail("br_table default depth out of range");
  // Second pass over the targets, already known to decode.
  CodeReader Targets(M.Bytes.data(), TargetsPos, R.pc());
  for (uint32_t I = 0; I < N; ++I) {
    uint32_t Depth = Targets.readU32();
    if (Depth >= Frames.size())
      return fail("br_table target depth out of range");
    if (!self().brTableLabel(label(Depth), label(Default)))
      return false;
    self().branchEntry(label(Depth));
  }
  self().branchEntry(label(Default));
  Stp += N + 1;
  self().brTable(N, Selector);
  if (!popAll(label(Default).labelTypes()))
    return false;
  markUnreachable();
  return true;
}

} // namespace wisp

#endif // WISP_WASM_BODYWALK_H
