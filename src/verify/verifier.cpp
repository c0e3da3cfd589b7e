//===- verify/verifier.cpp - static artifact verification -------------------===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Two passes per artifact:
//
//   1. BodyScan: a heights-only mirror of the wasm validator's walk over
//      the (already validated) body, recording for every opcode boundary
//      its opcode, the operand-stack height at entry, the side-table
//      position at entry, and the first scalar immediate. This re-derives
//      exactly the coordinates the compilers consumed.
//   2. The artifact checks proper: structural per-instruction checks, a
//      machine-CFG reachability walk, and the metadata cross-checks listed
//      in verifier.h, each producing a VerifyFinding with the offending
//      pc/unit and a precise description.
//
//===----------------------------------------------------------------------===//

#include "verify/verifier.h"

#include "support/format.h"
#include "wasm/codereader.h"
#include "wasm/opcodes.h"

#include <algorithm>

using namespace wisp;

namespace {

/// Per-function finding cap: a corrupted artifact tends to violate one
/// invariant hundreds of times; the first few locate the defect.
constexpr size_t MaxFindings = 32;

// --- BodyScan: re-derive the validator's per-opcode coordinates ----------

/// Validator-view coordinates of one opcode boundary.
struct OpSite {
  uint32_t Ip = 0; ///< Bytecode offset of the opcode.
  Opcode Op = Opcode::Nop;
  uint32_t Height = 0; ///< Operand-stack height at entry (locals excluded).
  uint32_t Stp = 0;    ///< Side-table position at entry.
  uint32_t ImmA = 0;   ///< First scalar immediate (call/local/global index).
};

/// The scan result. Sites lists every opcode boundary of the body in
/// ascending offset order (the ordered queries walk or bisect it); Slot is
/// a flat table over the body bytes, Slot[Ip - Base] = 1 + the index in
/// Sites of the opcode starting at Ip, or 0 mid-opcode, so `at` is O(1).
struct BodyScan {
  bool Ok = false;
  std::string Error;
  std::vector<OpSite> Sites;
  std::vector<uint32_t> Slot;
  uint32_t Base = 0;      ///< Offset of Slot[0]: the function's BodyStart.
  uint32_t TermEndIp = 0; ///< Offset of the function-terminating `end`.

  const OpSite *at(uint32_t Ip) const {
    if (Ip < Base || Ip - Base >= Slot.size() || !Slot[Ip - Base])
      return nullptr;
    return &Sites[Slot[Ip - Base] - 1];
  }
  /// Index in Sites of the first boundary at or after \p Ip.
  size_t lowerBound(uint32_t Ip) const {
    auto It = std::partition_point(
        Sites.begin(), Sites.end(),
        [Ip](const OpSite &S) { return S.Ip < Ip; });
    return size_t(It - Sites.begin());
  }
};

/// Heights-only mirror of the validator's control frame.
struct ScanFrame {
  uint32_t Height = 0; ///< Operand height just below the frame's params.
  uint32_t NParams = 0;
  uint32_t NResults = 0;
  bool IsLoop = false;
  bool Unreachable = false;

  uint32_t labelArity() const { return IsLoop ? NParams : NResults; }
};

class BodyScanner {
public:
  BodyScanner(const Module &M, const FuncDecl &F)
      : M(M), F(F), R(M.Bytes.data(), F.BodyStart, F.BodyEnd) {}

  BodyScan run();

private:
  bool fail(const char *Fmt, ...);
  bool blockArity(uint32_t *NP, uint32_t *NR);
  void pop(uint32_t N) {
    ScanFrame &C = Frames.back();
    for (uint32_t I = 0; I < N; ++I) {
      if (Height > C.Height)
        --Height; // Clamp at the frame base in unreachable code, exactly
      // as the validator's stack-polymorphic popAny does.
    }
  }
  void push(uint32_t N) { Height += N; }
  void markUnreachable() {
    Height = Frames.back().Height;
    Frames.back().Unreachable = true;
  }
  bool scanOp(Opcode Op, size_t OpPos);

  const Module &M;
  const FuncDecl &F;
  CodeReader R;
  BodyScan Out;
  std::vector<ScanFrame> Frames;
  uint32_t Height = 0;
  uint32_t CurStp = 0;
  bool Done = false;
};

bool BodyScanner::fail(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  Out.Error = strFormatV(Fmt, Args);
  va_end(Args);
  return false;
}

bool BodyScanner::blockArity(uint32_t *NP, uint32_t *NR) {
  BlockType BT = R.readBlockType();
  if (!R.ok())
    return fail("malformed block type");
  switch (BT.K) {
  case BlockType::Empty:
    *NP = *NR = 0;
    return true;
  case BlockType::OneResult:
    *NP = 0;
    *NR = 1;
    return true;
  case BlockType::FuncTypeIdx:
    if (BT.TypeIdx >= M.Types.size())
      return fail("block type index out of range");
    *NP = uint32_t(M.Types[BT.TypeIdx].Params.size());
    *NR = uint32_t(M.Types[BT.TypeIdx].Results.size());
    return true;
  }
  return fail("bad block type");
}

bool BodyScanner::scanOp(Opcode Op, size_t OpPos) {
  const OpInfo &Info = opInfo(Op);
  if (!Info.Name)
    return fail("unknown opcode at %zu", OpPos);

  if (Info.Class == OpClass::Simple) {
    switch (Info.Imm) {
    case ImmKind::MemArg:
      (void)R.readMemArg();
      break;
    case ImmKind::MemIdx:
      (void)R.readByte();
      break;
    default:
      break;
    }
    pop(Info.NPop);
    push(Info.NPush ? 1 : 0);
    return R.ok() || fail("malformed immediates at %zu", OpPos);
  }

  switch (Op) {
  case Opcode::Nop:
    return true;
  case Opcode::Unreachable:
    markUnreachable();
    return true;

  case Opcode::Block:
  case Opcode::Loop:
  case Opcode::If: {
    if (Op == Opcode::If) {
      pop(1);
      ++CurStp; // The false-edge side-table entry.
    }
    uint32_t NP = 0, NR = 0;
    if (!blockArity(&NP, &NR))
      return false;
    pop(NP);
    ScanFrame C;
    C.Height = Height;
    C.NParams = NP;
    C.NResults = NR;
    C.IsLoop = Op == Opcode::Loop;
    Frames.push_back(C);
    push(NP);
    return true;
  }

  case Opcode::Else: {
    ++CurStp; // The else-skip side-table entry.
    ScanFrame C = Frames.back();
    Frames.pop_back();
    Height = C.Height + C.NParams;
    C.IsLoop = false;
    C.Unreachable = false;
    Frames.push_back(C);
    return true;
  }

  case Opcode::End: {
    ScanFrame C = Frames.back();
    Frames.pop_back();
    Height = C.Height;
    push(C.NResults);
    if (Frames.empty()) {
      Out.TermEndIp = uint32_t(OpPos);
      Done = true;
    }
    return true;
  }

  case Opcode::Br: {
    uint32_t Depth = R.readU32();
    if (!R.ok() || Depth >= Frames.size())
      return fail("bad branch depth at %zu", OpPos);
    ++CurStp;
    pop(Frames[Frames.size() - 1 - Depth].labelArity());
    markUnreachable();
    return true;
  }

  case Opcode::BrIf: {
    uint32_t Depth = R.readU32();
    if (!R.ok() || Depth >= Frames.size())
      return fail("bad branch depth at %zu", OpPos);
    ++CurStp;
    pop(1); // Condition; the label values are popped and re-pushed.
    return true;
  }

  case Opcode::BrTable: {
    uint32_t N = R.readU32();
    for (uint32_t I = 0; I < N; ++I)
      (void)R.readU32();
    uint32_t Default = R.readU32();
    if (!R.ok() || Default >= Frames.size())
      return fail("bad br_table at %zu", OpPos);
    CurStp += N + 1;
    pop(1);
    pop(Frames[Frames.size() - 1 - Default].labelArity());
    markUnreachable();
    return true;
  }

  case Opcode::Return:
    pop(uint32_t(M.Types[F.TypeIdx].Results.size()));
    markUnreachable();
    return true;

  case Opcode::Call: {
    uint32_t Idx = R.readU32();
    if (!R.ok() || Idx >= M.Funcs.size())
      return fail("bad call index at %zu", OpPos);
    Out.Sites.back().ImmA = Idx;
    const FuncType &FT = M.funcType(Idx);
    pop(uint32_t(FT.Params.size()));
    push(uint32_t(FT.Results.size()));
    return true;
  }

  case Opcode::CallIndirect: {
    uint32_t TypeIdx = R.readU32();
    (void)R.readU32(); // Table index.
    if (!R.ok() || TypeIdx >= M.Types.size())
      return fail("bad call_indirect type at %zu", OpPos);
    Out.Sites.back().ImmA = TypeIdx;
    const FuncType &FT = M.Types[TypeIdx];
    pop(1); // Table element index.
    pop(uint32_t(FT.Params.size()));
    push(uint32_t(FT.Results.size()));
    return true;
  }

  case Opcode::Drop:
    pop(1);
    return true;
  case Opcode::Select:
    pop(3);
    push(1);
    return true;
  case Opcode::SelectT: {
    uint32_t N = R.readU32();
    for (uint32_t I = 0; I < N; ++I)
      (void)R.readByte();
    if (!R.ok())
      return fail("malformed select_t at %zu", OpPos);
    pop(3);
    push(1);
    return true;
  }

  case Opcode::LocalGet:
  case Opcode::LocalSet:
  case Opcode::LocalTee: {
    uint32_t Idx = R.readU32();
    if (!R.ok() || Idx >= F.LocalTypes.size())
      return fail("bad local index at %zu", OpPos);
    Out.Sites.back().ImmA = Idx;
    if (Op == Opcode::LocalGet)
      push(1);
    else if (Op == Opcode::LocalSet)
      pop(1);
    return true;
  }

  case Opcode::GlobalGet:
  case Opcode::GlobalSet: {
    uint32_t Idx = R.readU32();
    if (!R.ok() || Idx >= M.Globals.size())
      return fail("bad global index at %zu", OpPos);
    Out.Sites.back().ImmA = Idx;
    if (Op == Opcode::GlobalGet)
      push(1);
    else
      pop(1);
    return true;
  }

  case Opcode::I32Const:
    (void)R.readS32();
    push(1);
    return R.ok() || fail("malformed constant at %zu", OpPos);
  case Opcode::I64Const:
    (void)R.readS64();
    push(1);
    return R.ok() || fail("malformed constant at %zu", OpPos);
  case Opcode::F32Const:
    (void)R.readF32Bits();
    push(1);
    return R.ok() || fail("malformed constant at %zu", OpPos);
  case Opcode::F64Const:
    (void)R.readF64Bits();
    push(1);
    return R.ok() || fail("malformed constant at %zu", OpPos);

  case Opcode::RefNull:
    (void)R.readValType();
    push(1);
    return R.ok() || fail("malformed ref.null at %zu", OpPos);
  case Opcode::RefIsNull:
    pop(1);
    push(1);
    return true;
  case Opcode::RefFunc:
    (void)R.readU32();
    push(1);
    return R.ok() || fail("malformed ref.func at %zu", OpPos);

  case Opcode::MemoryCopy:
    (void)R.readByte();
    (void)R.readByte();
    pop(3);
    return true;
  case Opcode::MemoryFill:
    (void)R.readByte();
    pop(3);
    return true;

  default:
    return fail("unhandled opcode %s at %zu", opName(Op), OpPos);
  }
}

BodyScan BodyScanner::run() {
  ScanFrame Root;
  Root.NResults = uint32_t(M.Types[F.TypeIdx].Results.size());
  Frames.push_back(Root);
  // Every opcode is at least one byte, so both tables are allocated once.
  Out.Base = F.BodyStart;
  Out.Slot.assign(F.BodyEnd - F.BodyStart, 0);
  Out.Sites.reserve(F.BodyEnd - F.BodyStart);

  while (!Done) {
    if (R.atEnd()) {
      Out.Error = "body not terminated";
      return std::move(Out);
    }
    size_t OpPos = R.pc();
    Opcode Op = R.readOpcode();
    if (!R.ok()) {
      Out.Error = "malformed opcode";
      return std::move(Out);
    }
    Out.Sites.push_back({uint32_t(OpPos), Op, Height, CurStp, 0});
    Out.Slot[OpPos - F.BodyStart] = uint32_t(Out.Sites.size());
    if (!scanOp(Op, OpPos))
      return std::move(Out);
  }
  Out.Ok = true;
  return std::move(Out);
}

// --- Machine-code checks -------------------------------------------------

/// Machine instructions that can fault at run time and therefore need
/// trap-site attribution through the line table.
bool mopCanTrap(MOp Op) {
  switch (Op) {
  case MOp::DivS32:
  case MOp::DivU32:
  case MOp::RemS32:
  case MOp::RemU32:
  case MOp::DivS64:
  case MOp::DivU64:
  case MOp::RemS64:
  case MOp::RemU64:
  case MOp::TruncF32I32S:
  case MOp::TruncF32I32U:
  case MOp::TruncF64I32S:
  case MOp::TruncF64I32U:
  case MOp::TruncF32I64S:
  case MOp::TruncF32I64U:
  case MOp::TruncF64I64S:
  case MOp::TruncF64I64U:
  case MOp::LdM8S32:
  case MOp::LdM8U32:
  case MOp::LdM16S32:
  case MOp::LdM16U32:
  case MOp::LdM32:
  case MOp::LdM8S64:
  case MOp::LdM8U64:
  case MOp::LdM16S64:
  case MOp::LdM16U64:
  case MOp::LdM32S64:
  case MOp::LdM32U64:
  case MOp::LdM64:
  case MOp::LdMF32:
  case MOp::LdMF64:
  case MOp::StM8:
  case MOp::StM16:
  case MOp::StM32:
  case MOp::StM64:
  case MOp::StMF32:
  case MOp::StMF64:
  case MOp::MemCopy:
  case MOp::MemFill:
  case MOp::CallDirect:
  case MOp::CallIndirect:
  case MOp::TrapOp:
    return true;
  default:
    return false;
  }
}

/// Whether the bytecode opcode covering a trapping machine instruction is
/// a plausible trap site for it. Division/truncation/memory instructions
/// require a trap-capable opcode; the special-class opcodes (which OpInfo
/// does not mark CanTrap) are matched by family.
bool trapCoverCompatible(MOp MO, Opcode Cover) {
  switch (MO) {
  case MOp::CallDirect:
    return Cover == Opcode::Call;
  case MOp::CallIndirect:
    return Cover == Opcode::CallIndirect;
  case MOp::MemCopy:
    return Cover == Opcode::MemoryCopy;
  case MOp::MemFill:
    return Cover == Opcode::MemoryFill;
  case MOp::TrapOp:
    // Explicit traps come from `unreachable` or from constant-folded
    // always-trapping arithmetic (e.g. a literal division by zero).
    return Cover == Opcode::Unreachable || opInfo(Cover).CanTrap;
  default:
    return opInfo(Cover).CanTrap;
  }
}

class MCodeVerifier {
public:
  MCodeVerifier(const Module &M, const FuncDecl &F, const MCode &Code,
                const VerifyScope &Scope, const BodyScan &Scan,
                VerifyReport &Rep)
      : M(M), F(F), Code(Code), Scope(Scope), Scan(Scan), Rep(Rep),
        NL(F.numLocalSlots()), N(uint32_t(Code.Insts.size())) {}

  void run();

private:
  void finding(const char *Check, uint32_t Pc, std::string Detail) {
    if (Rep.Findings.size() < MaxFindings)
      Rep.Findings.push_back({Check, Pc, std::move(Detail)});
  }
  bool boundary(uint32_t Ip) const { return Scan.at(Ip) != nullptr; }

  void checkFrameAndInsts();
  void checkInst(uint32_t Pc, const MInst &I);
  void computeReachability();
  void checkLineTable();
  void checkPatchPoints();
  void checkTrapCoverage();
  void checkCallAndProbeShape();
  void checkOsrEntries();

  const Module &M;
  const FuncDecl &F;
  const MCode &Code;
  const VerifyScope &Scope;
  const BodyScan &Scan;
  VerifyReport &Rep;
  const uint32_t NL;
  const uint32_t N;
  std::vector<bool> Reach;
};

void MCodeVerifier::checkInst(uint32_t Pc, const MInst &I) {
  const uint32_t FS = Code.FrameSlots;
  auto target = [&](int64_t T, const char *What) {
    if (T < 0 || uint64_t(T) >= N)
      finding("branch-target", Pc,
              strFormat("%s target %lld outside code [0, %u)", What,
                        (long long)T, N));
  };
  switch (I.Op) {
  case MOp::LdSlot:
  case MOp::LdSlotF:
  case MOp::StSlot:
  case MOp::StSlotF:
  case MOp::StTag:
    if (I.Imm < 0 || uint64_t(I.Imm) >= FS)
      finding("slot-bounds", Pc,
              strFormat("%s slot %lld outside frame of %u slots",
                        mopName(I.Op), (long long)I.Imm, FS));
    break;
  case MOp::ZeroSlots:
    if (I.Imm < 0 || I.Imm2 < 0 || uint64_t(I.Imm) + uint64_t(I.Imm2) > FS)
      finding("slot-bounds", Pc,
              strFormat("ZeroSlots [%lld, %lld) outside frame of %u slots",
                        (long long)I.Imm, (long long)(I.Imm + I.Imm2), FS));
    break;
  case MOp::StSp:
    if (I.Imm < 0 || uint64_t(I.Imm) > FS)
      finding("slot-bounds", Pc,
              strFormat("StSp height %lld exceeds frame of %u slots",
                        (long long)I.Imm, FS));
    break;

  case MOp::Jmp:
  case MOp::JmpIf:
  case MOp::JmpIfZ:
  case MOp::BrCmp32:
  case MOp::BrCmpI32:
  case MOp::BrCmp64:
  case MOp::BrCmpI64:
    target(I.Imm, mopName(I.Op));
    break;
  case MOp::BrTable:
    if (I.Imm < 0 || uint64_t(I.Imm) >= Code.BrTables.size()) {
      finding("branch-target", Pc,
              strFormat("BrTable index %lld outside %zu tables",
                        (long long)I.Imm, Code.BrTables.size()));
    } else {
      const std::vector<uint32_t> &T = Code.BrTables[size_t(I.Imm)];
      if (T.empty())
        finding("branch-target", Pc, "BrTable with no entries");
      for (uint32_t E : T)
        target(int64_t(E), "BrTable entry");
    }
    break;

  case MOp::CallDirect:
  case MOp::CallIndirect: {
    uint32_t NArgs = 0, NRes = 0;
    if (I.Op == MOp::CallDirect) {
      if (I.Imm < 0 || uint64_t(I.Imm) >= M.Funcs.size()) {
        finding("call-index", Pc,
                strFormat("CallDirect callee %lld outside %zu functions",
                          (long long)I.Imm, M.Funcs.size()));
        break;
      }
      const FuncType &FT = M.funcType(uint32_t(I.Imm));
      NArgs = uint32_t(FT.Params.size());
      NRes = uint32_t(FT.Results.size());
    } else {
      if (I.Imm < 0 || uint64_t(I.Imm) >= M.Types.size()) {
        finding("call-index", Pc,
                strFormat("CallIndirect type %lld outside %zu types",
                          (long long)I.Imm, M.Types.size()));
        break;
      }
      const FuncType &FT = M.Types[size_t(I.Imm)];
      NArgs = uint32_t(FT.Params.size());
      NRes = uint32_t(FT.Results.size());
    }
    uint32_t Span = std::max(NArgs, NRes);
    if (I.Imm2 < 0 || uint64_t(I.Imm2) + Span > FS)
      finding("slot-bounds", Pc,
              strFormat("%s arg base %lld + %u slots outside frame of %u",
                        mopName(I.Op), (long long)I.Imm2, Span, FS));
    break;
  }

  case MOp::GlobGet:
  case MOp::GlobGetF:
  case MOp::GlobSet:
  case MOp::GlobSetF:
    if (I.Imm < 0 || uint64_t(I.Imm) >= M.Globals.size())
      finding("global-index", Pc,
              strFormat("%s global %lld outside %zu globals", mopName(I.Op),
                        (long long)I.Imm, M.Globals.size()));
    break;

  case MOp::ProbeFire:
  case MOp::ProbeTosG:
  case MOp::ProbeTosF:
    if (I.Imm < 0 || !boundary(uint32_t(I.Imm)))
      finding("probe-site", Pc,
              strFormat("%s at non-boundary bytecode offset %lld",
                        mopName(I.Op), (long long)I.Imm));
    break;

  case MOp::CntInc:
    // Verification always sees the relocatable form: the engine binds the
    // patch table only after this pass. A nonzero Imm is an absolute
    // address baked into the artifact — exactly what a deserialized (or
    // adversarial) artifact must never be able to smuggle past admission,
    // since the executor increments through it blindly.
    if (I.Imm != 0)
      finding("patch-point", Pc,
              strFormat("CntInc carries baked address %lld; relocatable "
                        "artifacts must leave it unbound",
                        (long long)I.Imm));
    break;

  case MOp::FuelCheck:
    // The trap site is the Imm itself (not the line table); it must name a
    // real opcode boundary or a fuel trap would report a pc no other tier
    // can reach.
    if (I.Imm < 0 || !boundary(uint32_t(I.Imm)))
      finding("fuel-site", Pc,
              strFormat("FuelCheck at non-boundary bytecode offset %lld",
                        (long long)I.Imm));
    break;

  case MOp::DeoptCheck: {
    const OpSite *S = I.Imm >= 0 ? Scan.at(uint32_t(I.Imm)) : nullptr;
    if (!S)
      finding("deopt-site", Pc,
              strFormat("DeoptCheck resume ip %lld is not an opcode boundary",
                        (long long)I.Imm));
    else if (I.Imm2 < 0 || uint64_t(I.Imm2) != S->Stp)
      finding("deopt-site", Pc,
              strFormat("DeoptCheck at ip %lld carries stp %lld, validator "
                        "says %u",
                        (long long)I.Imm, (long long)I.Imm2, S->Stp));
    break;
  }

  default:
    break; // ALU/move/memory forms have no statically-checkable fields
           // beyond trap coverage.
  }
}

void MCodeVerifier::computeReachability() {
  Reach.assign(N, false);
  std::vector<uint32_t> Work;
  auto seed = [&](uint32_t Pc) {
    if (Pc < N && !Reach[Pc]) {
      Reach[Pc] = true;
      Work.push_back(Pc);
    }
  };
  if (N)
    seed(0);
  for (const MCode::OsrEntry &E : Code.OsrEntries)
    seed(E.Pc);
  bool FellOff = false;
  while (!Work.empty()) {
    uint32_t Pc = Work.back();
    Work.pop_back();
    const MInst &I = Code.Insts[Pc];
    auto fallthrough = [&]() {
      if (Pc + 1 < N)
        seed(Pc + 1);
      else if (!FellOff) {
        FellOff = true;
        finding("fall-off-end", Pc,
                strFormat("%s at last pc %u falls through past the end",
                          mopName(I.Op), Pc));
      }
    };
    switch (I.Op) {
    case MOp::Jmp:
      if (I.Imm >= 0 && uint64_t(I.Imm) < N)
        seed(uint32_t(I.Imm));
      break;
    case MOp::JmpIf:
    case MOp::JmpIfZ:
    case MOp::BrCmp32:
    case MOp::BrCmpI32:
    case MOp::BrCmp64:
    case MOp::BrCmpI64:
      if (I.Imm >= 0 && uint64_t(I.Imm) < N)
        seed(uint32_t(I.Imm));
      fallthrough();
      break;
    case MOp::BrTable:
      if (I.Imm >= 0 && uint64_t(I.Imm) < Code.BrTables.size())
        for (uint32_t T : Code.BrTables[size_t(I.Imm)])
          if (T < N)
            seed(T);
      break;
    case MOp::Ret:
    case MOp::TrapOp:
      break;
    default:
      fallthrough();
      break;
    }
  }
}

void MCodeVerifier::checkLineTable() {
  uint32_t PrevPc = 0;
  bool First = true;
  for (const LineEntry &E : Code.LineTable) {
    if (!First && E.Pc <= PrevPc)
      finding("line-table", E.Pc,
              strFormat("line table not strictly ascending: pc %u after %u",
                        E.Pc, PrevPc));
    First = false;
    PrevPc = E.Pc;
    // pc == N (one past the last instruction) can never cover anything:
    // noteLine's pop-and-replace keeps only entries that real code follows.
    if (E.Pc >= N)
      finding("line-table", E.Pc,
              strFormat("line entry pc %u beyond code end %u", E.Pc, N));
    if (!boundary(E.Ip))
      finding("line-table", E.Pc,
              strFormat("line entry maps pc %u to non-boundary bytecode "
                        "offset %u",
                        E.Pc, E.Ip));
  }
}

void MCodeVerifier::checkPatchPoints() {
  // The patch table is the only road from a relocatable artifact to an
  // engine-absolute operand, so it gets the same structural scrutiny as
  // the code: every entry must target an in-range instruction of the kind
  // it claims to patch, at a real opcode boundary, and every CntInc must
  // be reachable *through* the table (an uncovered CntInc would execute
  // with its unbound zero operand). checkInst separately rejects CntInc
  // instructions that already carry a baked address.
  std::vector<bool> Covered(N, false);
  for (const PatchPoint &P : Code.Patches) {
    if (P.Pc >= N) {
      finding("patch-point", P.Pc,
              strFormat("patch point beyond code end %u", N));
      continue;
    }
    switch (P.Kind) {
    case PatchKind::CounterCell:
      if (Code.Insts[P.Pc].Op != MOp::CntInc)
        finding("patch-point", P.Pc,
                strFormat("CounterCell patch targets %s, not CntInc",
                          mopName(Code.Insts[P.Pc].Op)));
      else if (Covered[P.Pc])
        finding("patch-point", P.Pc, "duplicate patch point");
      else
        Covered[P.Pc] = true;
      if (P.Operand > ~uint32_t(0) || !boundary(uint32_t(P.Operand)))
        finding("patch-point", P.Pc,
                strFormat("CounterCell patch at non-boundary bytecode "
                          "offset %llu",
                          (unsigned long long)P.Operand));
      break;
    }
  }
  for (uint32_t Pc = 0; Pc < N; ++Pc)
    if (Code.Insts[Pc].Op == MOp::CntInc && !Covered[Pc])
      finding("patch-point", Pc,
              "CntInc not covered by any CounterCell patch point");
}

void MCodeVerifier::checkTrapCoverage() {
  for (uint32_t Pc = 0; Pc < N; ++Pc) {
    if (!Reach[Pc] || !mopCanTrap(Code.Insts[Pc].Op))
      continue;
    MOp MO = Code.Insts[Pc].Op;
    if (Code.LineTable.empty() || Pc < Code.LineTable.front().Pc) {
      finding("trap-coverage", Pc,
              strFormat("trapping %s not covered by any line-table entry",
                        mopName(MO)));
      continue;
    }
    uint32_t Ip = Code.ipForPc(Pc, ~0u);
    const OpSite *S = Scan.at(Ip);
    if (!S)
      continue; // Already reported by checkLineTable.
    if (!trapCoverCompatible(MO, S->Op))
      finding("trap-coverage", Pc,
              strFormat("trapping %s attributed to %s at offset %u, which "
                        "cannot trap",
                        mopName(MO), opName(S->Op), Ip));
  }
}

void MCodeVerifier::checkCallAndProbeShape() {
  for (uint32_t Pc = 0; Pc < N; ++Pc) {
    const MInst &I = Code.Insts[Pc];
    if (!Reach[Pc])
      continue;
    if (I.Op == MOp::CallDirect || I.Op == MOp::CallIndirect) {
      // The published Sp must agree with the argument base regardless of
      // pipeline (the stack walker and the callee both consume it).
      if (Pc > 0 && Code.Insts[Pc - 1].Op == MOp::StSp &&
          Code.Insts[Pc - 1].Imm != I.Imm2)
        finding("call-shape", Pc,
                strFormat("%s arg base %lld disagrees with published Sp "
                          "%lld",
                          mopName(I.Op), (long long)I.Imm2,
                          (long long)Code.Insts[Pc - 1].Imm));
      // Facts-tightened argument-window bounds, valid on every tier (the
      // optimizing one included): the argument base can never dip into the
      // locals area, and base + argument count must stay inside the frame
      // reservation the prologue made.
      if (Scope.HaveFacts &&
          (I.Op == MOp::CallDirect ? uint64_t(I.Imm) < M.Funcs.size()
                                   : uint64_t(I.Imm) < M.Types.size())) {
        const FuncType &AFT = I.Op == MOp::CallDirect
                                  ? M.funcType(uint32_t(I.Imm))
                                  : M.Types[size_t(I.Imm)];
        if (I.Imm2 < int64_t(NL))
          finding("call-shape", Pc,
                  strFormat("%s arg base %lld dips into the %u-slot locals "
                            "area",
                            mopName(I.Op), (long long)I.Imm2, NL));
        else if (I.Imm2 + int64_t(AFT.Params.size()) >
                 int64_t(Code.FrameSlots))
          finding("call-shape", Pc,
                  strFormat("%s arg base %lld + %zu args exceeds the %u-slot "
                            "frame reservation",
                            mopName(I.Op), (long long)I.Imm2,
                            AFT.Params.size(), Code.FrameSlots));
      }
      if (!Scope.CheckCallShape)
        continue;
      if (Pc == 0 || Code.Insts[Pc - 1].Op != MOp::StSp) {
        finding("call-shape", Pc,
                strFormat("%s without a preceding Sp publish", mopName(I.Op)));
        continue;
      }
      uint32_t Ip = Code.ipForPc(Pc, ~0u);
      const OpSite *S = Scan.at(Ip);
      if (!S)
        continue;
      Opcode Want =
          I.Op == MOp::CallDirect ? Opcode::Call : Opcode::CallIndirect;
      if (S->Op != Want) {
        finding("call-shape", Pc,
                strFormat("%s attributed to %s at offset %u", mopName(I.Op),
                          opName(S->Op), Ip));
        continue;
      }
      if (S->ImmA != uint64_t(I.Imm))
        finding("call-shape", Pc,
                strFormat("%s callee %lld disagrees with bytecode immediate "
                          "%u at offset %u",
                          mopName(I.Op), (long long)I.Imm, S->ImmA, Ip));
      // Out-of-range callee/type index (negative included via the unsigned
      // cast): checkInst already recorded the call-index finding, and there
      // is no signature to relate the arg base to — skip, don't deref.
      if (I.Op == MOp::CallDirect ? uint64_t(I.Imm) >= M.Funcs.size()
                                  : uint64_t(I.Imm) >= M.Types.size())
        continue;
      const FuncType &FT = I.Op == MOp::CallDirect
                               ? M.funcType(uint32_t(I.Imm))
                               : M.Types[size_t(I.Imm)];
      // call_indirect pops its i32 table index before the base is taken.
      uint32_t H = S->Height - (I.Op == MOp::CallIndirect ? 1 : 0);
      int64_t Want2 = int64_t(NL) + int64_t(H) - int64_t(FT.Params.size());
      if (I.Imm2 != Want2)
        finding("call-shape", Pc,
                strFormat("%s arg base %lld, validator stack shape demands "
                          "%lld (locals %u + height %u - %zu args)",
                          mopName(I.Op), (long long)I.Imm2, (long long)Want2,
                          NL, H, FT.Params.size()));
    } else if (I.Op == MOp::ProbeFire && Scope.CheckCallShape) {
      // Generic probes observe a fully-published frame: Sp set to the
      // validator's operand height at the probed opcode.
      const OpSite *S = I.Imm >= 0 ? Scan.at(uint32_t(I.Imm)) : nullptr;
      if (!S)
        continue; // Reported by checkInst.
      if (Pc == 0 || Code.Insts[Pc - 1].Op != MOp::StSp) {
        finding("probe-shape", Pc, "ProbeFire without a preceding Sp publish");
        continue;
      }
      int64_t Want = int64_t(NL) + int64_t(S->Height);
      if (Code.Insts[Pc - 1].Imm != Want)
        finding("probe-shape", Pc,
                strFormat("ProbeFire at offset %lld publishes Sp %lld, "
                          "validator height demands %lld",
                          (long long)I.Imm, (long long)Code.Insts[Pc - 1].Imm,
                          (long long)Want));
    }
  }
}

void MCodeVerifier::checkOsrEntries() {
  for (const MCode::OsrEntry &E : Code.OsrEntries) {
    const OpSite *S = Scan.at(E.Ip);
    if (!S) {
      finding("osr-entry", E.Pc,
              strFormat("OSR entry ip %u is not an opcode boundary", E.Ip));
      continue;
    }
    if (E.Pc >= N)
      finding("osr-entry", E.Pc,
              strFormat("OSR entry pc %u outside code [0, %u)", E.Pc, N));
    if (E.Stp != S->Stp)
      finding("osr-entry", E.Pc,
              strFormat("OSR entry at ip %u carries stp %u, validator says "
                        "%u",
                        E.Ip, E.Stp, S->Stp));
  }
}

void MCodeVerifier::checkFrameAndInsts() {
  if (Code.FrameSlots < NL)
    finding("frame-size", 0,
            strFormat("frame reserves %u slots but the function has %u "
                      "local slots",
                      Code.FrameSlots, NL));
  // With analyzer facts the floor tightens from "covers the locals" to
  // "covers locals + the reachable operand-stack bound" — and, unlike the
  // structural check, this applies to the optimizing tier too (its frame
  // is locals + spills + max reachable height + scratch, always >= this).
  else if (Scope.HaveFacts && Code.FrameSlots < NL + Scope.OperandStackBound)
    finding("frame-size", 0,
            strFormat("frame reserves %u slots but the analyzer's reachable "
                      "operand-stack bound demands %u (locals %u + stack "
                      "bound %u)",
                      Code.FrameSlots, NL + Scope.OperandStackBound, NL,
                      Scope.OperandStackBound));
  if (N == 0) {
    finding("empty-code", 0, "compiled body contains no instructions");
    return;
  }
  for (uint32_t Pc = 0; Pc < N; ++Pc)
    checkInst(Pc, Code.Insts[Pc]);
}

void MCodeVerifier::run() {
  checkFrameAndInsts();
  if (N == 0)
    return;
  computeReachability();
  checkLineTable();
  checkPatchPoints();
  if (Scope.TrapPcKnown)
    checkTrapCoverage();
  checkCallAndProbeShape();
  checkOsrEntries();
}

// --- Threaded-IR checks --------------------------------------------------

bool topIsBranch(TOp T) {
  switch (T) {
  case TOp::Br:
  case TOp::BrIf:
  case TOp::IfFalse:
    return true;
#define WISP_FUSE_CMPOP(Name, Cond)                                            \
  case TOp::Name##ThenBr:                                                      \
  case TOp::GetGet##Name##ThenBr:                                              \
    return true;
#include "interp/handlers.inc"
  default:
    return false;
  }
}

/// Fused units carrying two local indices in A/Aux.
bool topIsGetGet(TOp T) {
  switch (T) {
#define WISP_FUSE_BINOP(Name, Expr, Ty) case TOp::GetGet##Name:
#include "interp/handlers.inc"
    return true;
  default:
    return false;
  }
}

/// Fused units carrying one local index in A and a constant in B.
bool topIsGetConst(TOp T) {
  switch (T) {
#define WISP_FUSE_BINOP(Name, Expr, Ty) case TOp::GetConst##Name:
#include "interp/handlers.inc"
    return true;
  default:
    return false;
  }
}

/// Fused branch units packing two local indices into X (lo16/hi16).
bool topIsGetGetThenBr(TOp T) {
  switch (T) {
#define WISP_OP(Name, ...)
#define WISP_FUSE_CMPOP(Name, Cond) case TOp::GetGet##Name##ThenBr:
#include "interp/handlers.inc"
    return true;
  default:
    return false;
  }
}

class ThreadedVerifier {
public:
  ThreadedVerifier(const Module &M, const FuncDecl &F, const ThreadedCode &TC,
                   const std::function<bool(uint32_t)> &IsProbed,
                   const BodyScan &Scan, VerifyReport &Rep)
      : M(M), F(F), TC(TC), IsProbed(IsProbed), Scan(Scan), Rep(Rep),
        NL(F.numLocalSlots()) {}

  void run();

private:
  void finding(const char *Check, uint32_t Unit, std::string Detail) {
    if (Rep.Findings.size() < MaxFindings)
      Rep.Findings.push_back({Check, Unit, std::move(Detail)});
  }
  /// The fused span covering \p BcIp, or nullptr.
  const std::pair<uint32_t, uint32_t> *spanAt(uint32_t BcIp) const {
    for (const auto &Sp : TC.FusedSpans)
      if (BcIp >= Sp.first && BcIp < Sp.second)
        return &Sp;
    return nullptr;
  }
  void checkUnits();
  void checkBranchUnit(uint32_t Idx, const IrUnit &U);
  void checkBrTableUnit(uint32_t Idx, const IrUnit &U);
  void checkResolvedTarget(uint32_t Idx, const SideTableEntry &E,
                           uint32_t TargetUnit, uint32_t DstBase,
                           uint32_t ValCount, uint64_t IpFlag,
                           uint32_t BrOpIp);
  void checkIndices(uint32_t Idx, const IrUnit &U);
  void checkFusedSpans();
  void checkProbeUnits();

  const Module &M;
  const FuncDecl &F;
  const ThreadedCode &TC;
  const std::function<bool(uint32_t)> &IsProbed;
  const BodyScan &Scan;
  VerifyReport &Rep;
  const uint32_t NL;
};

void ThreadedVerifier::checkResolvedTarget(uint32_t Idx,
                                           const SideTableEntry &E,
                                           uint32_t TargetUnit,
                                           uint32_t DstBase, uint32_t ValCount,
                                           uint64_t IpFlag, uint32_t BrOpIp) {
  uint32_t Want = TC.unitIndexAt(E.TargetIp);
  if (Want == ThreadedCode::NoUnit) {
    finding("threaded-branch", Idx,
            strFormat("branch target ip %u resolves to no unit (inside a "
                      "fused span or past the end)",
                      E.TargetIp));
    return;
  }
  // Backward branches deliberately resolve PAST an exact-match loop-header
  // fuel gate: the branch handler itself charges taken backedges, so
  // landing on the gate would double-charge the arrival.
  if (Want < TC.Units.size() && TOp(TC.Units[Want].Op) == TOp::FuelGate &&
      TC.Units[Want].BcIp == E.TargetIp && E.TargetIp <= BrOpIp)
    ++Want;
  if (TargetUnit != Want)
    finding("threaded-branch", Idx,
            strFormat("branch resolves to unit %u, side table demands unit "
                      "%u (target ip %u)",
                      TargetUnit, Want, E.TargetIp));
  if (DstBase != NL + E.TargetHeight)
    finding("threaded-slot-base", Idx,
            strFormat("destination slot base %u, recomputed stack depth "
                      "demands %u (locals %u + target height %u)",
                      DstBase, NL + E.TargetHeight, NL, E.TargetHeight));
  if (ValCount != E.ValCount)
    finding("threaded-branch", Idx,
            strFormat("merge value count %u, side table says %u", ValCount,
                      E.ValCount));
  uint64_t WantFlag = E.TargetIp;
  if (E.TargetIp <= BrOpIp)
    WantFlag |= uint64_t(1) << 32;
  if (IpFlag != WantFlag)
    finding("threaded-branch", Idx,
            strFormat("target ip/backward word 0x%llx, recomputed 0x%llx",
                      (unsigned long long)IpFlag,
                      (unsigned long long)WantFlag));
}

void ThreadedVerifier::checkBranchUnit(uint32_t Idx, const IrUnit &U) {
  if (U.Stp >= F.Table.Entries.size()) {
    finding("threaded-branch", Idx,
            strFormat("branch unit stp %u outside side table of %zu entries",
                      U.Stp, F.Table.Entries.size()));
    return;
  }
  // The branching opcode is the last constituent: the unit's own opcode
  // unless fusion folded a comparison (and local.gets) in front of the
  // br_if, in which case it is the last boundary inside the fused span.
  // None of the non-branch constituents emit side-table entries, so the
  // unit's recorded Stp is also the branch entry index.
  uint32_t BrOpIp = U.BcIp;
  if (const auto *Sp = spanAt(U.BcIp)) {
    if (size_t I = Scan.lowerBound(Sp->second))
      BrOpIp = Scan.Sites[I - 1].Ip;
  }
  const SideTableEntry &E = F.Table.Entries[U.Stp];
  checkResolvedTarget(Idx, E, U.A, U.Aux, U.ValCount, U.B, BrOpIp);
}

void ThreadedVerifier::checkBrTableUnit(uint32_t Idx, const IrUnit &U) {
  uint64_t End = uint64_t(U.A) + U.X + 1;
  if (End > TC.Cases.size()) {
    finding("threaded-branch", Idx,
            strFormat("br_table cases [%u, %llu) outside %zu stored cases",
                      U.A, (unsigned long long)End, TC.Cases.size()));
    return;
  }
  if (uint64_t(U.Stp) + U.X + 1 > F.Table.Entries.size()) {
    finding("threaded-branch", Idx,
            strFormat("br_table stp %u + %u cases outside side table of %zu "
                      "entries",
                      U.Stp, U.X + 1, F.Table.Entries.size()));
    return;
  }
  for (uint32_t K = 0; K <= U.X; ++K) {
    const BrCase &C = TC.Cases[U.A + K];
    const SideTableEntry &E = F.Table.Entries[U.Stp + K];
    checkResolvedTarget(Idx, E, C.TargetUnit, C.DstBase, C.ValCount, C.IpFlag,
                        U.BcIp);
  }
}

void ThreadedVerifier::checkIndices(uint32_t Idx, const IrUnit &U) {
  const uint32_t NLoc = uint32_t(F.LocalTypes.size());
  auto local = [&](uint32_t L, const char *What) {
    if (L >= NLoc)
      finding("threaded-index", Idx,
              strFormat("%s local %u outside %u locals", What, L, NLoc));
  };
  TOp T = TOp(U.Op);
  switch (T) {
  case TOp::LocalGet:
  case TOp::LocalSet:
  case TOp::LocalTee:
    local(U.A, "local access");
    break;
  case TOp::SetGet:
    local(U.A, "set side");
    local(U.Aux, "get side");
    break;
  case TOp::GlobalGet:
  case TOp::GlobalSet:
    if (U.A >= M.Globals.size())
      finding("threaded-index", Idx,
              strFormat("global %u outside %zu globals", U.A,
                        M.Globals.size()));
    break;
  case TOp::Call:
    if (U.A >= M.Funcs.size())
      finding("threaded-index", Idx,
              strFormat("call target %u outside %zu functions", U.A,
                        M.Funcs.size()));
    break;
  case TOp::CallIndirect:
    if (U.A >= M.Types.size())
      finding("threaded-index", Idx,
              strFormat("call_indirect type %u outside %zu types", U.A,
                        M.Types.size()));
    if (U.Aux >= M.Tables.size())
      finding("threaded-index", Idx,
              strFormat("call_indirect table %u outside %zu tables", U.Aux,
                        M.Tables.size()));
    break;
  default:
    if (topIsGetGet(T)) {
      local(U.A, "fused left operand");
      local(U.Aux, "fused right operand");
    } else if (topIsGetConst(T)) {
      local(U.A, "fused left operand");
    } else if (topIsGetGetThenBr(T)) {
      local(U.X & 0xffff, "fused left operand");
      local(U.X >> 16, "fused right operand");
    }
    break;
  }
}

void ThreadedVerifier::checkUnits() {
  if (TC.Units.empty()) {
    finding("threaded-units", 0, "threaded body contains no units");
    return;
  }
  uint32_t PrevIp = 0;
  for (uint32_t Idx = 0; Idx < TC.Units.size(); ++Idx) {
    const IrUnit &U = TC.Units[Idx];
    if (U.Op >= uint16_t(TOp::Count)) {
      finding("threaded-units", Idx,
              strFormat("unknown handler token %u", U.Op));
      continue;
    }
    // A loop-header fuel gate shares its BcIp with the real header unit
    // that follows; that is the one sanctioned duplicate.
    if (Idx && (U.BcIp < PrevIp ||
                (U.BcIp == PrevIp &&
                 TOp(TC.Units[Idx - 1].Op) != TOp::FuelGate)))
      finding("threaded-units", Idx,
              strFormat("units not strictly ascending: ip %u after %u",
                        U.BcIp, PrevIp));
    PrevIp = U.BcIp;
    const OpSite *S = Scan.at(U.BcIp);
    if (!S) {
      finding("threaded-units", Idx,
              strFormat("unit ip %u is not an opcode boundary", U.BcIp));
      continue;
    }
    if (U.Stp != S->Stp)
      finding("threaded-units", Idx,
              strFormat("unit at ip %u carries stp %u, validator says %u",
                        U.BcIp, U.Stp, S->Stp));
    TOp T = TOp(U.Op);
    if (T == TOp::BrTable)
      checkBrTableUnit(Idx, U);
    else if (topIsBranch(T))
      checkBranchUnit(Idx, U);
    checkIndices(Idx, U);
  }
  const IrUnit &Last = TC.Units.back();
  if (TOp(Last.Op) != TOp::Return || Last.BcIp != Scan.TermEndIp)
    finding("threaded-units", uint32_t(TC.Units.size() - 1),
            strFormat("last unit (ip %u) is not the function-terminating "
                      "end at %u",
                      Last.BcIp, Scan.TermEndIp));
}

void ThreadedVerifier::checkFusedSpans() {
  if (TC.NumFused != TC.FusedSpans.size())
    finding("threaded-fusion", 0,
            strFormat("%u fused units but %zu recorded spans", TC.NumFused,
                      TC.FusedSpans.size()));
  uint32_t PrevEnd = 0;
  for (const auto &Sp : TC.FusedSpans) {
    if (Sp.first < PrevEnd || Sp.first >= Sp.second ||
        Sp.first < F.BodyStart || Sp.second > F.BodyEnd) {
      finding("threaded-fusion", 0,
              strFormat("malformed fused span [%u, %u)", Sp.first,
                        Sp.second));
      continue;
    }
    PrevEnd = Sp.second;
    // The span must start at a real unit...
    uint32_t Idx = TC.unitIndexAt(Sp.first);
    if (Idx == ThreadedCode::NoUnit || TC.Units[Idx].BcIp != Sp.first)
      finding("threaded-fusion", 0,
              strFormat("fused span [%u, %u) does not start at a unit",
                        Sp.first, Sp.second));
    // ...and no interior opcode may be a branch target or probed: a frame
    // resuming there (branch, probe fire, deopt) would land mid-fusion.
    for (const SideTableEntry &E : F.Table.Entries)
      if (E.TargetIp > Sp.first && E.TargetIp < Sp.second)
        finding("threaded-fusion", Idx,
                strFormat("branch target ip %u lands inside fused span "
                          "[%u, %u)",
                          E.TargetIp, Sp.first, Sp.second));
    if (IsProbed) {
      for (size_t I = Scan.lowerBound(Sp.first + 1);
           I < Scan.Sites.size() && Scan.Sites[I].Ip < Sp.second; ++I)
        if (IsProbed(Scan.Sites[I].Ip))
          finding("threaded-fusion", Idx,
                  strFormat("probed offset %u lies inside fused span "
                            "[%u, %u)",
                            Scan.Sites[I].Ip, Sp.first, Sp.second));
    }
  }
}

void ThreadedVerifier::checkProbeUnits() {
  if (!IsProbed)
    return;
  for (const OpSite &S : Scan.Sites) {
    if (!IsProbed(S.Ip))
      continue;
    uint32_t Idx = TC.unitIndexAt(S.Ip);
    if (Idx == ThreadedCode::NoUnit || TC.Units[Idx].BcIp != S.Ip)
      finding("threaded-probe", Idx == ThreadedCode::NoUnit ? 0 : Idx,
              strFormat("probed offset %u has no exact unit", S.Ip));
  }
}

void ThreadedVerifier::run() {
  checkUnits();
  checkFusedSpans();
  checkProbeUnits();
}

} // namespace

// --- Public API ----------------------------------------------------------

std::string VerifyFinding::text() const {
  return strFormat("[%s] pc %u: %s", Check.c_str(), Pc, Detail.c_str());
}

std::string VerifyReport::text() const {
  std::string S;
  for (const VerifyFinding &Fi : Findings) {
    if (!S.empty())
      S += "\n";
    S += strFormat("func %u ", FuncIndex) + Fi.text();
  }
  return S;
}

VerifyReport wisp::verifyMachineCode(const Module &M, const FuncDecl &F,
                                     const MCode &Code,
                                     const VerifyScope &Scope) {
  VerifyReport Rep;
  Rep.FuncIndex = F.Index;
  BodyScan Scan = BodyScanner(M, F).run();
  if (!Scan.Ok) {
    Rep.Findings.push_back(
        {"body-scan", 0, "cannot rederive validator coordinates: " +
                             Scan.Error});
    return Rep;
  }
  MCodeVerifier(M, F, Code, Scope, Scan, Rep).run();
  return Rep;
}

VerifyReport
wisp::verifyThreadedCode(const Module &M, const FuncDecl &F,
                         const ThreadedCode &TC,
                         const std::function<bool(uint32_t)> &IsProbed) {
  VerifyReport Rep;
  Rep.FuncIndex = F.Index;
  BodyScan Scan = BodyScanner(M, F).run();
  if (!Scan.Ok) {
    Rep.Findings.push_back(
        {"body-scan", 0, "cannot rederive validator coordinates: " +
                             Scan.Error});
    return Rep;
  }
  ThreadedVerifier(M, F, TC, IsProbed, Scan, Rep).run();
  return Rep;
}
