//===- machine/lowering.h - opcode lowering table ---------------*- C++ -*-===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// How each fixed-signature wasm opcode becomes a machine instruction. One
/// table, indexed by Opcode like opInfo(), serves the single-pass compiler,
/// copy-and-patch and the optimizing compiler: it names the machine ops
/// and condition code, while each compiler takes the operand shape (unary,
/// binary, load, store, may trap) from OpInfo. The compilers differ only
/// in what they do around these ops — the paper's Figure 3 design choices.
///
/// The table lives with the target ISA rather than in OpInfo because the
/// wasm layer must not depend on MOp.
///
//===----------------------------------------------------------------------===//

#ifndef WISP_MACHINE_LOWERING_H
#define WISP_MACHINE_LOWERING_H

#include "machine/isa.h"
#include "wasm/opcodes.h"

namespace wisp {

/// The machine ops of one fixed-signature opcode.
struct Lowering {
  /// Register form, every operand in a register; Nop when the opcode has
  /// no entry (control, locals, calls, constants, memory.size).
  MOp Reg = MOp::Nop;
  /// Immediate form (Imm=rhs constant) of an integer binary op or
  /// compare, or Nop.
  MOp Imm = MOp::Nop;
  /// Cond or FCond of a compare (the D field); 0 otherwise.
  uint8_t Cond = 0;
  /// A binary ALU op whose operands commute, so a constant lhs may take
  /// the immediate form. Compares keep their operand order.
  bool Commutative = false;

  bool isCompare() const {
    return Reg == MOp::CmpSet32 || Reg == MOp::CmpSet64 ||
           Reg == MOp::CmpSetF32 || Reg == MOp::CmpSetF64;
  }
};

/// Returns the lowering of \p Op; Reg is Nop for opcodes without one.
const Lowering &lowering(Opcode Op);

} // namespace wisp

#endif // WISP_MACHINE_LOWERING_H
