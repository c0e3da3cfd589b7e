//===- machine/lowering.cpp - opcode lowering table -----------------------===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "machine/lowering.h"

#include <array>

using namespace wisp;

namespace {

struct Row {
  Opcode Op;
  MOp Reg;
  MOp Imm = MOp::Nop;
  uint8_t Cond = 0;
  bool Commutative = false;
};

constexpr uint8_t cc(Cond C) { return uint8_t(C); }
constexpr uint8_t cc(FCond C) { return uint8_t(C); }

using O = Opcode;
using M = MOp;

// One row per fixed-signature opcode except memory.size, in encoding
// order. The single-pass compiler lowers i32.eqz/i64.eqz as compares
// against zero (so its peephole can fuse them) and, like the optimizer,
// memory.grow in a case of its own; their rows serve the other compilers.
constexpr Row Rows[] = {
    {O::I32Load, M::LdM32},
    {O::I64Load, M::LdM64},
    {O::F32Load, M::LdMF32},
    {O::F64Load, M::LdMF64},
    {O::I32Load8S, M::LdM8S32},
    {O::I32Load8U, M::LdM8U32},
    {O::I32Load16S, M::LdM16S32},
    {O::I32Load16U, M::LdM16U32},
    {O::I64Load8S, M::LdM8S64},
    {O::I64Load8U, M::LdM8U64},
    {O::I64Load16S, M::LdM16S64},
    {O::I64Load16U, M::LdM16U64},
    {O::I64Load32S, M::LdM32S64},
    {O::I64Load32U, M::LdM32U64},
    {O::I32Store, M::StM32},
    {O::I64Store, M::StM64},
    {O::F32Store, M::StMF32},
    {O::F64Store, M::StMF64},
    {O::I32Store8, M::StM8},
    {O::I32Store16, M::StM16},
    {O::I64Store8, M::StM8},
    {O::I64Store16, M::StM16},
    {O::I64Store32, M::StM32},
    {O::MemoryGrow, M::MemGrow},
    {O::I32Eqz, M::Eqz32},
    {O::I32Eq, M::CmpSet32, M::CmpSetI32, cc(Cond::Eq)},
    {O::I32Ne, M::CmpSet32, M::CmpSetI32, cc(Cond::Ne)},
    {O::I32LtS, M::CmpSet32, M::CmpSetI32, cc(Cond::LtS)},
    {O::I32LtU, M::CmpSet32, M::CmpSetI32, cc(Cond::LtU)},
    {O::I32GtS, M::CmpSet32, M::CmpSetI32, cc(Cond::GtS)},
    {O::I32GtU, M::CmpSet32, M::CmpSetI32, cc(Cond::GtU)},
    {O::I32LeS, M::CmpSet32, M::CmpSetI32, cc(Cond::LeS)},
    {O::I32LeU, M::CmpSet32, M::CmpSetI32, cc(Cond::LeU)},
    {O::I32GeS, M::CmpSet32, M::CmpSetI32, cc(Cond::GeS)},
    {O::I32GeU, M::CmpSet32, M::CmpSetI32, cc(Cond::GeU)},
    {O::I64Eqz, M::Eqz64},
    {O::I64Eq, M::CmpSet64, M::CmpSetI64, cc(Cond::Eq)},
    {O::I64Ne, M::CmpSet64, M::CmpSetI64, cc(Cond::Ne)},
    {O::I64LtS, M::CmpSet64, M::CmpSetI64, cc(Cond::LtS)},
    {O::I64LtU, M::CmpSet64, M::CmpSetI64, cc(Cond::LtU)},
    {O::I64GtS, M::CmpSet64, M::CmpSetI64, cc(Cond::GtS)},
    {O::I64GtU, M::CmpSet64, M::CmpSetI64, cc(Cond::GtU)},
    {O::I64LeS, M::CmpSet64, M::CmpSetI64, cc(Cond::LeS)},
    {O::I64LeU, M::CmpSet64, M::CmpSetI64, cc(Cond::LeU)},
    {O::I64GeS, M::CmpSet64, M::CmpSetI64, cc(Cond::GeS)},
    {O::I64GeU, M::CmpSet64, M::CmpSetI64, cc(Cond::GeU)},
    {O::F32Eq, M::CmpSetF32, M::Nop, cc(FCond::Eq)},
    {O::F32Ne, M::CmpSetF32, M::Nop, cc(FCond::Ne)},
    {O::F32Lt, M::CmpSetF32, M::Nop, cc(FCond::Lt)},
    {O::F32Gt, M::CmpSetF32, M::Nop, cc(FCond::Gt)},
    {O::F32Le, M::CmpSetF32, M::Nop, cc(FCond::Le)},
    {O::F32Ge, M::CmpSetF32, M::Nop, cc(FCond::Ge)},
    {O::F64Eq, M::CmpSetF64, M::Nop, cc(FCond::Eq)},
    {O::F64Ne, M::CmpSetF64, M::Nop, cc(FCond::Ne)},
    {O::F64Lt, M::CmpSetF64, M::Nop, cc(FCond::Lt)},
    {O::F64Gt, M::CmpSetF64, M::Nop, cc(FCond::Gt)},
    {O::F64Le, M::CmpSetF64, M::Nop, cc(FCond::Le)},
    {O::F64Ge, M::CmpSetF64, M::Nop, cc(FCond::Ge)},
    {O::I32Clz, M::Clz32},
    {O::I32Ctz, M::Ctz32},
    {O::I32Popcnt, M::Popcnt32},
    {O::I32Add, M::Add32, M::AddI32, 0, true},
    {O::I32Sub, M::Sub32},
    {O::I32Mul, M::Mul32, M::MulI32, 0, true},
    {O::I32DivS, M::DivS32},
    {O::I32DivU, M::DivU32},
    {O::I32RemS, M::RemS32},
    {O::I32RemU, M::RemU32},
    {O::I32And, M::And32, M::AndI32, 0, true},
    {O::I32Or, M::Or32, M::OrI32, 0, true},
    {O::I32Xor, M::Xor32, M::XorI32, 0, true},
    {O::I32Shl, M::Shl32, M::ShlI32},
    {O::I32ShrS, M::ShrS32, M::ShrSI32},
    {O::I32ShrU, M::ShrU32, M::ShrUI32},
    {O::I32Rotl, M::Rotl32},
    {O::I32Rotr, M::Rotr32},
    {O::I64Clz, M::Clz64},
    {O::I64Ctz, M::Ctz64},
    {O::I64Popcnt, M::Popcnt64},
    {O::I64Add, M::Add64, M::AddI64, 0, true},
    {O::I64Sub, M::Sub64},
    {O::I64Mul, M::Mul64, M::MulI64, 0, true},
    {O::I64DivS, M::DivS64},
    {O::I64DivU, M::DivU64},
    {O::I64RemS, M::RemS64},
    {O::I64RemU, M::RemU64},
    {O::I64And, M::And64, M::AndI64, 0, true},
    {O::I64Or, M::Or64, M::OrI64, 0, true},
    {O::I64Xor, M::Xor64, M::XorI64, 0, true},
    {O::I64Shl, M::Shl64, M::ShlI64},
    {O::I64ShrS, M::ShrS64, M::ShrSI64},
    {O::I64ShrU, M::ShrU64, M::ShrUI64},
    {O::I64Rotl, M::Rotl64},
    {O::I64Rotr, M::Rotr64},
    {O::F32Abs, M::AbsF32},
    {O::F32Neg, M::NegF32},
    {O::F32Ceil, M::CeilF32},
    {O::F32Floor, M::FloorF32},
    {O::F32Trunc, M::TruncF32},
    {O::F32Nearest, M::NearestF32},
    {O::F32Sqrt, M::SqrtF32},
    {O::F32Add, M::AddF32},
    {O::F32Sub, M::SubF32},
    {O::F32Mul, M::MulF32},
    {O::F32Div, M::DivF32},
    {O::F32Min, M::MinF32},
    {O::F32Max, M::MaxF32},
    {O::F32Copysign, M::CopysignF32},
    {O::F64Abs, M::AbsF64},
    {O::F64Neg, M::NegF64},
    {O::F64Ceil, M::CeilF64},
    {O::F64Floor, M::FloorF64},
    {O::F64Trunc, M::TruncF64},
    {O::F64Nearest, M::NearestF64},
    {O::F64Sqrt, M::SqrtF64},
    {O::F64Add, M::AddF64},
    {O::F64Sub, M::SubF64},
    {O::F64Mul, M::MulF64},
    {O::F64Div, M::DivF64},
    {O::F64Min, M::MinF64},
    {O::F64Max, M::MaxF64},
    {O::F64Copysign, M::CopysignF64},
    {O::I32WrapI64, M::Wrap64},
    {O::I32TruncF32S, M::TruncF32I32S},
    {O::I32TruncF32U, M::TruncF32I32U},
    {O::I32TruncF64S, M::TruncF64I32S},
    {O::I32TruncF64U, M::TruncF64I32U},
    {O::I64ExtendI32S, M::ExtS3264},
    {O::I64ExtendI32U, M::Wrap64},
    {O::I64TruncF32S, M::TruncF32I64S},
    {O::I64TruncF32U, M::TruncF32I64U},
    {O::I64TruncF64S, M::TruncF64I64S},
    {O::I64TruncF64U, M::TruncF64I64U},
    {O::F32ConvertI32S, M::ConvI32SF32},
    {O::F32ConvertI32U, M::ConvI32UF32},
    {O::F32ConvertI64S, M::ConvI64SF32},
    {O::F32ConvertI64U, M::ConvI64UF32},
    {O::F32DemoteF64, M::DemoteF64},
    {O::F64ConvertI32S, M::ConvI32SF64},
    {O::F64ConvertI32U, M::ConvI32UF64},
    {O::F64ConvertI64S, M::ConvI64SF64},
    {O::F64ConvertI64U, M::ConvI64UF64},
    {O::F64PromoteF32, M::PromoteF32},
    {O::I32ReinterpretF32, M::RintFG32},
    {O::I64ReinterpretF64, M::RintFG64},
    {O::F32ReinterpretI32, M::RintGF32},
    {O::F64ReinterpretI64, M::RintGF64},
    {O::I32Extend8S, M::Ext8S32},
    {O::I32Extend16S, M::Ext16S32},
    {O::I64Extend8S, M::Ext8S64},
    {O::I64Extend16S, M::Ext16S64},
    {O::I64Extend32S, M::Ext32S64},
    {O::I32TruncSatF32S, M::TruncSatF32I32S},
    {O::I32TruncSatF32U, M::TruncSatF32I32U},
    {O::I32TruncSatF64S, M::TruncSatF64I32S},
    {O::I32TruncSatF64U, M::TruncSatF64I32U},
    {O::I64TruncSatF32S, M::TruncSatF32I64S},
    {O::I64TruncSatF32U, M::TruncSatF32I64U},
    {O::I64TruncSatF64S, M::TruncSatF64I64S},
    {O::I64TruncSatF64U, M::TruncSatF64I64U},
};

/// Plain and 0xFC-prefixed opcode spaces, as in opInfo().
struct LoweringTables {
  std::array<Lowering, 256> Plain{};
  std::array<Lowering, 16> Prefixed{};
};

constexpr LoweringTables buildTables() {
  LoweringTables T;
  for (const Row &R : Rows) {
    uint16_t V = uint16_t(R.Op);
    Lowering &L = V >= 0xFC00 ? T.Prefixed[V & 0xff] : T.Plain[V];
    L = Lowering{R.Reg, R.Imm, R.Cond, R.Commutative};
  }
  return T;
}

constexpr LoweringTables Tables = buildTables();
constexpr Lowering NoLowering{};

} // namespace

const Lowering &wisp::lowering(Opcode Op) {
  uint16_t V = uint16_t(Op);
  if (V >= 0xFC00)
    return (V & 0xff) < Tables.Prefixed.size() ? Tables.Prefixed[V & 0xff]
                                               : NoLowering;
  return V < Tables.Plain.size() ? Tables.Plain[V] : NoLowering;
}
