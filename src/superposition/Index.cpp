//===- superposition/Index.cpp - Clause indexing --------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "superposition/Index.h"

#include "support/Hashing.h"

#include <cassert>

using namespace slp;
using namespace slp::sup;

//===----------------------------------------------------------------------===//
// ClauseSig
//===----------------------------------------------------------------------===//

uint64_t ClauseSig::symbolBit(Symbol S) {
  return 1ull << (hashValue(S.id()) & 63);
}

ClauseSig ClauseSig::of(ClauseView C) {
  ClauseSig S;
  for (const Equation &E : C.neg()) {
    S.Neg |= equationBit(E);
    S.Syms |= symbolBit(E.lhs()) | symbolBit(E.rhs());
  }
  for (const Equation &E : C.pos()) {
    S.Pos |= equationBit(E);
    S.Syms |= symbolBit(E.lhs()) | symbolBit(E.rhs());
  }
  return S;
}

//===----------------------------------------------------------------------===//
// DemodIndex
//===----------------------------------------------------------------------===//

void DemodIndex::addLhs(Symbol S) {
  uint64_t Bit = ClauseSig::symbolBit(S);
  unsigned Pos = static_cast<unsigned>(__builtin_ctzll(Bit));
  if (BitCount[Pos]++ == 0)
    Mask |= Bit;
}

void DemodIndex::removeLhs(Symbol S) {
  uint64_t Bit = ClauseSig::symbolBit(S);
  unsigned Pos = static_cast<unsigned>(__builtin_ctzll(Bit));
  assert(BitCount[Pos] != 0 && "removing a rule that was never added");
  if (--BitCount[Pos] == 0)
    Mask &= ~Bit;
}
