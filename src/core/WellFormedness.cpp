//===- core/WellFormedness.cpp - Rules W1-W5 ---------------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "core/WellFormedness.h"

using namespace slp;
using namespace slp::core;

bool core::isWellFormed(const sl::SpatialFormula &Sigma) {
  for (size_t I = 0; I != Sigma.size(); ++I) {
    if (Sigma[I].Addr.isNil())
      return false;
    for (size_t J = I + 1; J != Sigma.size(); ++J)
      if (Sigma[I].Addr == Sigma[J].Addr)
        return false;
  }
  return true;
}

std::vector<PureInput>
core::wellFormednessConsequences(const PosSpatialClause &C) {
  std::vector<PureInput> Out;
  const sl::SpatialFormula &Sigma = C.Sigma;

  auto Emit = [&](std::vector<sup::Equation> Extra, InputRule Rule) {
    PureInput In;
    In.Neg = C.Neg;
    In.Pos = C.Pos;
    for (sup::Equation &E : Extra)
      In.Pos.push_back(E);
    In.Rule = Rule;
    Out.push_back(std::move(In));
  };

  for (size_t I = 0; I != Sigma.size(); ++I) {
    const sl::HeapAtom &A = Sigma[I];

    // W1/W2: nil may not address a heap cell.
    if (A.Addr.isNil()) {
      if (A.isNext())
        Emit({}, InputRule::W1);
      else
        Emit({sup::Equation(A.Val, A.Addr)}, InputRule::W2);
    }

    // W3/W4/W5: two disjoint cells cannot share an address.
    for (size_t J = I + 1; J != Sigma.size(); ++J) {
      const sl::HeapAtom &B = Sigma[J];
      if (A.Addr != B.Addr)
        continue;
      if (A.isNext() && B.isNext()) {
        Emit({}, InputRule::W3);
      } else if (A.isNext() || B.isNext()) {
        // W4: the lseg of the pair must be empty.
        const sl::HeapAtom &L = A.isLseg() ? A : B;
        Emit({sup::Equation(L.Addr, L.Val)}, InputRule::W4);
      } else {
        // W5: one of the two lsegs must be empty.
        Emit({sup::Equation(A.Addr, A.Val), sup::Equation(B.Addr, B.Val)},
             InputRule::W5);
      }
    }
  }
  return Out;
}
