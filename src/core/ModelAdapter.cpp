//===- core/ModelAdapter.cpp - From R to (s_R, gr_R Σ) ----------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "core/ModelAdapter.h"

using namespace slp;
using namespace slp::core;

sl::Stack core::inducedStack(const GroundRewriteSystem &R,
                             std::span<const Symbol> Constants) {
  sl::Stack S;
  sl::Loc NextLoc = 1;

  for (Symbol C : Constants) {
    // A bound normal form already has its location: only a normal form
    // or a constant of its class is bound, and both to that location.
    Symbol NF = R.normalize(C);
    sl::Loc L = S.bound(NF) ? S.eval(NF) : NextLoc++;
    if (!C.isNil())
      S.bind(C, L);
    if (!NF.isNil())
      S.bind(NF, L);
  }
  return S;
}

sl::Heap core::graphHeap(const sl::Stack &S, const sl::SpatialFormula &Sigma) {
  sl::Heap H;
  for (const sl::HeapAtom &A : Sigma) {
    if (A.isTrivialLseg())
      continue;
    sl::Loc Addr = S.eval(A.Addr);
    sl::Loc Val = S.eval(A.Val);
    assert(Addr != sl::NilLoc && "well-formed atoms have non-nil addresses");
    assert(!H.contains(Addr) && "well-formed atoms have distinct addresses");
    H.set(Addr, Val);
  }
  return H;
}
