//===- sl/Semantics.cpp - Executable model semantics ------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "sl/Semantics.h"

#include <set>
#include <sstream>

using namespace slp;
using namespace slp::sl;

bool sl::satisfies(const Stack &S, const PureAtom &A) {
  bool Equal = S.eval(A.Lhs) == S.eval(A.Rhs);
  return A.Negated ? !Equal : Equal;
}

bool sl::satisfies(const Stack &S, const Heap &H,
                   const SpatialFormula &Sigma) {
  // Each heap cell must be consumed by exactly one atom. In a
  // functional heap the edges any atom can consume are forced: a next
  // atom consumes its address cell, an lseg atom consumes the unique
  // walk from its address to the first occurrence of its target.
  std::set<Loc> Used;

  for (const HeapAtom &A : Sigma) {
    Loc Addr = S.eval(A.Addr);
    Loc Val = S.eval(A.Val);
    if (A.isNext()) {
      if (Addr == NilLoc || !H.contains(Addr) || Used.count(Addr) ||
          H.get(Addr) != Val)
        return false;
      Used.insert(Addr);
      continue;
    }
    // lseg: empty iff the endpoints coincide; otherwise walk the
    // unique simple path. Reusing a consumed cell would mean either a
    // cycle (not a simple path) or overlap with another atom.
    if (Addr == Val)
      continue;
    Loc Cur = Addr;
    while (Cur != Val) {
      if (Cur == NilLoc || !H.contains(Cur) || Used.count(Cur))
        return false;
      Used.insert(Cur);
      Cur = H.get(Cur);
    }
  }

  return Used.size() == H.size();
}

bool sl::satisfies(const Stack &S, const Heap &H, const Assertion &A) {
  for (const PureAtom &P : A.Pure)
    if (!satisfies(S, P))
      return false;
  return satisfies(S, H, A.Spatial);
}

bool sl::isCounterexample(const Stack &S, const Heap &H,
                          const Entailment &E) {
  return satisfies(S, H, E.Lhs) && !satisfies(S, H, E.Rhs);
}

std::string sl::str(const TermTable &Terms, const Stack &S, const Heap &H) {
  std::ostringstream OS;
  OS << "stack:";
  // Bindings come in symbol-id order, which keeps the output stable.
  S.forEachBinding(
      [&](Symbol Var, Loc L) { OS << ' ' << Terms.str(Var) << '=' << L; });
  OS << "; heap:";
  if (H.empty())
    OS << " emp";
  for (auto [From, To] : H.cells())
    OS << ' ' << From << "->" << To;
  return OS.str();
}
