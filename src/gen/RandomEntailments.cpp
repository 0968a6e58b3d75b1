//===- gen/RandomEntailments.cpp - §6 random distributions -------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "gen/RandomEntailments.h"

#include <numeric>
#include <string>
#include <vector>

using namespace slp;
using namespace slp::gen;

static std::vector<Symbol> makeVars(TermTable &Terms, unsigned NumVars) {
  std::vector<Symbol> Vars;
  Vars.reserve(NumVars);
  for (unsigned I = 1; I <= NumVars; ++I)
    Vars.push_back(Terms.constant("x" + std::to_string(I)));
  return Vars;
}

sl::Entailment gen::distribution1(TermTable &Terms, SplitMix64 &Rng,
                                  unsigned NumVars, double PLseg,
                                  double PNe) {
  std::vector<Symbol> Vars = makeVars(Terms, NumVars);
  sl::Entailment E;
  for (unsigned I = 0; I != NumVars; ++I)
    for (unsigned J = 0; J != NumVars; ++J)
      if (I != J && Rng.chance(PLseg))
        E.Lhs.Spatial.push_back(sl::HeapAtom::lseg(Vars[I], Vars[J]));
  for (unsigned I = 0; I != NumVars; ++I)
    for (unsigned J = I + 1; J != NumVars; ++J)
      if (Rng.chance(PNe))
        E.Lhs.Pure.push_back(sl::PureAtom::ne(Vars[I], Vars[J]));
  // ⊥: an unsatisfiable right-hand side.
  E.Rhs.Pure.push_back(sl::PureAtom::ne(Terms.nil(), Terms.nil()));
  return E;
}

sl::Entailment gen::distribution2(TermTable &Terms, SplitMix64 &Rng,
                                  unsigned NumVars, double PNext) {
  assert(NumVars >= 2 && "a fixed-point-free permutation needs >= 2 points");
  std::vector<Symbol> Vars = makeVars(Terms, NumVars);

  // Random fixed-point-free permutation π by rejection sampling
  // (expected ~e attempts).
  std::vector<unsigned> Pi(NumVars);
  for (;;) {
    std::iota(Pi.begin(), Pi.end(), 0u);
    // Fisher-Yates.
    for (unsigned I = NumVars - 1; I != 0; --I) {
      unsigned J = static_cast<unsigned>(Rng.below(I + 1));
      std::swap(Pi[I], Pi[J]);
    }
    bool HasFixpoint = false;
    for (unsigned I = 0; I != NumVars; ++I)
      if (Pi[I] == I) {
        HasFixpoint = true;
        break;
      }
    if (!HasFixpoint)
      break;
  }

  sl::Entailment E;
  std::vector<bool> IsNext(NumVars);
  for (unsigned I = 0; I != NumVars; ++I) {
    IsNext[I] = Rng.chance(PNext);
    E.Lhs.Spatial.push_back(IsNext[I]
                                ? sl::HeapAtom::next(Vars[I], Vars[Pi[I]])
                                : sl::HeapAtom::lseg(Vars[I], Vars[Pi[I]]));
  }

  // Fold random maximal paths of yet-unfolded atoms into lsegs. Visit
  // the variables in a random order; from each not-yet-folded address
  // follow the permutation while atoms are unfolded.
  std::vector<unsigned> VisitOrder(NumVars);
  std::iota(VisitOrder.begin(), VisitOrder.end(), 0u);
  for (unsigned I = NumVars - 1; I != 0; --I) {
    unsigned J = static_cast<unsigned>(Rng.below(I + 1));
    std::swap(VisitOrder[I], VisitOrder[J]);
  }

  std::vector<bool> Folded(NumVars, false);
  for (unsigned Start : VisitOrder) {
    if (Folded[Start])
      continue;
    // Fold the longest *simple* path of yet-unfolded atoms from Start:
    // stop at an already-folded atom, or just before closing a cycle
    // back to Start (π is a permutation, so within one walk only Start
    // can recur; the closing atom is folded by a later pick).
    unsigned Cur = Start;
    while (!Folded[Cur] && Pi[Cur] != Start) {
      Folded[Cur] = true;
      Cur = Pi[Cur];
    }
    E.Rhs.Spatial.push_back(sl::HeapAtom::lseg(Vars[Start], Vars[Cur]));
  }
  return E;
}
