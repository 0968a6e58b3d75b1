//===- baselines/BerdineProver.cpp - Smallfoot-style baseline ----------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "baselines/BerdineProver.h"

#include "core/SpatialClause.h"
#include "core/Unfolding.h"
#include "sl/Semantics.h"
#include "support/UnionFind.h"

#include <algorithm>
#include <set>

using namespace slp;
using namespace slp::baselines;

const char *baselines::baselineVerdictName(BaselineVerdict V) {
  switch (V) {
  case BaselineVerdict::Valid:
    return "valid";
  case BaselineVerdict::Invalid:
    return "invalid";
  case BaselineVerdict::Unknown:
    return "unknown";
  }
  return "?";
}

struct BerdineProver::State {
  std::vector<sl::PureAtom> Pure;  ///< Π plus accumulated split literals.
  sl::SpatialFormula Sigma;        ///< Σ.
  std::vector<sl::PureAtom> PureP; ///< Π'.
  sl::SpatialFormula SigmaP;       ///< Σ'.
  std::vector<Symbol> Constants;
};


BaselineVerdict BerdineProver::prove(const sl::Entailment &E, Fuel &F) {
  Stats = BaselineStats();
  State S;
  S.Pure = E.Lhs.Pure;
  S.Sigma = E.Lhs.Spatial;
  S.PureP = E.Rhs.Pure;
  S.SigmaP = E.Rhs.Spatial;
  S.Constants.push_back(Terms.nil());
  E.collectTerms(S.Constants);
  return decide(S, F);
}

BaselineVerdict BerdineProver::decide(const State &S, Fuel &F) {
  if (!F.consume())
    return BaselineVerdict::Unknown;

  // Step 1: close the equalities of Π under union-find; a violated
  // disequality makes the left-hand side inconsistent.
  UnionFind UF;
  for (const sl::PureAtom &A : S.Pure)
    if (!A.Negated)
      UF.unite(A.Lhs.id(), A.Rhs.id());
  std::set<std::pair<uint32_t, uint32_t>> Diseqs;
  for (const sl::PureAtom &A : S.Pure) {
    if (!A.Negated)
      continue;
    uint32_t RA = UF.find(A.Lhs.id()), RB = UF.find(A.Rhs.id());
    if (RA == RB)
      return BaselineVerdict::Valid; // Π inconsistent.
    Diseqs.emplace(std::min(RA, RB), std::max(RA, RB));
  }

  // Pick a representative constant per class, by the symbol id of its
  // root: the smallest symbol id, so nil (symbol 0) represents the class
  // containing it.
  std::vector<Symbol> Rep;
  for (Symbol C : S.Constants) {
    uint32_t R = UF.find(C.id());
    if (R >= Rep.size())
      Rep.resize(R + 1);
    if (!Rep[R].valid() || C < Rep[R])
      Rep[R] = C;
  }
  auto RepOf = [&](Symbol T) {
    assert(UF.find(T.id()) < Rep.size() && "constant outside the query");
    return Rep[UF.find(T.id())];
  };

  // Step 2: substitute representatives; drop trivial lsegs.
  auto Subst = [&](const sl::SpatialFormula &In) {
    sl::SpatialFormula Out;
    for (const sl::HeapAtom &A : In) {
      sl::HeapAtom B{A.Kind, RepOf(A.Addr), RepOf(A.Val)};
      if (!B.isTrivialLseg())
        Out.push_back(B);
    }
    return Out;
  };
  sl::SpatialFormula Sigma = Subst(S.Sigma);
  sl::SpatialFormula SigmaP = Subst(S.SigmaP);

  auto Branch = [&](sl::PureAtom Added) {
    State S2 = S;
    S2.Pure.push_back(Added);
    return decide(S2, F);
  };

  // Case split: both branches must be valid; an invalid branch
  // short-circuits (its countermodel refutes the sequent).
  auto Split = [&](sl::PureAtom A, sl::PureAtom B) {
    BaselineVerdict VA = Branch(A);
    if (VA == BaselineVerdict::Invalid)
      return VA;
    BaselineVerdict VB = Branch(B);
    if (VB == BaselineVerdict::Invalid)
      return VB;
    if (VA == BaselineVerdict::Unknown || VB == BaselineVerdict::Unknown)
      return BaselineVerdict::Unknown;
    return BaselineVerdict::Valid;
  };

  // Step 3: forced well-formedness analysis of Σ. Each rule either
  // proves the sequent (inconsistent Σ) or recurses with a new pure
  // literal; the recursion redoes the whole analysis. Every pair
  // inspection is an elementary step: charging fuel here keeps the
  // budget honest on wide formulas and gives a cancelled portfolio
  // loser a poll point inside the quadratic scan.
  for (size_t I = 0; I != Sigma.size(); ++I) {
    const sl::HeapAtom &A = Sigma[I];
    if (A.Addr.isNil()) {
      if (A.isNext())
        return BaselineVerdict::Valid; // nil is never allocated.
      return Branch(sl::PureAtom::eq(A.Val, A.Addr)); // lseg must be empty.
    }
    for (size_t J = I + 1; J != Sigma.size(); ++J) {
      if (!F.consume())
        return BaselineVerdict::Unknown;
      const sl::HeapAtom &B = Sigma[J];
      if (A.Addr != B.Addr)
        continue;
      if (A.isNext() && B.isNext())
        return BaselineVerdict::Valid; // Overlapping cells.
      if (A.isNext() || B.isNext()) {
        const sl::HeapAtom &L = A.isLseg() ? A : B;
        return Branch(sl::PureAtom::eq(L.Addr, L.Val));
      }
      ++Stats.CaseSplits;
      return Split(sl::PureAtom::eq(A.Addr, A.Val),
                   sl::PureAtom::eq(B.Addr, B.Val));
    }
  }

  // Step 4: split on the first undecided pair of occurring constants.
  // This is the source of the baseline's exponential behaviour: with
  // no equality model to consult, every aliasing question must be
  // answered by enumeration.
  std::vector<Symbol> Reps;
  for (Symbol C : S.Constants) {
    Symbol R = RepOf(C);
    if (std::find(Reps.begin(), Reps.end(), R) == Reps.end())
      Reps.push_back(R);
  }
  for (size_t I = 0; I != Reps.size(); ++I)
    for (size_t J = I + 1; J != Reps.size(); ++J) {
      if (!F.consume())
        return BaselineVerdict::Unknown;
      uint32_t RA = UF.find(Reps[I].id()), RB = UF.find(Reps[J].id());
      if (Diseqs.count({std::min(RA, RB), std::max(RA, RB)}))
        continue;
      ++Stats.CaseSplits;
      return Split(sl::PureAtom::eq(Reps[I], Reps[J]),
                   sl::PureAtom::ne(Reps[I], Reps[J]));
    }

  // Step 5: leaf — the partition is total. Check Π' and then decide
  // the spatial part with the deterministic unfolding walk (at a total
  // partition the walk decides validity outright). The walk below is
  // linear in the formulas; charge it up front so leaf work is on the
  // budget and cancellation is polled once more per leaf.
  ++Stats.Leaves;
  if (!F.consume(1 + Sigma.size() + SigmaP.size()))
    return BaselineVerdict::Unknown;
  for (const sl::PureAtom &A : S.PureP) {
    bool Equal = RepOf(A.Lhs) == RepOf(A.Rhs);
    if (Equal == A.Negated)
      return BaselineVerdict::Invalid;
  }

  sl::Stack Stack;
  sl::Loc NextLoc = 1;
  for (Symbol C : S.Constants) {
    Symbol R = RepOf(C);
    if (!Stack.bound(R))
      Stack.bind(R, NextLoc++);
  }

  core::PosSpatialClause C;
  C.Sigma = Sigma;
  core::NegSpatialClause CP;
  CP.Sigma = SigmaP;
  core::UnfoldResult U = core::unfold(Stack, C, CP);
  return U.K == core::UnfoldResult::Kind::Derived ? BaselineVerdict::Valid
                                                  : BaselineVerdict::Invalid;
}
